"""One-entry memo shared by the solve, valuation and noise caches."""

from __future__ import annotations

import weakref


class LastEntry:
    """The value stored under the last key, and the object it belongs to.

    The owner, when one is given, is held by weak reference and matched by
    identity, so it is never hashed and never kept alive; the entry goes when
    the owner is collected.  Keys are compared by equality.
    """

    def __init__(self):
        self._entry: tuple | None = None  # (key, owner reference or None, value)

    def get(self, key, owner=None):
        """The value stored under ``key`` for ``owner``, or None."""
        entry = self._entry
        if entry is None or entry[0] != key:
            return None
        ref = entry[1]
        if (None if ref is None else ref()) is not owner:
            return None
        return entry[2]

    def put(self, key, value, owner=None) -> None:
        """Store ``value`` under ``key`` for ``owner``, replacing the last entry."""
        ref = None if owner is None else weakref.ref(owner, self._forget)
        self._entry = (key, ref, value)

    def _forget(self, ref: weakref.ref) -> None:
        if self._entry is not None and self._entry[1] is ref:
            self._entry = None
