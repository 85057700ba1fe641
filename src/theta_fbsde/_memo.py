"""One-entry memo of the noise draw."""

from __future__ import annotations


class LastEntry:
    """The value stored under the last key; keys are compared by equality."""

    def __init__(self):
        self._entry: tuple | None = None  # (key, value)

    def get(self, key):
        """The value stored under ``key``, or None."""
        entry = self._entry
        return entry[1] if entry is not None and entry[0] == key else None

    def put(self, key, value) -> None:
        """Store ``value`` under ``key``, replacing the last entry."""
        self._entry = (key, value)
