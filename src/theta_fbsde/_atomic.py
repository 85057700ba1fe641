"""All-or-nothing artifacts: a reader of the target sees either the
previous file or the complete new one, never a truncated write."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a bytes handle whose contents replace ``path`` when the body ends.

    The handle writes to a temporary file in the target's directory, which
    ``os.replace`` renames over ``path`` once the body has finished and the
    file is closed.  If the body raises, the temporary file is removed and a
    file already at ``path`` keeps its bytes.  The temporary file is created
    like ``open(path, "w")`` would create it, so it gets the same mode.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
