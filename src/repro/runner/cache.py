"""On-disk result cache keyed by canonical config digests.

Every run is a pure function of its configuration (``RngManager`` makes the
whole simulation deterministic in the master seed), so results can be
memoized on disk: re-running a sweep only executes changed cells.

Layout: ``<root>/<digest[:2]>/<digest>.pkl`` — one pickle per run, written
atomically (temp file + ``os.replace``) so a killed sweep never leaves a
truncated entry behind.  The default root is ``.repro-cache`` in the
working directory, overridable with ``REPRO_CACHE_DIR``.  Digests carry
:func:`repro.runner.hashing.schema_fingerprint`, so a config or payload
schema change misses every older entry by itself.  To invalidate by hand,
delete the directory, or bump
:data:`repro.runner.hashing.CACHE_SCHEMA_VERSION` after simulator changes
that alter results without changing the schema.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Union


#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISS = object()

#: Default cache root (relative, so each working tree gets its own cache).
DEFAULT_CACHE_DIR = ".repro-cache"


def cache_dir_from_env() -> Path:
    """The cache root named by ``REPRO_CACHE_DIR``, or the default."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR)


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in the same directory
    and ``os.replace``, so a reader sees the old file or the whole new one,
    never a torn one, and a killed writer leaves no temp file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Pickle-per-digest store for experiment results."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else cache_dir_from_env()

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> Any:
        """The cached result for ``digest``, or :data:`MISS`.

        A corrupt or unreadable entry (interrupted write from an older,
        non-atomic tool; unpicklable class after a refactor) counts as a
        miss — the run simply re-executes and overwrites it.
        """
        path = self.path_for(digest)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return MISS
        except Exception:
            return MISS

    def __contains__(self, digest: str) -> bool:
        """True only for entries that actually *load*.

        Membership must agree with :meth:`get`: an entry whose write was
        torn mid-crash exists on disk but unpickles to garbage, and a
        path-existence check would report it present while ``get`` treats
        it as a miss — a resumed sweep would then skip the run *and* have
        no result for it.  Loading the entry makes "present" mean
        "recoverable".
        """
        return self.get(digest) is not MISS

    def put(self, digest: str, result: Any) -> None:
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write(self.path_for(digest), data)

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))
