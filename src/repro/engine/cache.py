"""Content-addressed on-disk artifact store.

Compiled pairs and simulation results are pickled under
``<root>/<key[:2]>/<key>.pkl`` where *key* is the sha256 digest built in
:mod:`repro.engine.spec` (source hash + toolchain config + schema
version, plus ISA/machine config for runs). Content addressing makes
invalidation automatic: any change to the workload source, the
toolchain options, the machine config, or :data:`~repro.engine.spec.SCHEMA_VERSION`
produces a different key, and the stale entry is simply never read
again (``bsisa cache clear`` reclaims the space).

Stores are atomic (temp file + :func:`os.replace`) so concurrent
writers — e.g. two parallel ``bsisa run`` invocations — can never leave
a torn artifact; unreadable or unpicklable entries are treated as
misses and deleted.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

#: Environment override for the default cache location.
CACHE_DIR_ENV = "BSISA_CACHE_DIR"


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bsisa"


class ArtifactCache:
    """Pickle-based content-addressed store with hit/miss accounting."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root else default_cache_root()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str):
        """The stored object for *key*, or None (counts as a miss)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                obj = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError, ValueError):
            # A torn or stale-format artifact (one pickled from a class
            # whose shape has since changed fails with TypeError or
            # ValueError): drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return obj

    def store(self, key: str, obj) -> None:
        """Atomically persist *obj* under *key* (best-effort: a cache
        write failure must never fail the run that produced *obj*)."""
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
