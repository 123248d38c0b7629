"""On-disk memoization of schedule results.

The cache is a plain directory of pickle files, content-addressed by the
keys of :mod:`repro.exec.hashing` and fanned out over 256 subdirectories
(first key byte) so paper-scale runs do not pile tens of thousands of
entries into one directory.  Writes go through a temporary file followed
by an atomic :func:`os.replace`, so concurrent workers and concurrent
benchmark processes can share one cache directory without locking:
last-writer-wins is safe because both writers hold the identical,
deterministically computed result.

Location, in decreasing precedence:

* an explicit ``directory`` argument (tests pass ``tmp_path``),
* the ``REPRO_CACHE_DIR`` environment variable,
* ``.repro-cache/`` under the current working directory.

A true ``REPRO_NO_CACHE`` (see :func:`repro.env.env_flag`) makes :func:`resolve_cache` return ``None``
everywhere a default would otherwise be constructed.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import pickle
import tempfile

from repro.env import env_flag, env_str

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"
DEFAULT_CACHE_DIR = ".repro-cache"

_SUFFIX = ".pkl"


def default_cache_dir() -> pathlib.Path:
    """The cache directory implied by the environment."""
    return pathlib.Path(env_str(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


@dataclasses.dataclass
class CacheStats:
    """Aggregate on-disk state, for reporting (``repro cache``)."""

    directory: str
    entries: int
    total_bytes: int


class ResultCache:
    """Content-addressed store of result pickles.

    Holds :class:`ScheduleResult` objects for the scheduling layer and
    the simulation layer's ``SimulationResult`` / ``DifferentialReport``
    records (:mod:`repro.sim`); callers type-check what they load.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = pathlib.Path(directory) if directory else default_cache_dir()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / (key + _SUFFIX)

    # ------------------------------------------------------------------
    # Store / load
    # ------------------------------------------------------------------

    def get(self, key: str) -> object | None:
        """The cached result, or ``None`` on a miss.

        A corrupt or truncated entry (killed writer, disk trouble) is
        treated as a miss and removed so it is rewritten cleanly.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError, OSError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result: object) -> None:
        """Store a result atomically (tmp file + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _entries(self) -> list[pathlib.Path]:
        if not self.directory.is_dir():
            return []
        return list(self.directory.glob(f"??/*{_SUFFIX}"))

    def __len__(self) -> int:
        return len(self._entries())

    def stats(self) -> CacheStats:
        entries = self._entries()
        return CacheStats(
            directory=str(self.directory),
            entries=len(entries),
            total_bytes=sum(path.stat().st_size for path in entries),
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def resolve_cache(
    cache: ResultCache | bool | None,
) -> ResultCache | None:
    """Normalise the ``cache`` argument accepted by the execution layer.

    * a :class:`ResultCache` is used as-is;
    * ``True`` opens the default (environment-selected) cache;
    * ``False`` disables caching;
    * ``None`` opens the default cache only when the environment asks
      for one (``REPRO_CACHE_DIR`` set), keeping plain library calls —
      including the tier-1 test suite — free of hidden on-disk state.

    A true ``REPRO_NO_CACHE`` wins over everything except an explicit
    :class:`ResultCache` instance.
    """
    if isinstance(cache, ResultCache):
        return cache
    if env_flag(NO_CACHE_ENV):
        return None
    if cache is True:
        return ResultCache()
    if cache is None and env_str(CACHE_DIR_ENV):
        return ResultCache()
    return None
