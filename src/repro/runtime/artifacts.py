"""Content-addressed cross-run artifact cache.

The synthesis loop's dominant repeated cost is layout work whose inputs
recur exactly: a converged sizing re-laid-out in a later run, a Table-1
case re-run with identical specs and technology.  The in-process
memo (:func:`repro.layout.incremental.memo`) dies with the process;
this module persists whole layout calls (the memo's ``layout`` kind,
its one disk tier) and Table-1 case results on disk, content-addressed,
so a second ``table1`` or ``synthesize`` invocation in a fresh process
is served warm.

Keys are sha256 digests over the same canonical token stream
:meth:`~repro.core.cases.CaseResult.fingerprint` uses (enums by name,
dataclasses by field, mappings repr-sorted, floats by ``repr`` — full
bit-exact precision), prefixed with :data:`CACHE_SCHEMA` so any change
to the token discipline or stored shapes invalidates every old entry at
once.  Values are pickles written with
:func:`~repro.ioutil.atomic_write`: concurrent writers (pool workers
share the parent's cache handle across the fork) race benignly — last
rename wins, every rename is a complete entry — and a torn or
unreadable entry self-heals by deletion on the next read.

The cache is **off by default**.  Enable it per-invocation with
``--cache-dir`` (defaulting to ``~/.cache/repro``) or process-wide with
``REPRO_CACHE_DIR``; a cached result is the pickled equal of the value
it replaced, so warm and cold runs are bit-identical by construction.
Hits and misses land on the ``runtime.artifact.hit`` /
``runtime.artifact.miss`` counters.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Union

from repro import telemetry
from repro.ioutil import atomic_write

#: Version prefix folded into every key; bump to invalidate all entries.
CACHE_SCHEMA = "repro-artifacts-v2"

#: Environment variable enabling the cache process-wide.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_root() -> Path:
    """The conventional cache location (``--cache-dir`` with no value)."""
    return Path(os.path.expanduser("~/.cache/repro"))


def canonical_tokens(value: object) -> Iterator[str]:
    """Deterministic token stream over result payloads (for hashing).

    Handles the value shapes a :class:`~repro.core.cases.CaseResult` is
    built from: enums hash by name, dataclasses by field name + content,
    mappings by repr-sorted key, sequences in order, everything else by
    ``repr`` (floats therefore contribute full bit-exact precision).
    Shared with :meth:`CaseResult.fingerprint` so one discipline covers
    result fingerprints and cache keys alike.
    """
    if isinstance(value, enum.Enum):
        yield value.name
    elif is_dataclass(value) and not isinstance(value, type):
        for field_info in fields(value):
            yield field_info.name
            yield from canonical_tokens(getattr(value, field_info.name))
    elif isinstance(value, dict):
        for key, item in sorted(value.items(), key=lambda kv: repr(kv[0])):
            yield repr(key)
            yield from canonical_tokens(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from canonical_tokens(item)
    else:
        yield repr(value)


def content_key(*parts: object) -> str:
    """sha256 content address of ``parts`` under :data:`CACHE_SCHEMA`."""
    digest = hashlib.sha256(CACHE_SCHEMA.encode())
    for part in parts:
        for token in canonical_tokens(part):
            digest.update(b"\x1f")
            digest.update(token.encode())
    return digest.hexdigest()


class ArtifactCache:
    """One on-disk cache root; handles are cheap, stateless values."""

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def get(self, kind: str, key: str) -> Optional[Any]:
        """The stored value, or ``None`` (missing or unreadable).

        An entry that exists but cannot be unpickled — torn write from a
        killed process on a filesystem without atomic rename, version
        skew inside a pickle — is deleted so it cannot shadow the slot
        forever, and reported as a miss.
        """
        path = self._path(kind, key)
        try:
            data = path.read_bytes()
            value = pickle.loads(data)
        except FileNotFoundError:
            self._miss()
            return None
        except Exception:  # noqa: BLE001 - corrupt entry: self-heal
            try:
                path.unlink()
            except OSError:
                pass
            self._miss()
            return None
        self._hit()
        return value

    def put(self, kind: str, key: str, value: Any) -> bool:
        """Store ``value`` durably; ``False`` if it cannot be pickled or
        written (the cache is an accelerator, never a failure source)."""
        try:
            data = pickle.dumps(value)
        except Exception:  # noqa: BLE001 - unpicklable: skip silently
            return False
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
        except OSError:
            return False
        return True

    def _hit(self) -> None:
        self.hits += 1
        telemetry.count("runtime.artifact.hit")

    def _miss(self) -> None:
        self.misses += 1
        telemetry.count("runtime.artifact.miss")


_UNSET = object()
_ACTIVE: Any = _UNSET


def active() -> Optional[ArtifactCache]:
    """The process-wide cache, or ``None`` when disabled.

    Resolved lazily from :data:`CACHE_DIR_ENV` on first use unless
    :func:`configure` (the CLI) or :func:`using` (tests) decided first.
    """
    global _ACTIVE
    if _ACTIVE is _UNSET:
        root = os.environ.get(CACHE_DIR_ENV)
        _ACTIVE = ArtifactCache(root) if root else None
    return _ACTIVE


def configure(
    root: Optional[Union[str, os.PathLike]]
) -> Optional[ArtifactCache]:
    """Set the process-wide cache root (``None`` disables)."""
    global _ACTIVE
    _ACTIVE = ArtifactCache(root) if root else None
    return _ACTIVE


@contextmanager
def using(
    root: Optional[Union[str, os.PathLike]]
) -> Iterator[Optional[ArtifactCache]]:
    """Scoped cache activation (tests, benchmarks)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ArtifactCache(root) if root else None
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
