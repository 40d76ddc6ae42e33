"""Content-addressed result cache: in-memory tier plus optional on-disk tier.

Cache keys are a SHA-256 digest of the computation identity (the experiment
function's qualified name), a canonical JSON rendering of its keyword
arguments, and the :func:`code_fingerprint` of the ``repro`` sources, so a
disk cache never serves a result computed by different code.  Dataclasses
(workload suites, system configs, technology nodes...) canonicalize
structurally, so two calls with equal-valued configuration objects share a
cache entry.  Executors are excluded from the key -- how a sweep is
scheduled never changes its rows.

The on-disk tier stores JSON when the payload allows it and falls back to
pickle, under one file per key, so repeated ``python -m repro run`` invocations
hit the cache across processes.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Mapping

#: Environment variable adding a disk tier to the default cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def canonicalize(value: object) -> object:
    """Reduce ``value`` to deterministic JSON-serializable primitives."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            "fields": {
                f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Mapping):
        return {str(k): canonicalize(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(repr(canonicalize(v)) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if callable(value):
        return f"{getattr(value, '__module__', '?')}.{getattr(value, '__qualname__', repr(value))}"
    # Iterable containers such as WorkloadSuite canonicalize element-wise.
    try:
        return [canonicalize(v) for v in value]  # type: ignore[union-attr]
    except TypeError:
        return repr(value)


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` source of the ``repro`` package.

    Hashes relative paths and contents in path order.  Computed on first use
    (never at import) and once per process; a changed, added or removed
    source file changes it.
    """
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def result_key(cache_token: str, kwargs: "Mapping[str, object]") -> str:
    """Content address for (computation, canonicalized kwargs, source code).

    Scheduling- and storage-only arguments (``SweepExecutor`` and
    ``ResultCache`` instances) are dropped: they change how points are fanned
    out or where evaluations are memoized, never what the rows contain.
    """
    from repro.runtime.executor import SweepExecutor

    meaningful = {
        name: value
        for name, value in kwargs.items()
        if not isinstance(value, (SweepExecutor, ResultCache))
    }
    payload = json.dumps(
        {
            "fn": cache_token,
            "kwargs": canonicalize(meaningful),
            "code": code_fingerprint(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def evaluation_overrides(
    function, use_cache: bool, cache: "ResultCache | None"
) -> "dict[str, object]":
    """Cache-flag overrides for experiments with an internal evaluation cache.

    Cache-aware experiment functions (the explore studies) memoize their
    per-candidate model evaluations in their own cache tier and accept
    ``use_evaluation_cache`` / ``evaluation_cache`` parameters to control it.
    This helper centralizes the forwarding rule shared by the CLI and the
    report validator:

    * ``use_cache=False`` disables the internal tier too (a no-cache run
      really recomputes every evaluation);
    * a disk-backed ``cache`` is forwarded as the internal tier, so
      evaluations dedupe across processes and studies.

    Functions without these parameters get an empty dict.
    """
    import inspect

    accepted = inspect.signature(function).parameters
    overrides: "dict[str, object]" = {}
    if not use_cache and "use_evaluation_cache" in accepted:
        overrides["use_evaluation_cache"] = False
    if use_cache and cache is not None and cache.cache_dir and "evaluation_cache" in accepted:
        overrides["evaluation_cache"] = cache
    return overrides


class ResultCache:
    """Two-tier (memory, optional disk) store of experiment payloads by key.

    Every lookup and store is counted -- per cache and per *category* (the
    caller's tier: ``"experiment"`` envelopes, ``"evaluation"`` candidates,
    ``"report"`` jobs) -- and exposed through :meth:`stats` even without a
    tracer attached.  When a tracer is enabled the same counts also feed its
    ``cache.<category>.<kind>`` counters, which is what the envelope's
    telemetry block reports.
    """

    #: Category recorded when the caller does not name one.
    DEFAULT_CATEGORY = "result"

    def __init__(self, cache_dir: "str | None" = None):
        self._memory: "dict[str, object]" = {}
        self.cache_dir = cache_dir
        self._stats: "dict[str, int]" = {
            "hits": 0, "misses": 0, "stores": 0, "evictions": 0, "corrupt": 0,
            "bytes_stored": 0,
        }
        self._category_stats: "dict[str, dict[str, int]]" = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def _count(self, kind: str, category: "str | None", amount: int = 1) -> None:
        """Record ``amount`` events of ``kind`` against ``category``."""
        from repro.obs.tracer import get_tracer

        category = category or self.DEFAULT_CATEGORY
        self._stats[kind] += amount
        per_category = self._category_stats.setdefault(
            category, {"hits": 0, "misses": 0, "stores": 0, "evictions": 0, "corrupt": 0}
        )
        if kind in per_category:
            per_category[kind] += amount
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(f"cache.{category}.{kind}").add(amount)

    def stats(self) -> "dict[str, object]":
        """Lifetime accounting: hits/misses/stores/evictions (+ per category).

        Available with or without a tracer; ``repro explore --json`` lifts
        this into its envelope as ``cache_stats``.
        """
        return {**self._stats, "categories": {
            name: dict(values) for name, values in sorted(self._category_stats.items())
        }}

    @classmethod
    def from_env(cls) -> "ResultCache":
        """Memory-only cache, plus a disk tier when ``REPRO_CACHE_DIR`` is set."""
        return cls(cache_dir=os.environ.get(CACHE_DIR_ENV) or None)

    # ------------------------------------------------------------------ lookup
    def get(self, key: str, category: "str | None" = None) -> object:
        """The cached payload for ``key`` (a deep copy), or ``None``.

        Args:
            key: content address from :func:`result_key`.
            category: accounting bucket for :meth:`stats` and the tracer's
                ``cache.<category>.*`` counters.
        """
        if key in self._memory:
            self._count("hits", category)
            return copy.deepcopy(self._memory[key])
        if self.cache_dir:
            payload = self._read_disk(key, category)
            if payload is not None:
                self._memory[key] = payload
                self._count("hits", category)
                return copy.deepcopy(payload)
        self._count("misses", category)
        return None

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self.cache_dir is not None and self._read_disk(key) is not None
        )

    # ------------------------------------------------------------------- store
    def put(self, key: str, payload: object, category: "str | None" = None) -> None:
        """Store ``payload`` under ``key`` in every tier.

        Args:
            key: content address from :func:`result_key`.
            payload: value to memoize (deep-copied on the way in).
            category: accounting bucket (see :meth:`get`).
        """
        payload = copy.deepcopy(payload)
        self._memory[key] = payload
        self._count("stores", category)
        if self.cache_dir:
            written = self._write_disk(key, payload)
            self._stats["bytes_stored"] += written

    def clear(self) -> None:
        """Drop the in-memory tier and delete any on-disk entries."""
        evicted = len(self._memory)
        self._memory.clear()
        if self.cache_dir and os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if name.endswith((".json", ".pkl")):
                    os.unlink(os.path.join(self.cache_dir, name))
                    evicted += 1
        if evicted:
            self._count("evictions", None, evicted)

    def __len__(self) -> int:
        return len(self._memory)

    # -------------------------------------------------------------- disk tier
    def _path(self, key: str, suffix: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}{suffix}")

    def _read_disk(self, key: str, category: "str | None" = None) -> object:
        """The on-disk payload for ``key``, or ``None``.

        A corrupt or unreadable entry (truncated JSON, stale pickle, bad
        permissions, any deserialization failure) degrades to a miss -- it is
        counted under the ``corrupt`` kind (and the tracer's
        ``cache.<category>.corrupt`` counter) but never raised, so one bad
        file cannot take down a run that can simply recompute.
        """
        json_path = self._path(key, ".json")
        if os.path.exists(json_path):
            try:
                with open(json_path, "r", encoding="utf-8") as handle:
                    return json.load(handle)["payload"]
            except Exception:
                self._count("corrupt", category)
                return None
        pickle_path = self._path(key, ".pkl")
        if os.path.exists(pickle_path):
            try:
                with open(pickle_path, "rb") as handle:
                    return pickle.load(handle)
            except Exception:
                self._count("corrupt", category)
                return None
        return None

    def _write_disk(self, key: str, payload: object) -> int:
        try:
            text = json.dumps({"payload": payload})
        except (TypeError, ValueError):
            blob = pickle.dumps(payload)
            with open(self._path(key, ".pkl"), "wb") as handle:
                handle.write(blob)
            return len(blob)
        with open(self._path(key, ".json"), "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(text.encode("utf-8"))
