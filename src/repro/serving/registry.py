"""ModelRegistry: a thread-safe, byte-budgeted LRU cache of fitted models.

The serving deployment story is fit-once/serve-anywhere: fitted models are
saved as ``.ndpsyn`` files (:mod:`repro.io`) into a directory, and a
stateless serving tier points a registry at that directory.  The registry

- loads models on demand through :meth:`~repro.core.synthesizer.NetDPSyn.load`
  and keeps them hot in an LRU cache bounded by a **byte budget** (cost =
  the model file's size on disk, a faithful proxy for the unpickled plan);
- **hot-reloads** a model whenever its file changes on disk (mtime or size
  drift is checked on every ``get``), so re-fitting and atomically replacing
  a file rolls the serving tier forward without restarts;
- hands out per-model :class:`~repro.serving.engine.QueryEngine` instances,
  cached alongside the model and invalidated together with it.

All public methods are safe to call from multiple threads.  One registry
lock serializes cache *mutation*, but slow model loads run outside it under
a per-model load lock: cache hits for other models stay lock-fast while a
cold load or hot reload is unpickling, and concurrent first requests for
the same model still deduplicate to a single load.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.reliability import SITE_MODEL_LOAD, maybe_fire
from repro.serving.engine import QueryEngine

#: Default cache budget: plenty for dozens of laptop-scale models; size it
#: to available RAM minus headroom in a real deployment.
DEFAULT_BYTE_BUDGET = 512 * 1024 * 1024

MODEL_SUFFIX = ".ndpsyn"


@dataclass
class RegistryStats:
    """Counters for observability (and the eviction/hot-reload tests).

    ``load_failures``/``stale_serves``/``last_load_error`` are the
    reload-failure-isolation evidence trail: a corrupt or mid-rewrite model
    file bumps ``load_failures`` and, when a previous generation is cached,
    every request served from it bumps ``stale_serves`` — visible in
    ``/v1/stats`` instead of surfacing as a 500.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    reloads: int = 0
    load_failures: int = 0
    stale_serves: int = 0
    last_load_error: str | None = None

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "reloads": self.reloads,
            "load_failures": self.load_failures,
            "stale_serves": self.stale_serves,
            "last_load_error": self.last_load_error,
        }


@dataclass
class _Entry:
    """One cached model plus the file fingerprint it was loaded from."""

    model: object
    size: int
    mtime_ns: int
    #: Monotonic per-model load counter (see :meth:`ModelRegistry.generation`).
    generation: int = 1
    #: Engine cache: options-key -> QueryEngine, dropped on reload/eviction.
    engines: dict = field(default_factory=dict)
    #: Fingerprint of an on-disk state that failed to load.  While the file
    #: still matches it, requests serve this (previous-generation) entry
    #: without re-attempting the load — no reload storm against a
    #: stably-corrupt file; any further file change clears the memo and
    #: triggers a fresh load attempt.
    bad_fingerprint: tuple | None = None

    def fingerprint(self) -> tuple:
        return (self.mtime_ns, self.size)


class ModelRegistry:
    """Loads and serves fitted models from a directory of ``.ndpsyn`` files.

    >>> registry = ModelRegistry("models/")           # doctest: +SKIP
    >>> engine = registry.engine("ton-eps2")          # doctest: +SKIP
    >>> engine.run(queries.count())                   # doctest: +SKIP
    """

    def __init__(self, root, byte_budget: int = DEFAULT_BYTE_BUDGET) -> None:
        self.root = Path(root)
        if byte_budget < 1:
            raise ValueError(f"byte_budget must be >= 1, got {byte_budget}")
        self.byte_budget = int(byte_budget)
        self.stats = RegistryStats()
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        #: Per-model locks serializing the slow load path (one per name ever
        #: requested — bounded by the directory's inventory).
        self._load_locks: dict = {}
        #: key -> number of loads ever performed for that model.  Never reset
        #: (not even by eviction or deletion), so ``(key, generation)`` is a
        #: correct invalidation key for any external cache built on answers.
        self._generations: dict = {}
        #: name -> (key, path), memoized like ``_load_locks``: only for names
        #: whose file was found, so unknown names cannot grow it.
        self._resolved: dict = {}

    # -------------------------------------------------------------- inventory
    def _resolve(self, name: str) -> tuple[str, Path]:
        """``(key, path)`` of a model name: the cache key and its file."""
        resolved = self._resolved.get(name)
        if resolved is None:
            file_name = str(name)
            if not file_name.endswith(MODEL_SUFFIX):
                file_name += MODEL_SUFFIX
            path = self.root / file_name
            resolved = (path.name[: -len(MODEL_SUFFIX)], path)
        return resolved

    def path_of(self, name: str) -> Path:
        """The file a model name refers to (suffix appended when missing)."""
        return self._resolve(name)[1]

    def key_of(self, name: str) -> str:
        """The canonical cache key of a model name (suffix stripped)."""
        return self._resolve(name)[0]

    def list_models(self) -> list:
        """Model names available on disk (sorted, without the suffix)."""
        return sorted(p.name[: -len(MODEL_SUFFIX)] for p in self.root.glob(f"*{MODEL_SUFFIX}"))

    @property
    def cached_models(self) -> list:
        """Names currently held in the cache, LRU first."""
        with self._lock:
            return list(self._entries)

    @property
    def total_bytes(self) -> int:
        """Sum of the cached models' file sizes."""
        with self._lock:
            return sum(e.size for e in self._entries.values())

    # ------------------------------------------------------------------ cache
    def get(self, name: str):
        """The (hot) model for ``name``; loads or hot-reloads as needed.

        Raises ``FileNotFoundError`` when the file does not exist — a cached
        copy of a deleted file is *not* served (stale models must not
        outlive their release), and is dropped from the cache.
        """
        from repro.core.synthesizer import NetDPSyn

        key, path = self._resolve(name)
        fingerprint = self._fingerprint_or_drop(path, key)
        self._resolved[name] = (key, path)
        with self._lock:
            model = self._cached(key, fingerprint)
            if model is not None:
                return model
            load_lock = self._load_locks.setdefault(key, threading.Lock())
        # Load outside the registry lock: hits on other models stay
        # lock-fast; the per-model lock deduplicates concurrent loads.
        with load_lock:
            # Re-stat and re-check: another thread may have finished this
            # load (or the file may have changed again) while we waited.
            fingerprint = self._fingerprint_or_drop(path, key)
            with self._lock:
                model = self._cached(key, fingerprint)
                if model is not None:
                    return model
            try:
                maybe_fire(SITE_MODEL_LOAD, path=str(path))
                model = NetDPSyn.load(path)
            except FileNotFoundError:
                # Deleted between stat and load: same contract as
                # _fingerprint_or_drop — a vanished file is a 404, and any
                # cached copy must not outlive its release.
                with self._lock:
                    self._entries.pop(key, None)
                raise
            except Exception as exc:
                return self._load_failed(key, fingerprint, exc)
            with self._lock:
                if key in self._entries:
                    self.stats.reloads += 1
                else:
                    self.stats.misses += 1
                generation = self._generations.get(key, 0) + 1
                self._generations[key] = generation
                self._entries[key] = _Entry(
                    model=model,
                    size=fingerprint[1],
                    mtime_ns=fingerprint[0],
                    generation=generation,
                )
                self._entries.move_to_end(key)
                # The just-inserted entry is never evicted, so `model` stays
                # cached when this returns.
                self._evict_over_budget()
        return model

    def _load_failed(self, key: str, fingerprint: tuple, exc: Exception):
        """Reload-failure isolation: keep serving the previous generation.

        A corrupt or mid-rewrite ``.ndpsyn`` file must not take a model that
        was serving fine out of rotation.  When a previous generation is
        cached, the failing on-disk state is memoized as ``bad_fingerprint``
        (so :meth:`_cached` serves stale without re-attempting the load on
        every request — no reload storm against a stably-corrupt file) and
        the cached model is returned.  With nothing cached, the failure
        surfaces as a typed 503 :class:`~repro.serving.errors.ModelUnavailable`
        — distinct from the 404 of a file that does not exist at all.
        """
        from repro.serving.errors import ModelUnavailable

        with self._lock:
            self.stats.load_failures += 1
            self.stats.last_load_error = f"{type(exc).__name__}: {exc}"
            entry = self._entries.get(key)
            if entry is not None:
                entry.bad_fingerprint = fingerprint
                self._entries.move_to_end(key)
                self.stats.stale_serves += 1
                return entry.model
        raise ModelUnavailable(
            f"model {key!r} exists but cannot be loaded "
            f"({type(exc).__name__}: {exc}) and no previous generation is cached"
        ) from exc

    def _fingerprint_or_drop(self, path: Path, key: str) -> tuple:
        """Stat the file; a vanished file drops the cache entry and raises."""
        try:
            stat = path.stat()
        except FileNotFoundError:
            with self._lock:
                self._entries.pop(key, None)
            raise
        return (stat.st_mtime_ns, stat.st_size)

    def _cached(self, key: str, fingerprint: tuple):
        """The cached model when it is fresh, else ``None`` (caller loads).

        Must be called with the registry lock held; counts a hit and renews
        the entry's LRU position.
        """
        entry = self._entries.get(key)
        if entry is not None and entry.fingerprint() == fingerprint:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.model
        if entry is not None and fingerprint == entry.bad_fingerprint:
            # The on-disk state is one we already failed to load: serve the
            # previous generation without burning another load attempt.
            self._entries.move_to_end(key)
            self.stats.stale_serves += 1
            return entry.model
        return None

    def generation(self, name: str) -> int:
        """The monotonic load counter for model ``name`` (0 = never loaded).

        Increments on every (re)load — cold load, hot reload after an mtime
        or size change — and never resets, even across eviction or deletion.
        External answer caches key on ``(name, generation)``: a bumped
        generation is the invalidation signal that the model behind a name
        changed.  (The internal mtime/size fingerprint stays what *detects*
        the change; the generation is the stable number caches can hold.)
        """
        key = self.key_of(name)
        with self._lock:
            return self._generations.get(key, 0)

    def lease(self, name: str, **options) -> tuple:
        """``(engine, generation)`` for model ``name``, read atomically.

        The generation is the one of the exact entry the engine answers
        for — callers caching answers use it as their invalidation key.  In
        the rare race where the model was reloaded or evicted between the
        load and the cache read, the engine is served uncached over the
        model just loaded and the generation is ``None`` (meaning: do not
        cache answers from this lease; the next request re-resolves).
        """
        key = self.key_of(name)
        options_key = tuple(sorted(options.items()))
        # Load/refresh WITHOUT holding the registry lock (get() takes the
        # per-model load lock for slow loads; holding the registry lock here
        # would deadlock against an in-flight load on another thread).  Hot
        # reload replaces the entry wholesale, dropping stale engines.
        model = self.get(name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.model is not model:
                # Evicted or reloaded again between get() and here: serve an
                # uncached engine over the model we were handed — still a
                # consistent (model, engine) pair.
                return QueryEngine(model, **options), None
            if options_key not in entry.engines:
                entry.engines[options_key] = QueryEngine(entry.model, **options)
            return entry.engines[options_key], entry.generation

    def engine(self, name: str, **options) -> QueryEngine:
        """A :class:`QueryEngine` over model ``name``, cached with it.

        ``options`` pass through to the engine constructor; each distinct
        option set gets its own cached engine.  Engines are invalidated
        together with their model (hot reload or eviction), so a served
        engine never outlives the model file it answers for.
        """
        return self.lease(name, **options)[0]

    def evict(self, name: str) -> bool:
        """Drop one cached model (and its engines); True when it was cached."""
        key = self.key_of(name)
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every cached model."""
        with self._lock:
            self._entries.clear()

    def _evict_over_budget(self) -> None:
        """Pop LRU entries until the budget holds.

        The most-recently-inserted entry is never evicted: a registry whose
        budget cannot hold even one model still serves it (the budget then
        caps the cache at that single entry).
        """
        while (
            len(self._entries) > 1
            and sum(e.size for e in self._entries.values()) > self.byte_budget
        ):
            self._entries.popitem(last=False)
            self.stats.evictions += 1
