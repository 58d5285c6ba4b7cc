"""QueryService: the transport-agnostic core of the network-facing DP tier.

:class:`QueryService` sits between a wire layer (:mod:`repro.serving.http`,
or any future transport) and the :class:`~repro.serving.registry.ModelRegistry`,
and owns the three behaviors that make a multi-client deployment fast and
safe:

**Micro-batching** — concurrent in-flight requests for the same
``(model, generation, prefer)`` are fed through
:meth:`~repro.serving.engine.QueryEngine.run_batch` as ONE grouped
execution, answers fanned back out to their callers.  There is no
collection window: a request to an idle group runs at once, and requests
that arrive while a batch executes form the next batch, led by the first
of them (:class:`MicroBatcher`).  ``run_batch`` is bit-identical to serial
``run()``, so batching is invisible except for throughput.
``ServiceConfig(micro_batch=False)`` runs each request by itself — the
baseline configuration the benchmark compares against.

**Answer caching** — answers are memoized under
``(model key, model generation, prefer, query)``.  Queries are frozen
hashable value objects and answering is deterministic post-processing, so a
cache hit is bit-identical to recomputation.  The *generation* component is
the invalidation contract: :meth:`ModelRegistry.generation` bumps whenever
the model file changes on disk (hot reload), so stale answers can never be
served after a re-deploy — no explicit flush needed, old-generation entries
simply age out of the LRU.

**Auth + quota hooks** — every request resolves an API key to a
:class:`Tenant` through a pluggable authenticator (default:
:class:`OpenAccess`, every caller is the anonymous unlimited tenant) and
charges a per-tenant token bucket; an empty bucket raises
:class:`~repro.serving.errors.QuotaExceeded` with a ``retry_after`` hint.

Everything here raises the typed taxonomy of :mod:`repro.serving.errors`;
the wire layer maps those to HTTP statuses mechanically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.reliability import (
    SITE_QUERY,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    maybe_fire,
)
from repro.serving.errors import (
    AuthenticationError,
    CircuitOpen,
    EngineFaultError,
    ModelNotFound,
    QuotaExceeded,
    RequestDeadlineExceeded,
    ServiceOverloaded,
    ServingError,
    error_from_exception,
)
from repro.serving.queries import Prefer, Query, QueryAnswer
from repro.serving.registry import ModelRegistry
from repro.serving.schemas import (
    SCHEMA_VERSION,
    answer_to_wire,
    prefer_from_wire,
    query_from_wire,
)


# ------------------------------------------------------------------ tenancy
@dataclass(frozen=True)
class Tenant:
    """One serving tenant: a name plus an optional requests/sec budget.

    ``rate=None`` means unlimited.  ``burst`` is the token bucket's
    capacity — how many requests may land back-to-back before the rate
    limit bites (defaults to one second's worth, floored at 1).
    """

    name: str
    api_key: str | None = None
    rate: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst is not None and self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


#: The tenant every request maps to under the default open authenticator.
ANONYMOUS = Tenant(name="anonymous")


class TokenBucket:
    """Classic token bucket; thread-safe; monotonic-clock based.

    ``take(cost)`` returns ``0.0`` when granted, else the seconds until
    ``cost`` tokens will have refilled (the ``Retry-After`` hint).
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def take(self, cost: float = 1.0) -> float:
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= cost:
                self._tokens -= cost
                return 0.0
            return (cost - self._tokens) / self.rate


class OpenAccess:
    """Default authenticator: every caller (keyed or not) is anonymous."""

    def authenticate(self, api_key: str | None) -> Tenant:
        return ANONYMOUS


class ApiKeyAuth:
    """Closed deployment: a static API-key -> :class:`Tenant` table.

    ``allow_anonymous`` optionally admits key-less requests as the
    unlimited anonymous tenant (useful for health probes behind a proxy).
    """

    def __init__(self, tenants, allow_anonymous: bool = False) -> None:
        self._by_key: dict = {}
        for tenant in tenants:
            if tenant.api_key is None:
                raise ValueError(f"tenant {tenant.name!r} has no api_key")
            if tenant.api_key in self._by_key:
                raise ValueError(f"duplicate api_key for tenant {tenant.name!r}")
            self._by_key[tenant.api_key] = tenant
        self.allow_anonymous = allow_anonymous

    def authenticate(self, api_key: str | None) -> Tenant:
        if api_key is None:
            if self.allow_anonymous:
                return ANONYMOUS
            raise AuthenticationError("missing API key (send the X-Api-Key header)")
        tenant = self._by_key.get(api_key)
        if tenant is None:
            raise AuthenticationError("unknown API key")
        return tenant


# ------------------------------------------------------------- answer cache
class AnswerCache:
    """Bounded thread-safe LRU of ``(model key, generation, prefer, query)``
    -> :class:`QueryAnswer`.

    Determinism makes hits bit-identical to recomputation; the generation
    in the key makes hot-reload invalidation automatic (a reloaded model
    leases a bumped generation, so its requests key past every stale
    entry — which then age out of the LRU normally).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key) -> QueryAnswer | None:
        with self._lock:
            answer = self._entries.get(key)
            if answer is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return answer

    def put(self, key, answer: QueryAnswer) -> None:
        with self._lock:
            self._entries[key] = answer
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


# ------------------------------------------------------------ micro-batching
class _Pending:
    """One in-flight request parked in a batch group.

    ``event`` is set either when the answer (or error) is in, or when the
    request is promoted to lead the group's next batch (``lead`` is then
    true).
    """

    __slots__ = ("query", "event", "answer", "error", "lead")

    def __init__(self, query: Query) -> None:
        self.query = query
        self.event = threading.Event()
        self.answer: QueryAnswer | None = None
        self.error: BaseException | None = None
        self.lead = False


class _Group:
    """The pending queue of one busy ``(model key, generation, prefer)``
    stream; it exists exactly while some request leads it."""

    __slots__ = ("engine", "prefer", "queue")

    def __init__(self, engine, prefer: Prefer) -> None:
        self.engine = engine
        self.prefer = prefer
        self.queue: list = []


class MicroBatcher:
    """Collects concurrent requests into :meth:`QueryEngine.run_batch` calls.

    No request ever waits for company.  One that finds its group idle
    becomes the *leader* and runs at once.  One that finds the group busy
    queues and parks on its event.  When the leader's batch finishes it
    hands the lead to the first queued request, which runs the next slice
    of up to ``max_batch`` queued requests (its own query included), and
    returns; with nothing queued it retires the group.  So a batch is
    whatever arrived during the previous execution, and every thread runs
    at most one batch — the one that carries its own query.  One global
    lock guards all group queues; the work under it is list edits only.

    ``runner`` (optional) replaces the direct ``engine.run_batch`` call with
    ``runner(engine, queries, prefer)`` — the service passes its guarded
    runner so batched executions get the same circuit-breaker accounting and
    fault typing as unbatched ones.  A queued request whose
    :class:`~repro.reliability.Deadline` lapses leaves the queue and raises
    ``DeadlineExceeded``; if its batch is already running it gives up (the
    slot completes; nobody reads the abandoned answer); if it was already
    promoted it still leads, so the queue behind it never stalls.
    """

    def __init__(self, max_batch: int, runner=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        self._runner = runner
        self._lock = threading.Lock()
        self._groups: dict = {}
        self.batches = 0
        self.batched_queries = 0
        self.largest_batch = 0

    def submit(
        self, key, engine, prefer: Prefer, query: Query, deadline: Deadline | None = None
    ) -> QueryAnswer:
        pending = _Pending(query)
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group(engine, prefer)
                pending.lead = True
            group.queue.append(pending)
        if not pending.lead:
            self._await(group, pending, deadline)
        if pending.lead:
            self._lead(key, group)
        if pending.error is not None:
            raise pending.error
        return pending.answer

    def _await(self, group: _Group, pending: _Pending, deadline: Deadline | None) -> None:
        if deadline is None:
            pending.event.wait()
            return
        # A small grace past the deadline lets a batch finishing right at
        # the wire still deliver; beyond it the follower stops waiting.
        if pending.event.wait(deadline.remaining() + 0.05):
            return
        with self._lock:
            if pending.lead:
                return
            if pending in group.queue:
                group.queue.remove(pending)
        raise DeadlineExceeded("batched query missed its deadline")

    def _lead(self, key, group: _Group) -> None:
        """Run the next slice of ``group``'s queue, then hand off or retire."""
        with self._lock:
            batch = group.queue[: self.max_batch]
            del group.queue[: self.max_batch]
        queries = [p.query for p in batch]
        answers, error = None, None
        try:
            if self._runner is not None:
                answers = self._runner(group.engine, queries, group.prefer)
            else:
                answers = group.engine.run_batch(queries, prefer=group.prefer)
        except BaseException as exc:
            # Queries are pre-resolved before enqueueing, so per-query
            # validation errors cannot land here; anything that does is a
            # server-side failure shared by the whole batch.
            error = exc
        with self._lock:
            if error is None:
                self.batches += 1
                self.batched_queries += len(batch)
                self.largest_batch = max(self.largest_batch, len(batch))
            if group.queue:
                successor = group.queue[0]
                successor.lead = True
                successor.event.set()
            else:
                # Retire the idle group; generations churn on hot reload
                # and dead (key, generation) groups must not accumulate.
                del self._groups[key]
        for i, pending in enumerate(batch):
            if error is None:
                pending.answer = answers[i]
            else:
                pending.error = error
            pending.event.set()

    def stats(self) -> dict:
        with self._lock:
            mean = self.batched_queries / self.batches if self.batches else 0.0
            return {
                "max_batch": self.max_batch,
                "batches": self.batches,
                "batched_queries": self.batched_queries,
                "mean_batch_size": round(mean, 3),
                "largest_batch": self.largest_batch,
            }


# ------------------------------------------------------------------- service
@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`QueryService`.

    ``micro_batch`` sends concurrent requests through one
    :class:`MicroBatcher` execution (``False`` runs each request by itself);
    ``max_batch`` caps a batch.  ``engine_options`` pass through to every
    leased :class:`~repro.serving.engine.QueryEngine` (e.g.
    ``{"sample_records": 200_000}``).

    The reliability knobs:

    - ``request_deadline`` — default per-request time budget in seconds
      (``None`` = unlimited); an expired request maps to a 504 and counts in
      ``stats()["reliability"]["deadline_hits"]``.
    - ``max_inflight`` — admission cap: requests past it are shed with a
      typed 503 + ``Retry-After`` instead of queueing (cache hits are never
      shed — they complete in microseconds and hold no engine resources).
    - ``breaker_failures`` / ``breaker_reset`` — circuit-breaker trip
      threshold (consecutive engine faults) and open-state cool-down.  While
      the breaker is open, queries the marginal path covers are still
      answered (pure array reads off published marginals, independent of
      the faulting execution machinery); only queries that genuinely need
      sampling get the 503 ``circuit_open``.
    """

    micro_batch: bool = True
    max_batch: int = 64
    cache_answers: bool = True
    cache_entries: int = 10_000
    default_prefer: Prefer = Prefer.AUTO
    engine_options: dict = field(default_factory=dict)
    request_deadline: float | None = None
    max_inflight: int = 256
    breaker_failures: int = 5
    breaker_reset: float = 30.0

    def __post_init__(self) -> None:
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError(
                f"request_deadline must be positive, got {self.request_deadline}"
            )
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.breaker_failures < 1:
            raise ValueError(f"breaker_failures must be >= 1, got {self.breaker_failures}")
        if self.breaker_reset <= 0:
            raise ValueError(f"breaker_reset must be positive, got {self.breaker_reset}")
        object.__setattr__(self, "default_prefer", Prefer.coerce(self.default_prefer))


class QueryService:
    """Answer wire-level DP queries over a :class:`ModelRegistry`.

    The typed entry points (:meth:`query`, :meth:`query_batch`) speak
    :class:`Query`/:class:`QueryAnswer`; the ``handle_*`` methods speak wire
    dicts and are what a transport binds to.  All methods are thread-safe —
    the HTTP layer calls straight into one shared service from its
    connection threads.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServiceConfig | None = None,
        authenticator=None,
    ) -> None:
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.config = config or ServiceConfig()
        self.authenticator = authenticator or OpenAccess()
        self.cache = AnswerCache(self.config.cache_entries)
        self.batcher = MicroBatcher(self.config.max_batch, runner=self._run_guarded)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_timeout=self.config.breaker_reset,
        )
        self._buckets: dict = {}
        self._buckets_lock = threading.Lock()
        self._requests = 0
        # Monotonic: uptime must be immune to wall-clock steps (NTP slew,
        # manual resets) — time.time() here once produced negative uptimes.
        self._started = time.monotonic()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._shed = 0
        self._deadline_hits = 0
        self._degraded = 0
        self._engine_faults = 0

    # -------------------------------------------------------------- plumbing
    def _authorize(self, api_key: str | None, cost: float) -> Tenant:
        tenant = self.authenticator.authenticate(api_key)
        if tenant.rate is not None:
            with self._buckets_lock:
                bucket = self._buckets.get(tenant.name)
                if bucket is None:
                    burst = tenant.burst if tenant.burst is not None else max(1.0, tenant.rate)
                    bucket = TokenBucket(tenant.rate, burst)
                    self._buckets[tenant.name] = bucket
            retry_after = bucket.take(cost)
            if retry_after > 0:
                raise QuotaExceeded(
                    f"tenant {tenant.name!r} is over its {tenant.rate:g} req/s quota",
                    retry_after=retry_after,
                )
        with self._buckets_lock:
            self._requests += 1
        return tenant

    def _lease(self, model: str):
        """``(engine, cache-key prefix)`` for one model; typed errors."""
        try:
            engine, generation = self.registry.lease(model, **self.config.engine_options)
        except FileNotFoundError:
            available = self.registry.list_models()
            raise ModelNotFound(
                f"model {model!r} not found; available: {available}"
            ) from None
        key = self.registry.key_of(model)
        return engine, (key, generation)

    # ----------------------------------------------------------- reliability
    def _deadline(self, deadline: Deadline | None) -> Deadline | None:
        """The caller's deadline, else the configured default, else none."""
        if deadline is not None:
            return deadline
        if self.config.request_deadline is not None:
            return Deadline.after(self.config.request_deadline)
        return None

    @contextmanager
    def _admit(self):
        """Admission control: hold one in-flight slot or shed with a 503.

        Shedding beats queueing here: every admitted request holds a
        connection thread and (usually) engine work, so past the cap more
        queueing only grows tail latency for everyone.  A shed client
        retries after ``retry_after`` at zero privacy cost.
        """
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                self._shed += 1
                raise ServiceOverloaded(
                    f"service is at its in-flight cap ({self.config.max_inflight}); "
                    "request shed",
                    retry_after=0.05,
                )
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _run_guarded(self, engine, queries: list, prefer: Prefer) -> list:
        """Engine execution with circuit-breaker accounting and fault typing.

        Client-shaped errors (validation misses that slipped past the
        up-front check) map to their 4xx types without touching the breaker;
        anything else is a server-side engine fault: it trips the breaker
        one notch and surfaces as a typed 503 — never an untyped 500.
        """
        try:
            maybe_fire(SITE_QUERY)
            answers = engine.run_batch(queries, prefer=prefer)
        except ServingError:
            raise
        except (KeyError, LookupError, ValueError) as exc:
            raise error_from_exception(exc) from None
        except Exception as exc:
            self.breaker.record_failure()
            with self._inflight_lock:
                self._engine_faults += 1
            raise EngineFaultError(
                f"query execution failed: {type(exc).__name__}: {exc}"
            ) from exc
        self.breaker.record_success()
        return answers

    def _degraded_answer(self, engine, query: Query, prefer: Prefer) -> QueryAnswer:
        """Marginal-path answer while the breaker is open, else ``CircuitOpen``.

        The marginal path is pure array reads off the published noisy
        marginals — no sampling machinery to fault — so it keeps serving
        through engine trouble.  For ``prefer="auto"`` it returns exactly
        what the healthy path would have (auto resolves to the marginal path
        whenever one covers the query), which is why the answer is safe to
        cache under the caller's prefer.
        """
        if prefer is not Prefer.SAMPLE and engine.answerable_from_marginal(query):
            answer = engine.run(query, prefer=Prefer.MARGINAL)
            with self._inflight_lock:
                self._degraded += 1
            return answer
        raise CircuitOpen(
            "engine circuit breaker is open after repeated faults and the "
            "query needs the sample path",
            retry_after=self.breaker.retry_after(),
        )

    # --------------------------------------------------------------- queries
    def query(
        self,
        model: str,
        query: Query,
        prefer=None,
        api_key: str | None = None,
        deadline: Deadline | None = None,
    ) -> QueryAnswer:
        """Answer one query: a client batch of one (see :meth:`query_batch`)."""
        return self.query_batch(model, [query], prefer, api_key, deadline)[0]

    def query_batch(
        self,
        model: str,
        queries,
        prefer=None,
        api_key: str | None = None,
        deadline: Deadline | None = None,
    ) -> list:
        """Answer a client-assembled batch: auth -> cache -> validation ->
        admission -> guarded execution.

        Charged as ``len(queries)`` requests against the tenant's quota.
        Cached answers are reused; only the misses run, and their answers
        backfill the cache.  A lone miss joins the micro-batcher (when on),
        so concurrent single requests share one grouped execution; several
        misses already are one, and run in one ``run_batch``.
        """
        deadline = self._deadline(deadline)
        try:
            return self._answer(model, list(queries), prefer, api_key, deadline)
        except DeadlineExceeded as exc:
            with self._inflight_lock:
                self._deadline_hits += 1
            raise RequestDeadlineExceeded(str(exc)) from None

    def _answer(self, model, queries: list, prefer, api_key, deadline) -> list:
        self._authorize(api_key, cost=max(1.0, float(len(queries))))
        prefer = Prefer.coerce(prefer if prefer is not None else self.config.default_prefer)
        engine, (model_key, generation) = self._lease(model)
        cacheable = self.config.cache_answers and generation is not None
        answers: list = []
        misses = []
        for i, query in enumerate(queries):
            # Cache hits are exempt from shedding, deadlines, and the
            # breaker: they hold no engine resources and finish instantly.
            answer = self.cache.get((model_key, generation, prefer, query)) if cacheable else None
            if answer is None:
                misses.append(i)
            answers.append(answer)
        if not misses:
            return answers
        pending = [queries[i] for i in misses]
        # Validate up front: failures (unknown attrs, uncovered
        # prefer="marginal", categorical histogram) surface on the calling
        # request, never inside a shared batch.
        try:
            for query in pending:
                engine.validate(query, prefer)
        except (KeyError, LookupError, ValueError) as exc:
            raise error_from_exception(exc) from None
        with self._admit():
            if deadline is not None:
                deadline.check("query admission")
            if not self.breaker.allow():
                fresh = [self._degraded_answer(engine, query, prefer) for query in pending]
            elif self.config.micro_batch and len(pending) == 1:
                group = (model_key, generation, prefer)
                fresh = [
                    self.batcher.submit(group, engine, prefer, pending[0], deadline=deadline)
                ]
            else:
                fresh = self._run_guarded(engine, pending, prefer)
        for i, answer in zip(misses, fresh):
            answers[i] = answer
            if cacheable:
                # Cache before the final deadline check: the answer is
                # correct even when late, and the client's retry then hits.
                self.cache.put((model_key, generation, prefer, queries[i]), answer)
        if deadline is not None:
            deadline.check("answer delivery")
        return answers

    # ------------------------------------------------------------- wire level
    def handle_query(
        self,
        model: str,
        payload: dict,
        api_key: str | None = None,
        deadline: Deadline | None = None,
    ) -> dict:
        """Wire entry point: ``{"query": {...}, "prefer"?: "..."}`` -> answer."""
        if not isinstance(payload, dict) or "query" not in payload:
            raise error_from_exception(
                ValueError('request body must be {"query": {...}, "prefer"?: "..."}')
            )
        query = query_from_wire(payload["query"])
        prefer = prefer_from_wire(payload)
        answer = self.query(model, query, prefer=prefer, api_key=api_key, deadline=deadline)
        return answer_to_wire(answer)

    def handle_query_batch(
        self,
        model: str,
        payload: dict,
        api_key: str | None = None,
        deadline: Deadline | None = None,
    ) -> dict:
        """Wire entry point: ``{"queries": [...], "prefer"?: "..."}``."""
        if not isinstance(payload, dict) or not isinstance(payload.get("queries"), list):
            raise error_from_exception(
                ValueError('request body must be {"queries": [{...}, ...], "prefer"?: "..."}')
            )
        queries = [query_from_wire(q) for q in payload["queries"]]
        prefer = prefer_from_wire(payload)
        answers = self.query_batch(
            model, queries, prefer=prefer, api_key=api_key, deadline=deadline
        )
        return {
            "schema_version": SCHEMA_VERSION,
            "answers": [answer_to_wire(a) for a in answers],
        }

    # ------------------------------------------------------------- metadata
    def models(self) -> dict:
        """Inventory: every model on disk, its generation and cached state."""
        cached = set(self.registry.cached_models)
        return {
            "schema_version": SCHEMA_VERSION,
            "models": [
                {
                    "name": name,
                    "generation": self.registry.generation(name),
                    "cached": name in cached,
                }
                for name in self.registry.list_models()
            ],
        }

    def model_info(self, model: str) -> dict:
        """One model's queryable surface (attrs, bin counts, generation)."""
        engine, (model_key, generation) = self._lease(model)
        return {
            "schema_version": SCHEMA_VERSION,
            "name": model_key,
            "generation": generation,
            "attrs": {
                attr: {"bins": int(engine._domain.size(attr))} for attr in engine.attrs
            },
            "n_records": float(engine._plan.default_n),
        }

    def stats(self) -> dict:
        """Observability snapshot (also the benchmark's evidence trail)."""
        with self._buckets_lock:
            requests = self._requests
        with self._inflight_lock:
            reliability = {
                "breaker": self.breaker.stats(),
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "shed": self._shed,
                "deadline_hits": self._deadline_hits,
                "degraded_answers": self._degraded,
                "engine_faults": self._engine_faults,
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests": requests,
            "cache": self.cache.stats() if self.config.cache_answers else {"enabled": False},
            "batcher": self.batcher.stats(),
            "registry": self.registry.stats.as_dict(),
            "reliability": reliability,
        }
