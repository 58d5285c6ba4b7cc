"""NetDPSyn: end-to-end DP trace synthesis (paper Algorithm 1).

The pipeline:

1.  type-dependent binning of every attribute;
2.  tsdiff auxiliary attribute;
3.  noisy 1-way marginals (Gaussian mechanism, 0.1·rho);
4.  frequency-dependent binning on the noisy counts;
5.  2-way marginal selection via noisy InDif + DenseMarg (0.1·rho);
6.  combination of small overlapping marginals;
7.  publication of the combined marginals (Gaussian mechanism, 0.8·rho);
8.  consistency post-processing + protocol rules;
9.  GUMMI record synthesis;
10. in-bin decoding;
11. timestamp reconstruction from tsdiff.

Everything after step 7 is post-processing: the released trace satisfies the
same ``(epsilon, delta)``-DP as the published marginals (zCDP composition,
tracked by the :class:`~repro.dp.accountant.BudgetLedger`).

Steps 1-8 run as the staged :mod:`repro.pipeline` (Binning → Selection →
Combine → Publish → Consistency) threading an explicit
:class:`~repro.pipeline.FitContext`; per-stage wall-clock timings surface as
:attr:`NetDPSyn.fit_report`, and ``config.fit_engine`` fans the exact-count
work out across workers without touching the noise stream.

Steps 9-11 run on the :mod:`repro.engine` sampling engine: ``fit()`` freezes
a picklable :class:`~repro.engine.SynthesisPlan` and ``sample()`` executes it
on the serial or process backend (or a fleet), optionally sharded —
post-processing parallelism is free under DP.

A fitted model round-trips through :meth:`NetDPSyn.save` /
:meth:`NetDPSyn.load` (see :mod:`repro.io`): the loaded instance samples
bit-identically to the original, so fit-once/sample-anywhere deployments can
ship the model file to stateless workers.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.binning.encoder import EncodedDataset
from repro.core.config import SynthesisConfig
from repro.data.table import TraceTable
from repro.dp.accountant import BudgetLedger
from repro.dp.allocation import split_budget
from repro.engine import (
    DEFAULT_CHUNK,
    EngineConfig,
    SynthesisPlan,
    execute_plan_decoded,
    execute_plan_stream,
)
from repro.engine.backends import default_workers
from repro.engine.executor import backend_for
from repro.pipeline import FitContext, FitPipeline, FitReport
from repro.utils.memory import peak_rss_bytes
from repro.utils.rng import ensure_rng, make_seed_sequence
from repro.utils.timer import Timer


def _fit_executor(engine: EngineConfig | None):
    """Resolve ``config.fit_engine`` into ``(backend, name, workers)``.

    ``None`` means the inline serial reference path (no executor at all);
    otherwise ``max_workers`` defaults to the machine's core count.
    """
    if engine is None:
        return None, None, None
    workers = engine.max_workers or default_workers()
    return backend_for(engine, workers), engine.backend, workers


@dataclass(frozen=True)
class StreamReport:
    """Outcome of one streaming ``sample_to`` run (pure observability)."""

    path: str
    format: str
    n_records: int
    n_chunks: int
    seconds: float
    #: This process's lifetime RSS high-water mark after the run, in bytes
    #: (``resource.getrusage``; probe from a fresh process for clean numbers).
    peak_rss_bytes: int

    @property
    def records_per_second(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.n_records / self.seconds

    def as_dict(self) -> dict:
        """Plain-dict rendering (JSON-friendly, used by benchmarks)."""
        return {
            "path": self.path,
            "format": self.format,
            "n_records": self.n_records,
            "n_chunks": self.n_chunks,
            "seconds": self.seconds,
            "records_per_second": self.records_per_second,
            "peak_rss_bytes": self.peak_rss_bytes,
        }


def smallest_marginal_index(published: list) -> dict:
    """Attr -> smallest published marginal covering it, in one scan.

    Ties keep the earliest marginal in publication order — the same choice
    ``min(..., key=n_cells)`` over a fresh rescan used to make per attribute.
    """
    index: dict = {}
    for marginal in published:
        for attr in marginal.attrs:
            current = index.get(attr)
            if current is None or marginal.n_cells < current.n_cells:
                index[attr] = marginal
    return index


class NetDPSyn:
    """Differentially private network-trace synthesizer.

    Example
    -------
    >>> from repro.datasets import load_dataset
    >>> from repro.core import NetDPSyn, SynthesisConfig
    >>> table = load_dataset("ton", n_records=2000, seed=1)
    >>> synth = NetDPSyn(SynthesisConfig(epsilon=2.0), rng=7)
    >>> synthetic = synth.fit(table).sample()
    >>> synthetic.schema.names == table.schema.names
    True
    """

    def __init__(
        self,
        config: SynthesisConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or SynthesisConfig()
        self._rng = ensure_rng(rng)
        # Per-call sample() streams are spawned from this sequence (never
        # from self._rng) so each call is reproducible from the seed and the
        # call index alone, regardless of what else consumed the shared rng.
        self._seed_seq = make_seed_sequence(rng)
        self.ledger: BudgetLedger | None = None
        self.encoder = None
        self.selection = None
        self.published: list = []
        self.gum_result = None
        self.fit_report: FitReport | None = None
        self._template: EncodedDataset | None = None
        self._original_schema = None
        self._key_attr: str | None = None
        self._rules: list | None = None
        self._plan: SynthesisPlan | None = None
        #: Persistent worker pool bound to the plan (see :meth:`pool`).
        self._session_backend = None

    # -------------------------------------------------------------------- fit
    def fit(self, table: TraceTable) -> "NetDPSyn":
        """Run the private phases (steps 1-8) as the staged pipeline."""
        cfg = self.config
        timer = Timer()
        timer.start()
        self.ledger = BudgetLedger.from_eps_delta(cfg.epsilon, cfg.delta)
        executor, backend_name, workers = _fit_executor(cfg.fit_engine)
        ctx = FitContext(
            table=table,
            config=cfg,
            rng=self._rng,
            ledger=self.ledger,
            executor=executor,
            stage_budgets=split_budget(self.ledger.total, cfg.stage_split),
        )
        FitPipeline().run(ctx)

        self._original_schema = ctx.original_schema
        self.encoder = ctx.encoder
        self._template = ctx.template
        self.selection = ctx.selection
        self.published = ctx.published
        self._rules = ctx.rules
        self._key_attr = ctx.key_attr
        self._plan = None
        self.fit_report = FitReport(
            stage_seconds=dict(ctx.timings),
            total_seconds=timer.stop(),
            backend=backend_name,
            workers=workers,
            n_records=table.n_records,
            n_pairs=len(ctx.pairs),
            n_marginals=len(ctx.published),
        )
        return self

    # ------------------------------------------------------------------ plan
    def plan(self) -> SynthesisPlan:
        """The picklable sampling plan (steps 9-11 inputs), built lazily.

        A loaded model (:meth:`load`) carries the frozen plan directly and
        needs no encoder; a freshly fitted instance builds the plan from the
        fit outputs on first use.
        """
        if self._plan is not None:
            return self._plan
        if self.encoder is None or self._template is None:
            raise RuntimeError("fit() must be called before sample()/plan()")
        attrs = self._template.attrs
        # One scan over the published marginals instead of a rescan per
        # attribute: the plan is frozen here, so the index is built exactly
        # once per fit.
        smallest = smallest_marginal_index(self.published)
        missing = [a for a in attrs if a not in smallest]
        if missing:
            raise RuntimeError(f"no published marginal covers {missing[0]!r}")
        one_way = {a: smallest[a].project((a,)).counts for a in attrs}
        self._plan = SynthesisPlan(
            attrs=attrs,
            domain=self._template.domain,
            published=self.published,
            one_way=one_way,
            codecs=self.encoder.codecs,
            schema=self.encoder.schema,
            original_schema=self._original_schema,
            rules=self._rules,
            key_attr=self._key_attr,
            gum=self.config.gum,
            initialization=self.config.initialization,
            n_init_marginals=self.config.n_init_marginals,
        )
        return self._plan

    # ----------------------------------------------------------------- sample
    def _engine_call(self, rng, shards, backend):
        """Resolve one sampling call: (engine config, rng stream, pool).

        Under an open :meth:`pool` context, calls that do not name a backend
        themselves default to the pool's backend — that is the whole point of
        opening one.  An explicit per-call ``backend=`` still wins (and runs
        outside the pool when it names a different backend).
        """
        pool = self._session_backend
        if backend is None and pool is not None:
            backend = pool.name
        engine = self.config.engine.override(shards=shards, backend=backend)
        stream = self._seed_seq.spawn(1)[0] if rng is None else rng
        if pool is not None and pool.name != engine.backend:
            pool = None
        return engine, stream, pool

    def sample(
        self,
        n: int | None = None,
        rng: np.random.Generator | int | None = None,
        shards: int | None = None,
        backend: str | None = None,
    ) -> TraceTable:
        """Generate a synthetic trace (steps 9-11); pure post-processing.

        ``shards``/``backend`` override :attr:`SynthesisConfig.engine` for
        this call; with the defaults (one serial shard) and an explicit
        ``rng`` the output is bit-identical to the historic single-loop
        implementation.  Sharded runs decode inside the shards (one decode
        stream per shard), so the output depends on the shard count but
        never on the backend.  When ``rng`` is ``None``, a fresh per-call
        stream is spawned from the constructor seed, so repeated calls are
        individually reproducible instead of silently advancing a shared
        generator.
        """
        plan = self.plan()
        engine, stream, pool = self._engine_call(rng, shards, backend)
        outcome = execute_plan_decoded(plan, engine, n=n, rng=stream, backend=pool)
        self.gum_result = outcome.gum
        return outcome.table

    def sample_stream(
        self,
        n: int | None = None,
        chunk: int = DEFAULT_CHUNK,
        rng: np.random.Generator | int | None = None,
        shards: int | None = None,
        backend: str | None = None,
    ):
        """Yield a synthetic trace as decoded chunks of ``chunk`` records.

        The concatenation of the chunks is digest-identical to
        ``sample(n, rng=..., shards=..., backend=...)`` for the same seed and
        shard count — chunking re-slices the shard stream without changing
        content.  When ``shards`` is not given it defaults to
        ``max(engine.shards, ceil(n / chunk))`` so each shard stays roughly
        chunk-sized and peak memory is bounded by ``chunk``, not ``n``.
        ``self.gum_result`` carries the merged run metadata once the stream
        is exhausted.
        """
        plan = self.plan()
        if n is None:
            n = plan.default_n
        engine, stream, pool = self._engine_call(rng, shards, backend)
        if shards is None and chunk >= 1:
            engine = engine.override(shards=max(engine.shards, -(-int(n) // int(chunk))))

        def _record(gum):
            self.gum_result = gum

        return execute_plan_stream(
            plan,
            engine,
            n=n,
            rng=stream,
            chunk=chunk,
            backend=pool,
            on_complete=_record,
        )

    def sample_to(
        self,
        path,
        n: int | None = None,
        format: str | None = None,
        chunk: int = DEFAULT_CHUNK,
        rng: np.random.Generator | int | None = None,
        shards: int | None = None,
        backend: str | None = None,
    ) -> StreamReport:
        """Stream a synthetic trace straight into a file at bounded RSS.

        ``format`` is one of :data:`repro.data.sinks.SINK_FORMATS` (``csv``,
        ``jsonl``, ``parquet``, ``null``), inferred from the path suffix when
        omitted.  The written records are exactly what
        ``sample_stream(n, chunk, rng=..., shards=...)`` yields, so a
        round-tripped file is digest-identical to the in-memory trace.
        """
        from repro.data.sinks import open_sink

        timer = Timer()
        timer.start()
        schema = self.plan().original_schema
        with open_sink(path, schema, format=format) as sink:
            for part in self.sample_stream(
                n, chunk=chunk, rng=rng, shards=shards, backend=backend
            ):
                sink.write(part)
        return StreamReport(
            path=str(sink.path),
            format=sink.format,
            n_records=sink.rows_written,
            n_chunks=sink.chunks_written,
            seconds=timer.stop(),
            peak_rss_bytes=peak_rss_bytes(),
        )

    @contextmanager
    def pool(self, backend: str | None = None, max_workers: int | None = None):
        """Hold one persistent worker pool across sampling calls.

        Opens the named backend's pool bound to the frozen plan — the plan
        ships to the workers **once per pool lifetime** — and makes every
        ``sample`` / ``sample_stream`` / ``sample_to`` call under the context
        reuse it (calls whose per-call ``backend=`` differs still get their
        own execution).  The pool is closed on exit.

        >>> with synth.pool(backend="process", max_workers=4):  # doctest: +SKIP
        ...     for day in range(30):
        ...         synth.sample_to(f"day-{day}.csv", n=1_000_000)
        """
        pool = backend_for(self.config.engine.override(backend=backend), max_workers)
        pool.open(self.plan())
        self._session_backend = pool
        try:
            yield pool
        finally:
            self._session_backend = None
            pool.close()

    # ----------------------------------------------------------- persistence
    def save(self, path) -> "os.PathLike | str":
        """Write the fitted model to ``path`` (see :mod:`repro.io`).

        The file carries the frozen plan, config, ledger report, fit report,
        and sampling seed sequence; :meth:`load` restores an instance whose
        ``sample(n, rng=s)`` is bit-identical to this one's.
        """
        from repro.io.model import save_model

        return save_model(self, path)

    @classmethod
    def load(cls, path) -> "NetDPSyn":
        """Restore a fitted model written by :meth:`save`."""
        from repro.io.model import load_model

        return load_model(path)

    # ------------------------------------------------------------ convenience
    def synthesize(self, table: TraceTable, n: int | None = None) -> TraceTable:
        """One-shot ``fit`` + ``sample``."""
        return self.fit(table).sample(n)


def synthesize(
    table: TraceTable,
    epsilon: float = 2.0,
    delta: float = 1e-5,
    rng: np.random.Generator | int | None = None,
    config: SynthesisConfig | None = None,
    n: int | None = None,
) -> TraceTable:
    """Functional one-shot API: synthesize a DP trace from ``table``."""
    if config is None:
        config = SynthesisConfig(epsilon=epsilon, delta=delta)
    return NetDPSyn(config, rng=rng).synthesize(table, n=n)
