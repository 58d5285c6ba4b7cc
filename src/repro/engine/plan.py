"""SynthesisPlan: the picklable post-``fit()`` state of a NetDPSyn run.

Everything record synthesis (paper Algorithm 1 steps 9-11) needs is pure
post-processing data: the published noisy marginals, the encoded domain, the
per-attribute codecs, the protocol rules, and the GUMMI key attribute.  A
:class:`SynthesisPlan` captures exactly that as a plain picklable object so
the sampling phase can be shipped to worker processes (or, in principle,
other machines) without re-running any private computation — the released
records satisfy the same ``(epsilon, delta)``-DP as the published marginals
regardless of how many shards generate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.domain import Domain
from repro.data.schema import Schema
from repro.data.table import TraceTable
from repro.synthesis.decode import decode_encoded
from repro.synthesis.gum import GumConfig, run_gum
from repro.synthesis.initialization import (
    marginal_initialization,
    random_initialization,
)
from repro.synthesis.timestamps import TSDIFF, reconstruct_timestamps
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


@dataclass
class ShardResult:
    """Output of one independent GUM loop over a slice of the record budget."""

    index: int
    #: Encoded rows; the executor drops this reference (sets ``None``) once
    #: the shard has been merged, so per-shard payloads never outlive the
    #: concatenated result — only the metadata below is kept.
    data: np.ndarray | None
    errors: list = field(default_factory=list)
    iterations_run: int = 0
    #: Wall-clock seconds of this shard (initialization + GUM).
    seconds: float = 0.0
    #: The shard's generator, returned so a single-shard run can continue the
    #: exact same stream into decoding (bit-compatibility with the
    #: pre-engine ``sample()``); pickling round-trips the state intact.
    rng: np.random.Generator | None = None
    #: Row count of this shard; survives after ``data`` is dropped.
    n_records: int = 0


@dataclass
class DecodedShard:
    """Output of one shard that synthesized *and decoded* its own rows.

    The streaming execution plane ships these instead of encoded matrices:
    the encoded rows never leave the worker, only the finished
    :class:`~repro.data.table.TraceTable` slice does.
    """

    index: int
    table: TraceTable
    errors: list = field(default_factory=list)
    iterations_run: int = 0
    #: Wall-clock seconds of this shard (initialization + GUM + decode).
    seconds: float = 0.0
    n_records: int = 0

    def meta(self) -> ShardResult:
        """The shard's payload-free metadata, for ``GumResult.shard_results``."""
        return ShardResult(
            index=self.index,
            data=None,
            errors=self.errors,
            iterations_run=self.iterations_run,
            seconds=self.seconds,
            n_records=self.n_records,
        )


@dataclass
class SynthesisPlan:
    """All inputs of the sampling phase, frozen after ``fit()``.

    Instances are self-contained: :meth:`run_shard` synthesizes encoded rows
    and :meth:`finalize` decodes them into a raw trace, so a pickled plan is
    enough to generate records anywhere.
    """

    attrs: tuple
    domain: Domain
    #: Post-processed published marginals (consistency + rules applied).
    published: list
    #: Per-attribute 1-way counts projected from the published marginals.
    one_way: dict
    codecs: dict
    #: Encoded schema (includes auxiliary attributes such as ``tsdiff``).
    schema: Schema
    #: The raw input schema records are restored to after decoding.
    original_schema: Schema
    rules: list
    key_attr: str
    gum: GumConfig = field(default_factory=GumConfig)
    initialization: str = "gummi"
    n_init_marginals: int = 8
    #: GUM kernel preference frozen at fit time (``EngineConfig.kernel``):
    #: ``"auto"``, ``"fused"`` or ``"reference"``.  Both kernels are
    #: bit-exact, so this is a speed preference, never an output choice.
    kernel: str = "auto"

    @property
    def default_n(self) -> int:
        """The DP estimate of the record count (noisy consensus total)."""
        return max(int(round(self.published[0].total)), 1)

    # ------------------------------------------------------------- synthesis
    def run_shard(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        index: int = 0,
        kernel: str | None = None,
    ) -> ShardResult:
        """Initialize and GUM-synthesize ``n`` encoded records.

        ``kernel`` overrides the update-step kernel for this run (the engine
        ships a concrete, pre-resolved name to every shard); when omitted,
        the plan's frozen :attr:`kernel` preference applies.  Kernel choice
        never changes the output.
        """
        rng = ensure_rng(rng)
        timer = Timer()
        timer.start()
        if self.initialization == "gummi":
            data = marginal_initialization(
                self.published,
                self.one_way,
                self.attrs,
                self.domain,
                n,
                key_attr=self.key_attr,
                n_init=self.n_init_marginals,
                rng=rng,
            )
        else:
            data = random_initialization(self.one_way, self.attrs, n, rng)
        if kernel is None:
            kernel = self.kernel
        result = run_gum(
            data, self.published, self.attrs, self.domain, self.gum, rng, kernel=kernel
        )
        return ShardResult(
            index=index,
            data=result.data,
            errors=result.errors,
            iterations_run=result.iterations_run,
            seconds=timer.stop(),
            rng=rng,
            n_records=int(result.data.shape[0]),
        )

    def run_shard_decoded(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        decode_rng: np.random.Generator | int | None = None,
        index: int = 0,
        kernel: str | None = None,
    ) -> DecodedShard:
        """Synthesize ``n`` records and decode them in one worker-side step.

        ``decode_rng`` drives the shard's own decode stream (the engine
        derives it as ``SeedSequence`` child ``shards + index``); the encoded
        matrix stays local to the worker, only the decoded trace slice is
        returned.
        """
        timer = Timer()
        timer.start()
        shard = self.run_shard(n, rng, index=index, kernel=kernel)
        table = self.finalize(shard.data, decode_rng)
        return DecodedShard(
            index=index,
            table=table,
            errors=shard.errors,
            iterations_run=shard.iterations_run,
            seconds=timer.stop(),
            n_records=table.n_records,
        )

    # -------------------------------------------------------------- decoding
    def finalize(
        self, data: np.ndarray, rng: np.random.Generator | int | None = None
    ) -> TraceTable:
        """Decode encoded rows, reconstruct timestamps, restore the schema."""
        rng = ensure_rng(rng)
        table = decode_encoded(
            data, self.attrs, self.codecs, self.schema, rng, rules=self.rules
        )
        if TSDIFF in table.schema:
            tsdiff_codes = data[:, self.attrs.index(TSDIFF)]
            table = reconstruct_timestamps(
                table,
                tsdiff_codes=tsdiff_codes,
                tsdiff_codec=self.codecs[TSDIFF],
                rng=rng,
            )
        columns = {name: table.column(name) for name in self.original_schema.names}
        return TraceTable(self.original_schema, columns)


def shard_sizes(n: int, shards: int) -> list[int]:
    """Balanced split of ``n`` records over ``shards`` (sizes differ by <= 1)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base, remainder = divmod(n, shards)
    return [base + (1 if i < remainder else 0) for i in range(shards)]
