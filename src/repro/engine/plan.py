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

from dataclasses import dataclass, field, replace

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
from repro.synthesis.kernels import FusedKernel
from repro.synthesis.timestamps import TSDIFF, reconstruct_timestamps
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


@dataclass
class ShardResult:
    """Output of one shard: its decoded trace slice plus GUM metadata."""

    index: int
    #: The shard's decoded records; ``None`` in the :meth:`meta` copies a
    #: merged run keeps, so shard tables never outlive the merge.
    table: TraceTable | None
    errors: list = field(default_factory=list)
    iterations_run: int = 0
    #: Wall-clock seconds of this shard (initialization + GUM + decode).
    seconds: float = 0.0
    n_records: int = 0
    #: The generator after decoding, set only when the shard decoded on its
    #: GUM stream (``decode_rng=None``).  A worker advanced a pickled copy,
    #: so the engine writes this state back into a caller-owned generator.
    rng: np.random.Generator | None = None

    def meta(self) -> "ShardResult":
        """The shard's payload-free metadata, for ``GumResult.shard_results``."""
        return replace(self, table=None, rng=None)


@dataclass
class SynthesisPlan:
    """All inputs of the sampling phase, frozen after ``fit()``.

    Instances are self-contained: :meth:`run_shard` synthesizes and decodes
    records, so a pickled plan is enough to generate records anywhere.
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

    @property
    def default_n(self) -> int:
        """The DP estimate of the record count (noisy consensus total)."""
        return max(int(round(self.published[0].total)), 1)

    # ------------------------------------------------------------- synthesis
    def run_shard(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        decode_rng: np.random.Generator | int | None = None,
        index: int = 0,
    ) -> ShardResult:
        """Initialize, GUM-synthesize and decode ``n`` records.

        ``decode_rng=None`` continues ``rng`` into decoding: the golden
        single stream, whose post-decode generator comes back as
        :attr:`ShardResult.rng`.  Sharded runs pass each shard its own decode
        stream (``SeedSequence`` child ``shards + index``).
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
        # Passed explicitly, not left to run_gum's default: perfbench's
        # timed_run_gum, rebound here, cannot resolve a ``None`` kernel.
        result = run_gum(
            data, self.published, self.attrs, self.domain, self.gum, rng,
            kernel=FusedKernel(),
        )
        table = self.finalize(result.data, rng if decode_rng is None else decode_rng)
        return ShardResult(
            index=index,
            table=table,
            errors=result.errors,
            iterations_run=result.iterations_run,
            seconds=timer.stop(),
            n_records=table.n_records,
            rng=rng if decode_rng is None else None,
        )

    def finalize(
        self, data: np.ndarray, rng: np.random.Generator | int | None = None
    ) -> TraceTable:
        """Decode encoded rows, reconstruct timestamps, restore the schema."""
        return finalize_encoded(
            data,
            self.attrs,
            self.codecs,
            self.schema,
            self.original_schema,
            rng,
            rules=self.rules,
        )


def finalize_encoded(
    data: np.ndarray,
    attrs: tuple,
    codecs: dict,
    schema: Schema,
    original_schema: Schema,
    rng: np.random.Generator | int | None = None,
    rules: list | None = None,
) -> TraceTable:
    """Decode encoded rows, reconstruct timestamps, restore the raw schema.

    The one decode path of NetDPSyn and the baselines.  ``decode_encoded``
    and ``reconstruct_timestamps`` are looked up in this module at call
    time, so rebinding them here times (or replaces) every release's decode.
    """
    rng = ensure_rng(rng)
    table = decode_encoded(data, attrs, codecs, schema, rng, rules=rules)
    if TSDIFF in table.schema:
        table = reconstruct_timestamps(
            table,
            tsdiff_codes=data[:, attrs.index(TSDIFF)],
            tsdiff_codec=codecs[TSDIFF],
            rng=rng,
        )
    columns = {name: table.column(name) for name in original_schema.names}
    return TraceTable(original_schema, columns)


def shard_sizes(n: int, shards: int) -> list[int]:
    """Balanced split of ``n`` records over ``shards`` (sizes differ by <= 1)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base, remainder = divmod(n, shards)
    return [base + (1 if i < remainder else 0) for i in range(shards)]
