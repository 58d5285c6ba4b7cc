"""Common interface for all synthesizers (NetDPSyn and baselines).

Every method shares the binning substrate (:class:`~repro.binning.encoder.
DatasetEncoder`) so utility differences in the experiments come from the
synthesis strategy, not from incidental encoding choices — mirroring how the
paper equalizes the privacy budget across methods.
"""

from __future__ import annotations

import abc

from repro.data.table import TraceTable
from repro.engine.plan import finalize_encoded


class BaselineSynthesizer(abc.ABC):
    """fit/sample contract shared with :class:`~repro.core.NetDPSyn`."""

    name: str = "baseline"

    @abc.abstractmethod
    def fit(self, table: TraceTable) -> "BaselineSynthesizer":
        """Consume the private trace."""

    @abc.abstractmethod
    def sample(self, n: int | None = None) -> TraceTable:
        """Generate a synthetic trace (post-processing only)."""

    def synthesize(self, table: TraceTable, n: int | None = None) -> TraceTable:
        """One-shot fit + sample."""
        return self.fit(table).sample(n)

    def _finalize(self, data, rng) -> TraceTable:
        """Decode sampled bins into a raw trace on NetDPSyn's decode path.

        Subclasses set ``encoder``, ``_template``, ``_original_schema`` and
        ``_rules`` in ``fit()``.
        """
        return finalize_encoded(
            data,
            self._template.attrs,
            self.encoder.codecs,
            self.encoder.schema,
            self._original_schema,
            rng,
            rules=self._rules,
        )
