"""Dataset encoder: orchestrates type- and frequency-dependent binning.

``DatasetEncoder.fit_encode`` implements lines 1–4 of the paper's Algorithm 1:

1. build a type-dependent codec per attribute;
2. add the auxiliary ``tsdiff`` attribute (group-wise inter-arrival deltas);
3. publish noisy 1-way marginals with the binning budget (0.1·rho);
4. merge low-noisy-count bins (frequency-dependent binning).

It returns the fitted trace as an integer matrix over the merged domain;
``encode`` maps any other trace the same way and ``decode`` samples raw
values back out of bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.binning.base import AttributeCodec
from repro.binning.categorical import CategoricalCodec
from repro.binning.frequency import aggregate_counts, merge_codec
from repro.binning.ip import IpCodec
from repro.binning.numeric import LogNumericCodec
from repro.binning.port import PortCodec
from repro.binning.timestamp import TimestampCodec
from repro.data.domain import Domain
from repro.data.schema import FieldKind, FieldSpec, Schema
from repro.data.table import TraceTable, fold_key, key_codes
from repro.dp.mechanisms import gaussian_mechanism, gaussian_sigma
from repro.utils.rng import ensure_rng

TSDIFF = "tsdiff"
# Inter-arrival gaps are binned in milliseconds (paper App. E: "ts and td
# are in milliseconds"); seconds would crush them into bin 0.
TSDIFF_SPEC = FieldSpec(TSDIFF, FieldKind.NUMERIC, integral=False, unit_scale=1000.0)


@dataclass
class EncoderConfig:
    """Knobs of the binning stage; defaults follow the paper."""

    ip_prefix_len: int = 30
    port_common_max: int = 1024
    port_bin_width: int = 10
    port_coarse_width: int = 640
    log_bin_width: float = 0.5
    ts_windows: int = 128
    freq_threshold_sigmas: float = 3.0
    add_tsdiff: bool = True
    #: Attributes never merged below their full category set (labels).
    protect_labels: bool = True


@dataclass
class EncodedDataset:
    """An encoded trace: integer matrix + the codecs that produced it."""

    data: np.ndarray  # (n, d) int32
    attrs: tuple
    domain: Domain
    codecs: dict
    schema: Schema  # schema *including* auxiliary attributes

    @property
    def n_records(self) -> int:
        return self.data.shape[0]

    def column(self, attr: str) -> np.ndarray:
        """One encoded column."""
        return self.data[:, self.attrs.index(attr)]

    def project(self, attrs) -> np.ndarray:
        """Sub-matrix over ``attrs`` in the given order."""
        idx = [self.attrs.index(a) for a in attrs]
        return self.data[:, idx]

    def replace_data(self, data: np.ndarray) -> "EncodedDataset":
        """Same codecs/domain, different rows (used by the synthesizers)."""
        data = np.asarray(data, dtype=np.int32)
        if data.ndim != 2 or data.shape[1] != len(self.attrs):
            raise ValueError("data shape does not match attrs")
        return EncodedDataset(data, self.attrs, self.domain, self.codecs, self.schema)


class DatasetEncoder:
    """Fits per-attribute codecs and encodes/decodes traces."""

    def __init__(self, config: EncoderConfig | None = None) -> None:
        self.config = config or EncoderConfig()
        self.codecs: dict[str, AttributeCodec] = {}
        self.schema: Schema | None = None
        self.noisy_one_way: dict[str, np.ndarray] = {}
        self.rho_spent: float = 0.0

    # ------------------------------------------------------------------- fit
    def fit(
        self,
        table: TraceTable,
        rho: float | None,
        rng: np.random.Generator | int | None = None,
    ) -> "DatasetEncoder":
        """Fit codecs on ``table`` (see :meth:`fit_encode`), dropping the matrix."""
        self.fit_encode(table, rho, rng)
        return self

    def fit_encode(
        self,
        table: TraceTable,
        rho: float | None,
        rng: np.random.Generator | int | None = None,
    ) -> EncodedDataset:
        """Fit codecs on ``table`` and return it encoded, in one pass.

        ``rho`` is the binning budget (0.1·total); ``rho=None`` runs without
        noise (exact counts, no privacy) — used by ablations and tests only.
        Each column is fitted and base-coded once, straight into a
        column-major int32 matrix, histogrammed for its noisy 1-way (noise
        drawn in attribute order), merged, then remapped in place onto the
        merged bins — the same matrix ``fit`` followed by ``encode`` builds.
        tsdiff groups flows by the key columns' codes from this pass.
        """
        rng = ensure_rng(rng)
        cfg = self.config
        key = self._tsdiff_key(table)
        schema = table.schema
        if key and TSDIFF not in schema:
            schema = schema.with_field(TSDIFF_SPEC)
        self.schema = schema
        data = np.empty((table.n_records, len(schema.names)), dtype=np.int32, order="F")
        rho_per_attr = None if rho is None else rho / len(schema.names)
        self.rho_spent = 0.0 if rho is None else rho
        self.codecs = {}
        self.noisy_one_way = {}
        key_parts = {}
        for j, spec in enumerate(schema):
            if key and spec.name == TSDIFF:
                flows = fold_key(
                    [key_parts.pop(name, None) or key_codes(table.column(name)) for name in key]
                )
                values = _tsdiff(np.asarray(table.column("ts"), dtype=np.float64), flows)
            else:
                values = table.column(spec.name)
            if spec.kind is FieldKind.IP:  # one sort: the observed set and every code
                observed, codes = np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)
                base = IpCodec(spec.name, observed, prefix_len=cfg.ip_prefix_len)
            else:
                base = self._build_codec(spec, values)
                codes = base.encode(values)
            if spec.name in key:
                injective = spec.kind in (FieldKind.IP, FieldKind.CATEGORICAL)
                key_parts[spec.name] = (codes, base.domain_size) if injective else key_codes(values)
            exact = np.bincount(codes, minlength=base.domain_size).astype(np.float64)
            if rho_per_attr is None:
                noisy = exact
                threshold = 1.0
            else:
                noisy = gaussian_mechanism(exact, 1.0, rho_per_attr, rng)
                sigma = gaussian_sigma(1.0, rho_per_attr)
                threshold = cfg.freq_threshold_sigmas * sigma
            min_bins = base.domain_size if (spec.is_label and cfg.protect_labels) else 1
            if spec.kind is FieldKind.CATEGORICAL and base.domain_size <= 16:
                # Small categorical domains are not binned (paper type 3).
                min_bins = base.domain_size
            merged = merge_codec(base, noisy, threshold, min_bins=min_bins)
            data[:, j] = merged.base_to_merged[codes]
            self.codecs[spec.name] = merged
            self.noisy_one_way[spec.name] = aggregate_counts(merged, noisy)
        return self._encoded(data)

    def _tsdiff_key(self, table: TraceTable) -> tuple:
        """The flow key tsdiff groups by, or ``()`` when tsdiff is not added."""
        if not self.config.add_tsdiff or "ts" not in table.schema:
            return ()
        return table.schema.effective_flow_key()

    def _augment(self, table: TraceTable) -> TraceTable:
        """Append the tsdiff auxiliary attribute when configured and possible."""
        key = self._tsdiff_key(table)
        return table.with_column(TSDIFF, compute_tsdiff(table, key), TSDIFF_SPEC) if key else table

    def _build_codec(self, spec: FieldSpec, values: np.ndarray) -> AttributeCodec:
        cfg = self.config
        if spec.kind is FieldKind.PORT:
            return PortCodec(
                spec.name,
                common_max=cfg.port_common_max,
                bin_width=cfg.port_bin_width,
                coarse_width=cfg.port_coarse_width,
            )
        if spec.kind is FieldKind.CATEGORICAL:
            return CategoricalCodec(spec.name, spec.categories)
        if spec.kind is FieldKind.TIMESTAMP:
            return TimestampCodec.fit(spec.name, values, n_windows=cfg.ts_windows)
        if spec.kind is FieldKind.NUMERIC:
            return LogNumericCodec.fit(
                spec.name,
                values,
                bin_width=cfg.log_bin_width,
                integral=spec.integral,
                scale=spec.unit_scale,
            )
        raise ValueError(f"unsupported field kind: {spec.kind}")

    # ---------------------------------------------------------------- encode
    def encode(self, table: TraceTable) -> EncodedDataset:
        """Encode a trace (augmenting with tsdiff) into the merged domain."""
        if self.schema is None:
            raise RuntimeError("encoder not fitted")
        work = self._augment(table) if TSDIFF not in table.schema else table
        attrs = self.schema.names
        data = np.empty((work.n_records, len(attrs)), dtype=np.int32, order="F")
        for j, name in enumerate(attrs):
            data[:, j] = self.codecs[name].encode(work.column(name))
        return self._encoded(data)

    def _encoded(self, data: np.ndarray) -> EncodedDataset:
        attrs = tuple(self.schema.names)
        sizes = {name: self.codecs[name].domain_size for name in attrs}
        return EncodedDataset(data, attrs, Domain(sizes), dict(self.codecs), self.schema)

    # ---------------------------------------------------------------- decode
    def decode(
        self,
        encoded: EncodedDataset,
        rng: np.random.Generator | int | None = None,
    ) -> TraceTable:
        """Sample raw values for every encoded record (paper's in-bin sampling).

        Timestamp reconstruction from tsdiff is handled separately by
        :mod:`repro.synthesis.timestamps`; here ``ts`` decodes uniformly
        within its window.
        """
        if self.schema is None:
            raise RuntimeError("encoder not fitted")
        columns = decode_columns(encoded.data, encoded.attrs, self.codecs, rng)
        return TraceTable(self.schema, columns)


def decode_columns(
    data: np.ndarray,
    attrs: tuple,
    codecs: dict,
    rng: np.random.Generator | int | None = None,
) -> dict:
    """In-bin sample raw values for every attribute, in attribute order.

    The single implementation of the decode loop: both
    :meth:`DatasetEncoder.decode` and the engine's plan decoding go through
    it, so the random-stream consumption (one ``decode_bins`` call per
    attribute) can never drift between the two paths.
    """
    rng = ensure_rng(rng)
    columns = {}
    for j, name in enumerate(attrs):
        columns[name] = codecs[name].decode_bins(data[:, j], rng)
    return columns


def compute_tsdiff(table: TraceTable, key) -> np.ndarray:
    """Group-wise inter-arrival deltas (paper §3.2 'Capturing temporal pattern').

    Records are grouped by the flow identifier ``key``; within each group the
    time-ordered difference to the previous record is computed.  The first
    record of each group gets 0.
    """
    ts = np.asarray(table.column("ts"), dtype=np.float64)
    return _tsdiff(ts, fold_key([key_codes(table.column(name)) for name in key]))


def _tsdiff(ts: np.ndarray, key: np.ndarray) -> np.ndarray:
    """:func:`compute_tsdiff` of ``ts`` over a flow ``key`` (equal exactly within a flow).

    Records alone in their flow get 0 unsorted.  The rest are sorted by
    ``(key, ts)`` from row order, so ties in ``ts`` break exactly as in
    ``np.lexsort((ts, key))``: the earlier row takes the gap, the later 0.
    """
    out = np.zeros(len(ts))
    rows = np.argsort(key)
    repeat = key[rows[1:]] == key[rows[:-1]]
    shared = np.zeros(len(ts), dtype=bool)  # by sorted position
    shared[1:] = repeat
    shared[:-1] |= repeat
    if 2 * np.count_nonzero(shared) > len(ts):
        # Mostly multi-record flows (packet traces): one sort of every row.
        order = np.lexsort((ts, key))
    else:
        rows = np.sort(rows[shared])  # back in row order, for the tie rule
        order = rows[np.lexsort((ts[rows], key[rows]))]
    sorted_ts = ts[order]
    sorted_key = key[order]
    diffs = np.zeros(len(order))
    diffs[1:] = sorted_ts[1:] - sorted_ts[:-1]
    diffs[1:][sorted_key[1:] != sorted_key[:-1]] = 0.0
    out[order] = np.clip(diffs, 0.0, None)
    return out
