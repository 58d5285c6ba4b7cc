"""The fused GUM kernel: whole-step numpy passes over fused per-run state.

Restructures the reference per-cell loops into whole-step array operations
while consuming the random stream *exactly* like
:mod:`~repro.synthesis.kernels.reference` (see the RNG order contract in
:mod:`~repro.synthesis.kernels.base`), so its output is bit-identical:

- **cached codes and counts** — every marginal's cell codes live in one
  row-major ``(n, M)`` arena (``n`` records by ``M`` marginals; marginal
  ``k`` reads the column view ``codes[:, k]``) and its counts in one flat
  arena with per-marginal offsets, built once per run and patched only for
  the rows a step rewrites;
- **grouping** — cell codes are cast to ``uint16`` whenever the marginal has
  at most :data:`RADIX_MAX_CELLS` cells (every NetDPSyn marginal does: the
  largest ToN marginal has ~2.7k cells), which flips numpy's stable
  ``argsort`` onto its O(n) radix path — bit-identical, since casting
  in-range codes preserves order exactly;
- **cell bounds** — the cached counts *are* the cell lengths of the grouped
  rows, so one ``cumsum`` over the marginal's cells gives every cell's
  segment start (no ``searchsorted`` over the ``n`` sorted codes);
- **free/refill** — one ``repeat``/``arange`` segment gather per pass
  instead of per-cell slicing, and one fancy-indexed write per pass instead
  of per-cell writes;
- **duplication draws** — the reference consumes one
  ``rng.integers(0, match, size=n_dup)`` call per refilled cell; a single
  ``rng.integers(0, bounds)`` call with the per-cell bounds repeated
  per-slot consumes the *identical* stream (PCG64 draws one bounded word per
  element either way — pinned by the parity suite against future numpy
  changes) at ~1/100th of the Python dispatch cost;
- **touched-key patch** — the new codes of the freed rows for *every*
  marginal come from one BLAS matmul against an ``(attrs, M)`` stride matrix
  (float64 products of in-domain codes are < 2^53, so the round-trip through
  float is exact); the old codes are one row gather ``codes[freed]``, the
  write-back one row scatter, and the counts are patched by ``subtract.at``
  / ``add.at`` over only the touched keys, two per freed row and marginal
  (integer deltas on float64 counts are exact, so the cached counts equal a
  fresh ``bincount``).  A step thus costs what it moves, not the arena size.

The free/refill writes commute with the reference's sequential per-cell
writes: freed rows come from over-full cells and duplication sources from
under-full cells, the two cell sets are disjoint (``excess > 0`` vs
``deficit > 0``), so no source row is ever written within a step and the
freed slots partition exactly.

On the 50k-record ToN workload the kernel runs >= 3x faster than
``reference`` single-core (the gate in ``benchmarks/bench_engine_scaling.py``).
"""

from __future__ import annotations

import numpy as np

from repro.marginals.compute import cell_codes
from repro.synthesis.kernels.base import GumKernel

#: Largest marginal size (cells) that still groups via uint16 radix sort.
RADIX_MAX_CELLS = int(np.iinfo(np.uint16).max)


def _strides_for(shape: tuple) -> np.ndarray:
    """C-order ravel strides of a marginal's cell grid."""
    strides = np.ones(len(shape), dtype=np.int64)
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    return strides


def _segment_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + lengths[i])`` ranges, vectorized.

    The bulk equivalent of ``np.concatenate([arange(s, s + l) ...])`` built
    from ``np.repeat`` + one ``arange`` — the gather primitive behind the
    free/refill passes.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    seg_offsets = np.cumsum(lengths) - lengths
    base = np.repeat(np.asarray(starts, dtype=np.int64) - seg_offsets, lengths)
    return base + np.arange(total, dtype=np.int64)


class FusedKernel(GumKernel):
    """Single-pass grouping + draws + count patch over fused per-run state."""

    name = "fused"
    uses_cache = True

    def prepare(self, data, states):
        """Build the fused per-run state: ``(n, M)`` code arena, counts, strides.

        Each marginal's ``codes``/``counts`` are bound to views into the
        fused storage (``codes[:, k]`` and a slice of the counts arena), so
        :meth:`step` reads the per-marginal caches while :meth:`_apply_updates`
        patches them all at once.
        """
        n, n_attrs = data.shape
        m = len(states)
        sizes = np.array([state.target.size for state in states], dtype=np.int64)
        offsets = np.zeros(m, dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        codes = np.empty((n, m), dtype=np.int64)
        counts = np.zeros(int(sizes.sum()), dtype=np.float64)
        strides = np.zeros((n_attrs, m), dtype=np.float64)
        for k, state in enumerate(states):
            state.codes = codes[:, k]
            state.codes[...] = cell_codes(data[:, state.axes], state.shape)
            view = counts[offsets[k] : offsets[k] + sizes[k]]
            view[...] = np.bincount(state.codes, minlength=int(sizes[k]))
            state.counts = view
            strides[state.axes, k] = _strides_for(state.shape)
        self._codes = codes
        self._counts = counts
        self._offsets = offsets
        self._strides = strides

    def step(self, data, states, k, alpha, config, rng):
        state = states[k]
        n = data.shape[0]
        diff = state.target - state.counts
        pre_error = float(np.abs(diff).sum()) / (2.0 * n)

        excess = np.clip(-diff, 0.0, None)
        deficit = np.clip(diff, 0.0, None)
        excess_total = excess.sum()
        deficit_total = deficit.sum()
        moves = int(round(alpha * min(excess_total, deficit_total)))
        if moves <= 0:
            return pre_error

        perm = rng.permutation(n)
        rows_by_cell = self._group_rows(state.codes, perm, state.target.size)
        # The cached counts are the cell lengths of the grouped rows.
        cell_len = state.counts.astype(np.int64)
        cell_lo = np.cumsum(cell_len) - cell_len

        # --- free rows from over-represented cells (one pass) --------------
        over_cells = np.nonzero(excess > 0)[0]
        over_quota = rng.multinomial(moves, excess[over_cells] / excess_total)
        cap = np.where(
            excess[over_cells] >= 1.0,
            np.minimum(over_quota, np.floor(excess[over_cells]).astype(np.int64)),
            over_quota,
        )
        take = np.minimum(cap, cell_len[over_cells])
        if int(take.sum()) <= 0:
            return pre_error
        freed = rows_by_cell[_segment_gather(cell_lo[over_cells], take)]
        rng.shuffle(freed)

        # --- refill freed rows for under-represented cells (one pass) ------
        under_cells = np.nonzero(deficit > 0)[0]
        fill_quota = rng.multinomial(len(freed), deficit[under_cells] / deficit_total)
        nz = fill_quota > 0
        cells_nz = under_cells[nz]
        quota_nz = fill_quota[nz].astype(np.int64)
        lo_u = cell_lo[cells_nz]
        match = cell_len[cells_nz]
        # round() and np.rint both round half to even, so the per-cell split
        # equals the reference's int(round(quota * fraction)).
        n_dup = np.where(
            match > 0,
            np.minimum(
                np.rint(quota_nz * config.duplicate_fraction).astype(np.int64), quota_nz
            ),
            0,
        )
        seg_start = np.cumsum(quota_nz) - quota_nz

        dup_slots = _segment_gather(seg_start, n_dup)
        if len(dup_slots):
            dup_idx = np.nonzero(n_dup > 0)[0]
            offsets = self._dup_offsets(rng, match, n_dup, dup_idx)
            lo_per = np.repeat(lo_u, n_dup)
            sources = rows_by_cell[lo_per + offsets]
            data[freed[dup_slots]] = data[sources]

        repl_slots = _segment_gather(seg_start + n_dup, quota_nz - n_dup)
        if len(repl_slots):
            cell_per = np.repeat(cells_nz, quota_nz - n_dup)
            coords = np.unravel_index(cell_per, state.shape)
            rows_repl = freed[repl_slots]
            for axis, values in zip(state.axes, coords):
                data[rows_repl, axis] = values

        # --- incremental count/code maintenance for every marginal ----------
        self._apply_updates(data, states, freed)
        return pre_error

    def _group_rows(self, codes, perm, size):
        """Rows grouped by cell, stable in ``perm`` order.

        Any stable grouping is bit-equivalent to the reference's
        ``argsort(codes[perm], kind="stable")``.
        """
        cp = codes[perm]
        if size <= RADIX_MAX_CELLS:
            # uint16 keys take numpy's O(n) radix path; in-range casting is
            # order-preserving, so the stable grouping is bit-identical.
            order = np.argsort(cp.astype(np.uint16), kind="stable")
        else:  # pragma: no cover - no shipped marginal exceeds 65535 cells
            order = np.argsort(cp, kind="stable")
        return perm[order]

    def _dup_offsets(self, rng, match, n_dup, dup_idx):
        """All per-cell duplication draws as one bounds-broadcast call.

        ``Generator.integers`` with an array of highs draws exactly one
        bounded word per element in element order — the same words, in the
        same order, as the reference's per-cell calls, leaving the generator
        in the identical state (pinned by ``tests/test_kernels.py``).
        """
        return rng.integers(0, np.repeat(match[dup_idx], n_dup[dup_idx]))

    def _apply_updates(self, data, states, freed):
        """Patch every marginal's cached codes/counts for the rewritten rows."""
        # One matmul re-codes the freed rows for every marginal: exact,
        # because every product and partial sum is an integer < 2^53.
        new_codes = (data[freed].astype(np.float64) @ self._strides).astype(np.int64)
        np.subtract.at(self._counts, self._codes[freed] + self._offsets, 1.0)
        np.add.at(self._counts, new_codes + self._offsets, 1.0)
        self._codes[freed] = new_codes
