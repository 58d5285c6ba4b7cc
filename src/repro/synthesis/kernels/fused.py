"""The fused GUM kernel: whole-step numpy passes over one marginal.

Restructures the reference per-cell loops into whole-step array operations
while consuming the random stream *exactly* like
:mod:`~repro.synthesis.kernels.reference` (see the RNG order contract in
:mod:`~repro.synthesis.kernels.base`), so its output is bit-identical:

- **per-step codes and counts** — a step reads only its own marginal, so it
  rebuilds that marginal's cell codes from ``data`` when it starts (a
  Horner fold over the marginal's 1-3 axes, no bounds checks) and its
  counts with one ``bincount``: O(n * axes) per step, with nothing kept
  between steps and no other marginal touched;
- **grouping** — cell codes are folded straight into ``uint16`` whenever
  the marginal has at most :data:`RADIX_MAX_CELLS` cells (every NetDPSyn
  marginal does: the largest ToN marginal has ~2.7k cells), which puts
  numpy's stable ``argsort`` on its O(n) radix path — bit-identical, since
  in-range codes keep their order in any integer dtype;
- **cell bounds** — the counts *are* the cell lengths of the grouped rows,
  so one ``cumsum`` over the marginal's cells gives every cell's segment
  start (no ``searchsorted`` over the ``n`` sorted codes);
- **free/refill** — one ``repeat``/``arange`` segment gather per pass
  instead of per-cell slicing, and one fancy-indexed write per pass instead
  of per-cell writes;
- **duplication draws** — the reference consumes one
  ``rng.integers(0, match, size=n_dup)`` call per refilled cell; a single
  ``rng.integers(0, bounds)`` call with the per-cell bounds repeated
  per-slot consumes the *identical* stream (PCG64 draws one bounded word per
  element either way — pinned by the parity suite against future numpy
  changes) at ~1/100th of the Python dispatch cost.

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

from repro.synthesis.kernels.base import GumKernel

#: Largest marginal size (cells) whose codes are ``uint16`` (radix grouping).
RADIX_MAX_CELLS = int(np.iinfo(np.uint16).max)


def _cell_codes(data: np.ndarray, axes: np.ndarray, shape: tuple) -> np.ndarray:
    """C-order cell code of every row over ``axes``, as a Horner fold.

    Equal to ``ravel_multi_index`` of the in-domain columns; ``uint16`` when
    the marginal has at most :data:`RADIX_MAX_CELLS` cells, else ``int64``.
    """
    dtype = np.uint16 if int(np.prod(shape)) <= RADIX_MAX_CELLS else np.int64
    codes = data[:, axes[0]].astype(dtype)
    for axis, size in zip(axes[1:], shape[1:]):
        codes *= int(size)
        np.add(codes, data[:, axis], out=codes, casting="unsafe")
    return codes


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
    """Single-pass grouping + draws over the stepped marginal's codes."""

    name = "fused"

    def step(self, data, states, k, alpha, config, rng):
        state = states[k]
        n = data.shape[0]
        codes = _cell_codes(data, state.axes, state.shape)
        cell_len = np.bincount(codes, minlength=state.target.size)
        diff = state.target - cell_len
        pre_error = float(np.abs(diff).sum()) / (2.0 * n)

        excess = np.clip(-diff, 0.0, None)
        deficit = np.clip(diff, 0.0, None)
        excess_total = excess.sum()
        deficit_total = deficit.sum()
        moves = int(round(alpha * min(excess_total, deficit_total)))
        if moves <= 0:
            return pre_error

        perm = rng.permutation(n)
        rows_by_cell = self._group_rows(codes, perm)
        # The counts are the cell lengths of the grouped rows.
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
        return pre_error

    def _group_rows(self, codes, perm):
        """Rows grouped by cell, stable in ``perm`` order.

        Any stable grouping is bit-equivalent to the reference's
        ``argsort(codes[perm], kind="stable")``; ``uint16`` codes take
        numpy's O(n) radix path.
        """
        return perm[np.argsort(codes[perm], kind="stable")]

    def _dup_offsets(self, rng, match, n_dup, dup_idx):
        """All per-cell duplication draws as one bounds-broadcast call.

        ``Generator.integers`` with an array of highs draws exactly one
        bounded word per element in element order — the same words, in the
        same order, as the reference's per-cell calls, leaving the generator
        in the identical state (pinned by ``tests/test_kernels.py``).
        """
        return rng.integers(0, np.repeat(match[dup_idx], n_dup[dup_idx]))
