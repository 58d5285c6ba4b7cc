"""Frequency-dependent binning (paper §3.2, second round).

After type-dependent binning, bins whose *noisy* counts fall below a
threshold are aggregated — first into their structural groups (the codec's
``coarse_keys``: /30 prefixes for IPs, wider port ranges, doubled log bins),
then any groups still below threshold into a single rare bin.  Because the
decision is taken on Gaussian-noised counts, the merge itself leaks nothing
beyond the 0.1·rho spent publishing those counts.
"""

from __future__ import annotations

import numpy as np

from repro.binning.base import AttributeCodec, MergedCodec


def merge_codec(
    base: AttributeCodec,
    noisy_counts: np.ndarray,
    threshold: float,
    min_bins: int = 1,
) -> MergedCodec:
    """Merge low-count bins of ``base`` under the noisy ``noisy_counts``.

    Parameters
    ----------
    base:
        The type-dependent codec whose bins are being merged.
    noisy_counts:
        Noisy 1-way marginal over the base bins (length ``base.domain_size``).
    threshold:
        Bins with noisy count below this are merged; typically a small
        multiple of the Gaussian noise scale.
    min_bins:
        Guard: never merge below this many bins (the label attribute must
        keep its categories even when some are rare).
    """
    counts = np.asarray(noisy_counts, dtype=np.float64)
    if len(counts) != base.domain_size:
        raise ValueError("noisy_counts length must equal the base domain size")
    n = base.domain_size
    keys = base.coarse_keys()

    keep = counts >= threshold
    if keep.sum() < min_bins:
        # Keep the largest min_bins bins regardless of threshold.
        order = np.argsort(counts)[::-1]
        keep = np.zeros(n, dtype=bool)
        keep[order[:min_bins]] = True

    # 1. Kept bins stay singletons.
    kept = np.flatnonzero(keep)
    base_to_merged = np.full(n, -1, dtype=np.int64)
    base_to_merged[kept] = np.arange(len(kept))
    member_lists = list(kept[:, None])
    member_weights = list(np.maximum(counts[kept], 0.0)[:, None])
    group_keys: list = [None] * len(kept)

    # 2. Low bins aggregate by structural group.  A group key is recorded
    # (enabling whole-range decode, e.g. any address of a /30 block) only
    # when *every* base bin of that group was merged — otherwise decoding
    # over the full range would leak mass into bins kept as singletons.
    # One stable sort lines the low bins up by group, in bin order within it.
    low = np.flatnonzero(~keep)
    low = low[np.argsort(keys[low], kind="stable")]
    low_keys = keys[low]
    cuts = np.flatnonzero(low_keys[1:] != low_keys[:-1]) + 1
    starts, ends = np.r_[0, cuts], np.r_[cuts, len(low)]
    all_keys, key_sizes = np.unique(keys, return_counts=True)
    leftover = np.ones(len(low), dtype=bool)
    # A one-bin group never merges, so only wider groups are visited.
    for g in np.flatnonzero(ends - starts > 1):
        members = low[starts[g] : ends[g]]
        if counts[members].sum() >= threshold:
            key = low_keys[starts[g]]
            complete = key_sizes[np.searchsorted(all_keys, key)] == len(members)
            base_to_merged[members] = len(member_lists)
            member_lists.append(members)
            member_weights.append(np.clip(counts[members], 0.0, None))
            group_keys.append(key if complete else None)
            leftover[starts[g] : ends[g]] = False

    # 3. Whatever remains becomes one rare bin (incoherent: member sampling).
    if leftover.any():
        members = np.sort(low[leftover])
        base_to_merged[members] = len(member_lists)
        member_lists.append(members)
        member_weights.append(np.clip(counts[members], 0.0, None))
        group_keys.append(None)

    if (base_to_merged < 0).any():
        raise AssertionError("unassigned base bins after merging")
    return MergedCodec(base, base_to_merged, member_lists, member_weights, group_keys)


def aggregate_counts(merged: MergedCodec, base_counts: np.ndarray) -> np.ndarray:
    """Re-aggregate per-base-bin counts onto the merged bins.

    Used to reuse the already-published noisy 1-way marginals after
    frequency merging without spending more budget (post-processing).
    """
    base_counts = np.asarray(base_counts, dtype=np.float64)
    out = np.zeros(merged.domain_size)
    np.add.at(out, merged.base_to_merged, base_counts)
    return out
