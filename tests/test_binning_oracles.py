"""Oracle tests for the binning pass: tsdiff grouping and frequency merging.

``oracle_tsdiff`` and ``oracle_merge_codec`` are the earlier bodies of
``compute_tsdiff`` (a dense group id per row, then one ``lexsort`` of every
row) and ``merge_codec`` (one array per kept bin, one scan of the low bins
per group key), kept verbatim as references.  The faster code must agree
with them bit for bit: tsdiff compared through ``view(np.int64)``, merged
codecs field by field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.binning import CategoricalCodec, IpCodec, LogNumericCodec, MergedCodec, PortCodec
from repro.binning import encoder as encoder_module
from repro.binning.encoder import DatasetEncoder, _tsdiff, compute_tsdiff
from repro.binning.frequency import merge_codec
from repro.data import FieldKind, FieldSpec, Schema, TraceTable


def oracle_tsdiff(table, key):
    ts = np.asarray(table.column("ts"), dtype=np.float64)
    groups = table.group_ids(key)
    order = np.lexsort((ts, groups))
    sorted_groups = groups[order]
    sorted_ts = ts[order]
    diffs = np.empty(len(ts))
    diffs[0] = 0.0
    if len(ts) > 1:
        diffs[1:] = sorted_ts[1:] - sorted_ts[:-1]
        new_group = sorted_groups[1:] != sorted_groups[:-1]
        diffs[1:][new_group] = 0.0
    out = np.empty(len(ts))
    out[order] = np.clip(diffs, 0.0, None)
    return out


def oracle_merge_codec(base, noisy_counts, threshold, min_bins=1):
    counts = np.asarray(noisy_counts, dtype=np.float64)
    if len(counts) != base.domain_size:
        raise ValueError("noisy_counts length must equal the base domain size")
    n = base.domain_size
    keys = base.coarse_keys()

    keep = counts >= threshold
    if keep.sum() < min_bins:
        order = np.argsort(counts)[::-1]
        keep = np.zeros(n, dtype=bool)
        keep[order[:min_bins]] = True

    base_to_merged = np.full(n, -1, dtype=np.int64)
    member_lists = []
    member_weights = []
    group_keys = []

    for b in np.nonzero(keep)[0]:
        base_to_merged[b] = len(member_lists)
        member_lists.append(np.array([b]))
        member_weights.append(np.array([max(counts[b], 0.0)]))
        group_keys.append(None)

    low = np.nonzero(~keep)[0]
    leftovers = []
    if len(low):
        low_keys = keys[low]
        for key in np.unique(low_keys):
            members = low[low_keys == key]
            group_total = counts[members].sum()
            if group_total >= threshold and len(members) > 1:
                complete = int((keys == key).sum()) == len(members)
                base_to_merged[members] = len(member_lists)
                member_lists.append(members)
                member_weights.append(np.clip(counts[members], 0.0, None))
                group_keys.append(key if complete else None)
            else:
                leftovers.extend(members.tolist())

    if leftovers:
        members = np.array(sorted(leftovers))
        base_to_merged[members] = len(member_lists)
        member_lists.append(members)
        member_weights.append(np.clip(counts[members], 0.0, None))
        group_keys.append(None)

    if (base_to_merged < 0).any():
        raise AssertionError("unassigned base bins after merging")
    return MergedCodec(base, base_to_merged, member_lists, member_weights, group_keys)


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_codec(got, want):
    assert got.base is want.base
    assert got.base_to_merged.dtype == want.base_to_merged.dtype
    assert np.array_equal(got.base_to_merged, want.base_to_merged)
    assert len(got.member_lists) == len(want.member_lists)
    for a, b in zip(got.member_lists, want.member_lists):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(got.member_weights, want.member_weights):
        assert a.shape == b.shape
        assert_bits_equal(a, b)
    assert [type(k) for k in got.group_keys] == [type(k) for k in want.group_keys]
    assert got.group_keys == want.group_keys


# ------------------------------------------------------------------- tsdiff
#: Timestamps from a small pool, so flows hold ties; negative and huge
#: values, infinities and NaN go through the same subtraction on both sides.
_TS = st.sampled_from([0.0, 1.0, 1.0, 2.5, -3.0, 7.25, 1e12, np.inf, np.nan])

_KEY_VALUES = {
    # Small-span integers, negatives included: shifted by the minimum.
    "int": st.integers(-4, 4),
    # Spans far wider than any table here: dense-ranked.
    "wide": st.sampled_from([-(2**62), -7, 0, 3, 2**40, 2**62]),
    "str": st.sampled_from(["", "a", "b", "TCP", "udp"]),
}


def _flow_table(kinds, rows, ts):
    fields, columns = [], {}
    for j, kind in enumerate(kinds):
        values = [row[j] for row in rows]
        name = f"k{j}"
        if kind == "str":
            fields.append(FieldSpec(name, FieldKind.CATEGORICAL, categories=tuple(set(values))))
            columns[name] = np.array(values, dtype=object)
        else:
            fields.append(FieldSpec(name, FieldKind.NUMERIC))
            columns[name] = np.array(values, dtype=np.int64)
    fields.append(FieldSpec("ts", FieldKind.TIMESTAMP))
    columns["ts"] = np.array(ts, dtype=np.float64)
    key = tuple(f"k{j}" for j in range(len(kinds)))
    return TraceTable(Schema(fields=tuple(fields), kind="flow", flow_key=key), columns), key


@st.composite
def _flow_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), min_size=1, max_size=4))
    # A small pool of flows makes most rows share one (the packet-trace
    # path); a large pool leaves most rows alone in their flow.
    pool = draw(st.lists(st.tuples(*(_KEY_VALUES[k] for k in kinds)), min_size=1, max_size=40))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    ts = draw(st.lists(_TS, min_size=len(rows), max_size=len(rows)))
    return _flow_table(kinds, rows, ts)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
class TestTsdiffOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=_flow_tables())
    def test_compute_tsdiff_matches_oracle(self, case):
        table, key = case
        assert_bits_equal(compute_tsdiff(table, key), oracle_tsdiff(table, key))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_wide_keys_force_the_densify_path(self, data):
        # 16 columns of up to n+1 shifted codes each: the mixed-radix key
        # would pass 2**63 unless the fold densifies on the way.
        n = data.draw(st.integers(40, 60))
        values = st.lists(st.integers(0, n), min_size=16, max_size=16)
        rows = data.draw(st.lists(values, min_size=n, max_size=n))
        rows[n // 2 :] = rows[: n - n // 2]  # repeat flows
        ts = data.draw(st.lists(_TS, min_size=n, max_size=n))
        table, key = _flow_table(("int",) * 16, rows, ts)
        assert_bits_equal(compute_tsdiff(table, key), oracle_tsdiff(table, key))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3), _TS), max_size=60
        )
    )
    def test_tsdiff_of_any_int64_key_matches_lexsort(self, data):
        key = np.array([k for k, _ in data], dtype=np.int64)
        ts = np.array([t for _, t in data], dtype=np.float64)
        order = np.lexsort((ts, key))
        want = np.zeros(len(ts))
        if len(ts):
            diffs = np.zeros(len(ts))
            diffs[1:] = ts[order][1:] - ts[order][:-1]
            diffs[1:][key[order][1:] != key[order][:-1]] = 0.0
            want[order] = np.clip(diffs, 0.0, None)
        assert_bits_equal(_tsdiff(ts, key), want)

    def test_tie_in_one_flow_gives_the_gap_to_the_earlier_row(self):
        table, key = _flow_table(("int",), [(1,), (2,), (1,), (1,)], [5.0, 0.0, 9.0, 9.0])
        got = compute_tsdiff(table, key)
        assert got.tolist() == [0.0, 0.0, 4.0, 0.0]
        assert_bits_equal(got, oracle_tsdiff(table, key))

    def test_empty_and_single_row(self):
        # The oracle indexes diffs[0] and so raises on an empty table.
        empty, key = _flow_table(("int", "str"), [], [])
        got = compute_tsdiff(empty, key)
        assert got.dtype == np.float64 and got.shape == (0,)
        one, key = _flow_table(("int", "str"), [(3, "a")], [np.nan])
        assert_bits_equal(compute_tsdiff(one, key), oracle_tsdiff(one, key))


@pytest.mark.parametrize("name", ["ton", "ugr16", "cidds", "caida", "dc"])
def test_fit_encode_matches_oracles(name, monkeypatch):
    """The fit's tsdiff (grouped from the pass's codes) and every merge it
    makes equal the oracles on each dataset."""
    table = load_dataset(name, n_records=3000, seed=11)
    tsdiffs, merges = [], []

    def tsdiff(ts, key):
        tsdiffs.append(_tsdiff(ts, key))
        return tsdiffs[-1]

    def merge(base, noisy, threshold, min_bins=1):
        merged = merge_codec(base, noisy, threshold, min_bins=min_bins)
        merges.append(merged)
        assert_same_codec(merged, oracle_merge_codec(base, noisy, threshold, min_bins))
        return merged

    monkeypatch.setattr(encoder_module, "_tsdiff", tsdiff)
    monkeypatch.setattr(encoder_module, "merge_codec", merge)
    DatasetEncoder().fit_encode(table, rho=0.05, rng=3)
    key = table.schema.effective_flow_key()
    (got,) = tsdiffs
    want = oracle_tsdiff(table, key)
    assert_bits_equal(got, want)
    assert_bits_equal(compute_tsdiff(table, key), want)
    assert len(merges) == len(table.schema.names) + 1


# ------------------------------------------------------------------ merging
def _base_codecs():
    rng = np.random.default_rng(5)
    addresses = np.unique(rng.integers(0, 64, size=40)) + (10 << 24)
    return [
        # Well-known singletons (negative keys) plus 8-bin coarse groups.
        PortCodec("port", common_max=6, bin_width=64, coarse_width=512),
        IpCodec("ip", addresses, prefix_len=30),
        LogNumericCodec.fit("pkt", np.arange(1, 2000)),
        CategoricalCodec("c", tuple("abcdefg")),
    ]


_BASES = _base_codecs()


@st.composite
def _merge_cases(draw):
    base = draw(st.sampled_from(_BASES))
    n = base.domain_size
    scale = draw(st.sampled_from([0.5, 5.0, 50.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    counts = np.random.default_rng(seed).normal(0.0, scale, size=n) + draw(
        st.sampled_from([0.0, scale, 3 * scale])
    )
    threshold = draw(st.sampled_from([-np.inf, 0.0, scale, 2 * scale, 10 * scale, np.inf]))
    min_bins = draw(st.integers(1, min(n, 12)))
    return base, counts, threshold, min_bins


class TestMergeOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_merge_cases())
    def test_matches_oracle(self, case):
        base, counts, threshold, min_bins = case
        assert_same_codec(
            merge_codec(base, counts, threshold, min_bins=min_bins),
            oracle_merge_codec(base, counts, threshold, min_bins),
        )

    @pytest.mark.parametrize("base", _BASES, ids=lambda b: b.name)
    @pytest.mark.parametrize(
        "threshold, min_bins",
        [(np.inf, 1), (np.inf, 5), (-np.inf, 1), (0.0, 1)],
        ids=["all-low", "all-low-min-bins", "all-kept", "negatives-low"],
    )
    def test_edge_regimes(self, base, threshold, min_bins):
        counts = np.random.default_rng(9).normal(0.0, 2.0, size=base.domain_size)
        assert_same_codec(
            merge_codec(base, counts, threshold, min_bins=min_bins),
            oracle_merge_codec(base, counts, threshold, min_bins),
        )
