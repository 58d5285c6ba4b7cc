"""Tests for the contiguous columnar arena (:mod:`repro.data.arena`).

The arena is the wire form of a table's buffer layout — everything else in
the data plane (shm descriptors, concat stitching, the Arrow wrap) builds on
the contract pinned here: ``from_arena(to_arena(t))`` is digest-identical to
``t`` for every dtype and schema shape, raw columns reconstruct as zero-copy
views, and the :data:`~repro.data.arena.copy_stats` ledger observes exactly
the byte movements it claims to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.arena import (
    ARENA_ALIGN,
    SLOT_DICT,
    SLOT_PICKLE,
    SLOT_RAW,
    copy_stats,
    plan_layout,
)
from repro.data.schema import FieldKind, FieldSpec, Schema
from repro.data.table import TraceTable


def _spec(name: str, kind=FieldKind.NUMERIC, categories=None) -> FieldSpec:
    return FieldSpec(name=name, kind=kind, categories=categories)


_COLUMN_KINDS = (
    "int64",
    "int32",
    "uint16",
    "float64",
    "float32",
    "bool",
    "fixed_str",
    "object_str",
    "object_mixed",
)


def _make_column(kind: str, n: int, rng: np.random.Generator):
    if kind == "int64":
        return rng.integers(-(2**40), 2**40, size=n)
    if kind == "int32":
        return rng.integers(0, 2**20, size=n).astype(np.int32)
    if kind == "uint16":
        return rng.integers(0, 2**16, size=n).astype(np.uint16)
    if kind == "float64":
        return rng.standard_normal(n)
    if kind == "float32":
        return rng.standard_normal(n).astype(np.float32)
    if kind == "bool":
        return rng.integers(0, 2, size=n).astype(bool)
    if kind == "fixed_str":
        return np.array([f"v{int(v)}" for v in rng.integers(0, 50, size=n)])
    if kind == "object_str":
        choices = np.array(["tcp", "udp", "icmp", "-"], dtype=object)
        return choices[rng.integers(0, len(choices), size=n)]
    if kind == "object_mixed":
        # Unorderable mix: forces the pickle fallback slot.
        pool = [1, "one", 2.5, None]
        return np.array([pool[int(i)] for i in rng.integers(0, 4, size=n)], dtype=object)
    raise AssertionError(kind)


@st.composite
def _tables(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(min_value=0, max_value=120))
    kinds = draw(
        st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=6)
    )
    columns = {}
    specs = []
    for i, kind in enumerate(kinds):
        name = f"c{i}_{kind}"
        columns[name] = _make_column(kind, n, rng)
        specs.append(_spec(name))
    return TraceTable(Schema(kind="flow", fields=tuple(specs)), columns)


class TestArenaRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(table=_tables())
    def test_round_trip_is_digest_identical(self, table):
        restored = TraceTable.from_arena(table.to_arena())
        assert restored.content_digest() == table.content_digest()

    @settings(max_examples=20, deadline=None)
    @given(table=_tables())
    def test_round_trip_preserves_dtypes_and_length(self, table):
        restored = TraceTable.from_arena(table.to_arena())
        assert restored.n_records == table.n_records
        for name in table.schema.names:
            assert restored.column(name).dtype == table.column(name).dtype

    def test_raw_columns_are_views_over_the_buffer(self):
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("a"), _spec("b"))),
            {"a": np.arange(100, dtype=np.int64), "b": np.ones(100)},
        )
        arena = table.to_arena()
        restored = arena.to_table()
        for name in ("a", "b"):
            assert restored.column(name).base is not None
            assert np.shares_memory(restored.column(name), arena.buffer)

    def test_slot_kinds_and_alignment(self):
        rng = np.random.default_rng(1)
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("num"), _spec("cat"), _spec("mix"))),
            {
                "num": np.arange(50, dtype=np.int64),
                "cat": _make_column("object_str", 50, rng),
                "mix": _make_column("object_mixed", 50, rng),
            },
        )
        slots, nbytes, _, extras = plan_layout(table)
        by_name = {slot.name: slot for slot in slots}
        assert by_name["num"].kind == SLOT_RAW
        assert by_name["cat"].kind == SLOT_DICT
        assert by_name["mix"].kind == SLOT_PICKLE
        for slot in slots:
            if slot.kind != SLOT_PICKLE:
                assert slot.offset % ARENA_ALIGN == 0
        assert "cat" in extras and "mix" in extras

    def test_dict_slot_payload_is_four_bytes_per_row(self):
        rng = np.random.default_rng(2)
        n = 1000
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("cat"),)),
            {"cat": _make_column("object_str", n, rng)},
        )
        slots, nbytes, _, _ = plan_layout(table)
        assert slots[0].kind == SLOT_DICT
        assert nbytes == 4 * n

    def test_empty_table_round_trips(self):
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("a"),)), {"a": np.array([], dtype=np.int64)}
        )
        restored = TraceTable.from_arena(table.to_arena())
        assert restored.n_records == 0
        assert restored.content_digest() == table.content_digest()


class TestCopyStats:
    def test_arena_alloc_tracks_high_water_mark(self):
        copy_stats.reset()
        base = copy_stats.snapshot()["arena_bytes_in_use"]
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("a"),)),
            {"a": np.arange(10_000, dtype=np.int64)},
        )
        arena = table.to_arena()
        snap = copy_stats.snapshot()
        assert snap["arena_bytes_in_use"] == base + arena.nbytes
        assert snap["arena_bytes_peak"] >= base + arena.nbytes
        del arena
        import gc

        gc.collect()
        assert copy_stats.snapshot()["arena_bytes_in_use"] == base

    def test_pickle_slot_bytes_are_counted(self):
        rng = np.random.default_rng(3)
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("mix"),)),
            {"mix": _make_column("object_mixed", 40, rng)},
        )
        arena = table.to_arena()
        assert arena.pickled_column_bytes() > 0

    def test_concat_all_stitches_into_one_arena(self):
        copy_stats.reset()
        before = copy_stats.snapshot()["stitch_bytes"]
        parts = [
            TraceTable(
                Schema(kind="flow", fields=(_spec("a"), _spec("b"))),
                {
                    "a": np.arange(500, dtype=np.int64) + i,
                    "b": np.ones(500) * i,
                },
            )
            for i in range(4)
        ]
        merged = TraceTable.concat_all(parts)
        assert merged.n_records == 2000
        # Both columns are views over the same stitched buffer.
        assert np.shares_memory(merged.column("a").base, merged.column("b").base)
        stitched = copy_stats.snapshot()["stitch_bytes"] - before
        assert stitched == 2000 * 8 * 2
        expected = np.concatenate([p.column("a") for p in parts])
        assert np.array_equal(merged.column("a"), expected)

    def test_reset_does_not_zero_live_arenas(self):
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("a"),)),
            {"a": np.arange(10_000, dtype=np.int64)},
        )
        arena = table.to_arena()
        copy_stats.reset()
        snap = copy_stats.snapshot()
        assert snap["arena_bytes_in_use"] >= arena.nbytes
        assert snap["arena_bytes_peak"] == snap["arena_bytes_in_use"]


class TestTrustedConstructor:
    def test_transforms_skip_revalidation_but_preserve_content(self):
        table = TraceTable(
            Schema(kind="flow", fields=(_spec("a"), _spec("b"))),
            {"a": np.arange(100, dtype=np.int64), "b": np.arange(100) * 0.5},
        )
        out = table.filter(table.column("a") % 2 == 0).sort_by("a").head(10)
        assert out.n_records == 10
        assert np.array_equal(out.column("a"), np.arange(0, 20, 2))

    def test_public_constructor_still_validates(self):
        schema = Schema(kind="flow", fields=(_spec("a"),))
        with pytest.raises(ValueError, match="missing"):
            TraceTable(schema, {})
        with pytest.raises(ValueError, match="not in schema"):
            TraceTable(schema, {"a": np.arange(3), "zz": np.arange(3)})
