"""Unit tests for the data model (schema, table, domain, io)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Domain, FieldKind, FieldSpec, Schema, TraceTable, read_csv, write_csv
from repro.marginals.combine import combine_attr_sets


@pytest.fixture
def flow_schema():
    return Schema(
        fields=(
            FieldSpec("srcip", FieldKind.IP),
            FieldSpec("dstport", FieldKind.PORT),
            FieldSpec("proto", FieldKind.CATEGORICAL, categories=("TCP", "UDP")),
            FieldSpec("ts", FieldKind.TIMESTAMP),
            FieldSpec("pkt", FieldKind.NUMERIC),
            FieldSpec("label", FieldKind.CATEGORICAL, categories=("a", "b"), is_label=True),
        ),
        kind="flow",
    )


@pytest.fixture
def small_table(flow_schema):
    return TraceTable(
        flow_schema,
        {
            "srcip": np.array([1, 2, 1, 3]),
            "dstport": np.array([80, 443, 80, 53]),
            "proto": np.array(["TCP", "TCP", "TCP", "UDP"], dtype=object),
            "ts": np.array([0.0, 1.0, 2.0, 3.0]),
            "pkt": np.array([5, 1, 9, 2]),
            "label": np.array(["a", "b", "a", "a"], dtype=object),
        },
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema(fields=(FieldSpec("x", FieldKind.NUMERIC), FieldSpec("x", FieldKind.NUMERIC)))

    def test_categorical_requires_categories(self):
        with pytest.raises(ValueError):
            FieldSpec("c", FieldKind.CATEGORICAL)

    def test_non_categorical_rejects_categories(self):
        with pytest.raises(ValueError):
            FieldSpec("n", FieldKind.NUMERIC, categories=(1, 2))

    def test_label_field(self, flow_schema):
        assert flow_schema.label_field.name == "label"

    def test_contains_getitem(self, flow_schema):
        assert "srcip" in flow_schema
        assert flow_schema["pkt"].kind is FieldKind.NUMERIC
        with pytest.raises(KeyError):
            flow_schema["nope"]

    def test_with_without_field(self, flow_schema):
        extended = flow_schema.with_field(FieldSpec("extra", FieldKind.NUMERIC))
        assert "extra" in extended
        shrunk = extended.without_field("extra")
        assert "extra" not in shrunk

    def test_effective_flow_key_subset(self, flow_schema):
        assert flow_schema.effective_flow_key() == ("srcip", "dstport", "proto")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Schema(fields=(FieldSpec("x", FieldKind.NUMERIC),), kind="stream")


class TestTraceTable:
    def test_length_and_columns(self, small_table):
        assert len(small_table) == 4
        assert np.array_equal(small_table["dstport"], [80, 443, 80, 53])

    def test_ragged_columns_rejected(self, flow_schema):
        with pytest.raises(ValueError):
            TraceTable(flow_schema, {n: np.arange(3 + i) for i, n in enumerate(flow_schema.names)})

    def test_missing_column_rejected(self, flow_schema, small_table):
        cols = small_table.columns()
        del cols["pkt"]
        with pytest.raises(ValueError):
            TraceTable(flow_schema, cols)

    def test_filter_take(self, small_table):
        subset = small_table.filter(np.array([True, False, True, False]))
        assert len(subset) == 2
        assert np.array_equal(subset["srcip"], [1, 1])

    def test_with_column_replace(self, small_table):
        replaced = small_table.with_column("pkt", np.array([1, 1, 1, 1]))
        assert replaced["pkt"].sum() == 4
        assert small_table["pkt"].sum() == 17  # original untouched

    def test_with_new_column_requires_spec(self, small_table):
        with pytest.raises(ValueError):
            small_table.with_column("new", np.zeros(4))
        added = small_table.with_column(
            "new", np.zeros(4), FieldSpec("new", FieldKind.NUMERIC)
        )
        assert "new" in added.schema

    def test_sort_by(self, small_table):
        ordered = small_table.sort_by("pkt")
        assert list(ordered["pkt"]) == [1, 2, 5, 9]

    def test_concat(self, small_table):
        doubled = small_table.concat(small_table)
        assert len(doubled) == 8

    def test_group_ids_mixed_types(self, small_table):
        ids = small_table.group_ids(["srcip", "proto"])
        assert ids[0] == ids[2]  # same (1, TCP)
        assert ids[0] != ids[1]

    def test_group_ids_count(self, small_table):
        ids = small_table.group_ids(["srcip"])
        assert len(np.unique(ids)) == 3

    def test_feature_matrix_encodes_categoricals(self, small_table):
        X, names = small_table.feature_matrix(exclude=("label",))
        assert X.shape == (4, 5)
        assert "label" not in names
        proto_col = X[:, names.index("proto")]
        assert set(proto_col) <= {0.0, 1.0}

    def test_head_shuffle(self, small_table):
        assert len(small_table.head(2)) == 2
        shuffled = small_table.shuffle(np.random.default_rng(0))
        assert sorted(shuffled["pkt"]) == sorted(small_table["pkt"])


def _fold_group_ids(table, names):
    """The historical fold-based ``group_ids``: the numbering oracle.

    Densifies each column with ``np.unique`` and folds it into the running
    ids, re-densifying after every fold — ten sorts for a 5-tuple key.
    """
    if table.n_records == 0:
        return np.zeros(0, dtype=np.int64)
    ids = np.zeros(table.n_records, dtype=np.int64)
    for name in names:
        _, codes = np.unique(table.column(name), return_inverse=True)
        codes = codes.astype(np.int64)
        _, ids = np.unique(ids * (codes.max() + 1) + codes, return_inverse=True)
        ids = ids.astype(np.int64)
    return ids


_KEY_VALUES = {
    "int": st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
    "float": st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300, np.inf, -np.inf, np.nan]),
    "str": st.sampled_from(["", "a", "b", "TCP", "udp", "\u00e9", "10.0.0.1"]),
}


def _key_table(kinds, rows):
    """A table with one column per kind in ``kinds`` (``c0``, ``c1``, ...)."""
    fields, columns = [], {}
    for j, kind in enumerate(kinds):
        values = [row[j] for row in rows]
        name = f"c{j}"
        if kind == "str":
            fields.append(FieldSpec(name, FieldKind.CATEGORICAL, categories=tuple(set(values))))
            columns[name] = np.array(values, dtype=object)
        else:
            fields.append(FieldSpec(name, FieldKind.NUMERIC))
            dtype = np.int64 if kind == "int" else np.float64
            columns[name] = np.array(values, dtype=dtype)
    return TraceTable(Schema(fields=tuple(fields), kind="flow"), columns)


@st.composite
def _key_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), min_size=1, max_size=4))
    row = st.tuples(*(_KEY_VALUES[kind] for kind in kinds))
    rows = draw(st.lists(row, min_size=0, max_size=40))
    if rows and draw(st.booleans()):
        rows = [rows[0]] * len(rows)  # all-equal rows
    return _key_table(kinds, rows)


class TestGroupIdsNumbering:
    """``group_ids`` must number groups exactly like the fold it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(table=_key_tables())
    def test_matches_fold_oracle(self, table):
        names = table.schema.names
        got = table.group_ids(names)
        assert got.dtype == np.int64
        assert np.array_equal(got, _fold_group_ids(table, names))

    @pytest.mark.parametrize(
        "kinds, rows",
        [
            (("int", "str"), []),
            (("int", "float", "str"), [(7, 0.5, "x")]),
            (("str",), [("b",), ("a",), ("b",), ("c",)]),
            (("int", "float", "str"), [(1, 2.0, "a")] * 5),
        ],
        ids=["n0", "n1", "single-key-column", "all-equal-rows"],
    )
    def test_edge_shapes(self, kinds, rows):
        table = _key_table(kinds, rows)
        got = table.group_ids(table.schema.names)
        assert np.array_equal(got, _fold_group_ids(table, table.schema.names))

    def test_wide_key_densifies_before_overflow(self):
        # 16 columns of ~200 distinct values: the mixed-radix key would need
        # 200**16 > 2**63, so the fold must re-densify on the way.
        rng = np.random.default_rng(3)
        rows = [tuple(int(v) for v in rng.integers(0, 200, size=16)) for _ in range(400)]
        rows += rows[:50]
        table = _key_table(("int",) * 16, rows)
        got = table.group_ids(table.schema.names)
        assert np.array_equal(got, _fold_group_ids(table, table.schema.names))
        assert got.max() + 1 == len(set(rows))


class TestDomain:
    def test_basic(self):
        d = Domain({"a": 3, "b": 4})
        assert d.size("a") == 3
        assert d.shape(("b", "a")) == (4, 3)
        assert d.cells(("a", "b")) == 12
        assert d.total_size() == 7

    def test_project_and_eq(self):
        d = Domain({"a": 3, "b": 4, "c": 2})
        assert d.project(["a", "c"]) == Domain({"a": 3, "c": 2})

    def test_rejects_empty_size(self):
        with pytest.raises(ValueError):
            Domain({"a": 0})

    def test_cells_is_exact_past_int64(self):
        # 2**63 cells wrapped to a negative count under int64 arithmetic, and
        # combine then merged the two pairs into one 2**63-cell marginal.
        d = Domain({"a": 2**21, "b": 2**21, "c": 2**21})
        assert d.cells(("a", "b", "c")) == 2**63
        assert combine_attr_sets([("a", "b"), ("b", "c")], d) == [("a", "b"), ("b", "c")]


class TestCsvIo:
    def test_roundtrip(self, small_table, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(small_table, path)
        loaded = read_csv(path, small_table.schema)
        assert len(loaded) == len(small_table)
        assert np.array_equal(loaded["dstport"], small_table["dstport"])
        assert list(loaded["proto"]) == list(small_table["proto"])
        assert np.allclose(loaded["ts"], small_table["ts"])

    def test_header_mismatch_rejected(self, small_table, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(small_table, path)
        other_schema = small_table.schema.without_field("pkt")
        with pytest.raises(ValueError):
            read_csv(path, other_schema)
