"""Tests for the experiments CLI and end-to-end CSV workflows."""

import csv
import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.data import CsvSink, JsonlSink, read_csv, write_csv
from repro.data.schema import FieldKind, FieldSpec, Schema
from repro.data.sinks import _json_cell, _render
from repro.data.table import TraceTable
from repro.experiments.__main__ import EXPERIMENTS, _sanitize, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "tab3", "appg"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_registry_covers_every_paper_artifact(self):
        # Paper artifacts plus the privacy sweep and ablations, nothing else:
        # the performance benchmarks run from benchmarks/bench_<name>.py.
        expected = {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7",
            "appg", "ablations", "privacy",
        }
        assert set(EXPERIMENTS) == expected

    def test_tab5_runs_and_prints_json(self, capsys):
        assert main(["tab5", "--records", "400"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.split("===")[-1].replace("tab5", "").strip())
        assert payload["ton"]["attributes"] == 11

    def test_sanitize_handles_tuple_keys_and_numpy(self):
        raw = {("a", "b"): np.float64(1.5), "x": [np.int64(2)]}
        clean = _sanitize(raw)
        assert clean == {"('a', 'b')": 1.5, "x": [2]}


class TestCsvWorkflow:
    def test_synthetic_trace_roundtrips_through_csv(self, tmp_path):
        raw = load_dataset("ugr16", n_records=600, seed=51)
        config = SynthesisConfig(epsilon=2.0)
        config.gum.iterations = 5
        synthetic = NetDPSyn(config, rng=5).synthesize(raw, n=400)

        path = tmp_path / "synthetic.csv"
        write_csv(synthetic, path)
        loaded = read_csv(path, synthetic.schema)

        assert loaded.n_records == 400
        for name in synthetic.schema.names:
            a = np.asarray(synthetic.column(name))
            b = np.asarray(loaded.column(name))
            if a.dtype.kind == "f":
                assert np.allclose(a, b)
            else:
                assert list(a) == list(b)

    def test_loaded_trace_usable_downstream(self, tmp_path):
        raw = load_dataset("caida", n_records=1500, seed=52)
        path = tmp_path / "packets.csv"
        write_csv(raw, path)
        loaded = read_csv(path, raw.schema)
        from repro.netml import build_flows

        assert len(build_flows(loaded)) == len(build_flows(raw))


class TestSinkBytes:
    """Pinned SHA-256 of small writer outputs: a byte-identity oracle for sinks."""

    #: file name -> SHA-256 of its bytes, captured before ``write_csv`` began
    #: delegating to ``CsvSink``.
    PINNED = {
        "write_csv.csv": "ea2b4635714c410fde2073547cdab3afb860d5137d75acf5e221732558954e38",
        "sample_to.csv": "0973e42835e5d4e066d43f1037979b64db19c268c5aa4c7c30f6794c747a5574",
        "sample_to.jsonl": "eac96c2bb9708f517a7d10116ad28faab4a63832d6723887f921b8ec9d069444",
    }

    def test_writer_output_bytes_are_pinned(self, tmp_path):
        config = SynthesisConfig(epsilon=2.0)
        config.gum.iterations = 5
        synth = NetDPSyn(config, rng=5).fit(load_dataset("ton", n_records=800, seed=21))
        write_csv(synth.sample(300, rng=2), tmp_path / "write_csv.csv")
        synth.sample_to(tmp_path / "sample_to.csv", n=300, chunk=128, rng=2)
        synth.sample_to(tmp_path / "sample_to.jsonl", n=300, chunk=128, rng=2)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.PINNED
        }
        assert digests == self.PINNED


def per_cell_csv(path, table):
    """The per-cell CSV writer the column renderer replaced (the oracle)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.names)
        cols = [table.column(n) for n in table.schema.names]
        for i in range(table.n_records):
            writer.writerow([_render(col[i]) for col in cols])


def per_cell_jsonl(path, table):
    """The per-cell JSONL writer the column renderer replaced (the oracle)."""
    names = table.schema.names
    with open(path, "w") as handle:
        cols = [table.column(n) for n in names]
        for i in range(table.n_records):
            record = {name: _json_cell(col[i]) for name, col in zip(names, cols)}
            handle.write(json.dumps(record) + "\n")


#: Text that exercises CSV quoting: separators, quotes, line breaks, empty.
_TEXT = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "x\r\ny", " "]),
    st.text(max_size=6),
)


def _column(dtype, n):
    """A hypothesis strategy for one ``n``-row column of ``dtype``."""
    if dtype == "object":
        return st.lists(_TEXT, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=object)
        )
    if dtype == "str":
        return st.lists(_TEXT, min_size=n, max_size=n).map(np.array)
    if dtype == "bool":
        return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    if dtype in ("float64", "float32"):
        width = 32 if dtype == "float32" else 64
        return st.lists(st.floats(width=width), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=dtype)
        )
    info = np.iinfo(dtype)
    return st.lists(
        st.integers(int(info.min), int(info.max)), min_size=n, max_size=n
    ).map(lambda v: np.array(v, dtype=dtype))


@st.composite
def tables(draw):
    """Small tables over every column dtype a sink may be handed."""
    n = draw(st.integers(0, 12))
    dtypes = draw(st.lists(
        st.sampled_from(
            ["float64", "float32", "int64", "int32", "uint8", "bool", "object", "str"]
        ),
        min_size=1, max_size=4,
    ))
    names = [f"c{j}" for j in range(len(dtypes))]
    schema = Schema(
        fields=tuple(FieldSpec(name, FieldKind.NUMERIC) for name in names), flow_key=()
    )
    return TraceTable(schema, {n_: draw(_column(d, n)) for n_, d in zip(names, dtypes)})


class TestColumnRenderers:
    """The column-wise sinks write exactly the bytes of the per-cell ones."""

    @settings(max_examples=150, deadline=None)
    @given(table=tables())
    def test_csv_and_jsonl_match_per_cell_writers(self, tmp_path_factory, table):
        """Every column dtype, NaN/+-inf, and text with ``,`` ``"`` ``\\r``
        ``\\n`` or nothing in it; two chunks per file."""
        tmp = tmp_path_factory.mktemp("sink")
        for sink_cls, oracle, suffix in (
            (CsvSink, per_cell_csv, "csv"),
            (JsonlSink, per_cell_jsonl, "jsonl"),
        ):
            with sink_cls(tmp / f"new.{suffix}", table.schema) as sink:
                sink.write(table)
                sink.write(table)  # a second chunk appends, nothing between
            oracle(tmp / f"old.{suffix}", TraceTable.concat_all([table, table]))
            assert (tmp / f"new.{suffix}").read_bytes() == (
                tmp / f"old.{suffix}"
            ).read_bytes(), suffix

    def test_nonfinite_floats_keep_their_spellings(self, tmp_path):
        schema = Schema(fields=(FieldSpec("x", FieldKind.NUMERIC),), flow_key=())
        table = TraceTable(schema, {"x": np.array([np.nan, np.inf, -np.inf, 0.1])})
        write_csv(table, tmp_path / "t.csv")
        with JsonlSink(tmp_path / "t.jsonl", schema) as sink:
            sink.write(table)
        assert (tmp_path / "t.csv").read_text().split() == ["x", "nan", "inf", "-inf", "0.1"]
        assert (tmp_path / "t.jsonl").read_text().split("\n")[:3] == [
            '{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'
        ]
