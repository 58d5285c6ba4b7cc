"""Tests for the experiments CLI and end-to-end CSV workflows."""

import hashlib
import json

import numpy as np

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.data import read_csv, write_csv
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
