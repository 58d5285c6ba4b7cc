"""Streaming engine tests: sharded decode, chunked sampling, sinks, shm pool."""

import contextlib
import glob
import itertools
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.data.io import read_csv
from repro.data.sinks import (
    SINK_FORMATS,
    NullSink,
    open_sink,
    read_jsonl,
)
from repro.data.table import TraceTable
from repro.engine import (
    BACKENDS,
    ClusterBackend,
    EngineConfig,
    execute_plan_decoded,
    get_backend,
)
from repro.engine.executor import _merge_errors
from repro.engine.plan import ShardResult
from repro.engine.shm import export_result, import_result
from repro.fleet import LocalCluster
from repro.utils.memory import peak_rss_bytes

#: Backends exercised by the stream digest-equality tests.  ``shared`` (the
#: older spelling ``process`` is still accepted under) runs the release
#: benchmark's configuration: calls served by one persistent pool opened as
#: ``pool(backend="shared")`` — see :func:`_session`.
STREAM_BACKENDS = (*BACKENDS, "shared")


def digest(table) -> str:
    return table.content_digest()


def _session(fitted, backend):
    """A persistent pool for the ``shared`` spelling, per-call pools otherwise."""
    if backend == "shared":
        return fitted.pool(backend="shared", max_workers=2)
    return contextlib.nullcontext()


def _shm_segments() -> set:
    # "nds" starts every result file name (repro.engine.shm).
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("nds")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _mapped_result_files() -> set:
    """Unlinked result files this process still maps (``/proc/self/maps``)."""
    prefix = f"/dev/shm/nds{os.getpid():x}-"
    with open("/proc/self/maps") as maps:
        paths = {line.split(None, 5)[-1].strip() for line in maps}
    return {path for path in paths if path.startswith(prefix) and path.endswith(" (deleted)")}


#: Where in-process export tests put their files (this process's census prefix).
_TEST_PREFIX = f"/dev/shm/nds{os.getpid():x}-test-"


def _big_array_task(shared, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=(400, 80), dtype=np.int32)  # > 64 KiB


def _failing_task(shared, seed):
    if seed == 1:
        raise RuntimeError("task boom")
    return _big_array_task(shared, seed)


def _make_mixed_table(seed: int, n: int = 6000) -> TraceTable:
    """A >64 KiB table with raw and dictionary-encodable columns."""
    from repro.data.schema import FieldKind, FieldSpec, Schema

    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            FieldSpec("a", FieldKind.NUMERIC),
            FieldSpec("b", FieldKind.NUMERIC),
            FieldSpec("proto", FieldKind.CATEGORICAL, categories=("tcp", "udp", "icmp")),
        ),
        "flow",
    )
    protos = np.array(["tcp", "udp", "icmp"], dtype=object)
    return TraceTable(
        schema,
        {
            "a": rng.integers(0, 2**40, size=n),
            "b": rng.standard_normal(n),
            "proto": protos[rng.integers(0, 3, size=n)],
        },
    )


def _table_task(shared, seed):
    """Worker task returning a whole TraceTable (exercises the arena path)."""
    return _make_mixed_table(seed)


def _export_then_die(shared, prefix):
    """Write a result file under ``prefix``, then die without handing it off."""
    import signal

    export_result(_big_array_task(shared, 0), prefix)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def ton():
    return load_dataset("ton", n_records=2000, seed=13)


@pytest.fixture(scope="module")
def fitted(ton):
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 8
    return NetDPSyn(config, rng=3).fit(ton)


class TestStreamEquality:
    """sample_stream() re-slices the sharded run without changing content."""

    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_chunks_concat_to_sample(self, fitted, backend):
        expected = digest(fitted.sample(900, rng=5, shards=3, backend=backend))
        with _session(fitted, backend):
            chunks = list(
                fitted.sample_stream(900, chunk=250, rng=5, shards=3, backend=backend)
            )
        assert [c.n_records for c in chunks] == [250, 250, 250, 150]
        assert digest(TraceTable.concat_all(chunks)) == expected

    def test_chunk_size_does_not_change_content(self, fitted):
        digests = set()
        for chunk in (100, 333, 900, 5000):
            parts = list(fitted.sample_stream(900, chunk=chunk, rng=7, shards=3))
            digests.add(digest(TraceTable.concat_all(parts)))
        assert len(digests) == 1

    def test_single_shard_stream_matches_legacy_sample(self, fitted):
        expected = digest(fitted.sample(600, rng=11))
        parts = list(fitted.sample_stream(600, chunk=200, rng=11, shards=1))
        assert digest(TraceTable.concat_all(parts)) == expected

    def test_single_shard_stream_advances_caller_generator(self, fitted):
        # The process worker advances a pickled copy of the generator; the
        # stream must write its state back exactly as sample() does.
        serial_rng = np.random.default_rng(17)
        expected = digest(fitted.sample(600, rng=serial_rng))
        process_rng = np.random.default_rng(17)
        parts = list(
            fitted.sample_stream(
                600, chunk=250, rng=process_rng, shards=1, backend="process"
            )
        )
        assert digest(TraceTable.concat_all(parts)) == expected
        assert process_rng.bit_generator.state == serial_rng.bit_generator.state

    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_row_copied_at_most_once(self, fitted, monkeypatch, shards):
        taken = []
        original = TraceTable.take

        def counting_take(self, indices):
            out = original(self, indices)
            taken.append(out.n_records)
            return out

        monkeypatch.setattr(TraceTable, "take", counting_take)
        n = 3000
        parts = list(fitted.sample_stream(n, chunk=70, rng=5, shards=shards))
        assert sum(p.n_records for p in parts) == n
        assert sum(taken) <= n

    def test_default_shards_derived_from_chunk(self, fitted):
        parts = list(fitted.sample_stream(800, chunk=200, rng=2))
        assert sum(p.n_records for p in parts) == 800
        assert fitted.gum_result.shards == 4
        assert fitted.gum_result.n_records == 800
        assert fitted.gum_result.data is None

    def test_stream_metadata_recorded_after_exhaustion(self, fitted):
        stream = fitted.sample_stream(600, chunk=300, rng=4, shards=2)
        fitted.gum_result = None
        list(stream)
        result = fitted.gum_result
        assert result is not None
        assert len(result.shard_results) == 2
        assert all(r.table is None for r in result.shard_results)
        assert result.errors and result.iterations_run >= 1

    def test_invalid_arguments_raise_at_call_time(self, fitted):
        # Eager validation: the error surfaces where the mistake was made,
        # not at the first next() on the returned generator.
        with pytest.raises(ValueError, match="chunk"):
            fitted.sample_stream(100, chunk=0, rng=1)
        with pytest.raises(ValueError, match="n must be"):
            fitted.sample_stream(0, rng=1)


class TestSampleTo:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_round_trip_digest_equal(self, fitted, tmp_path, fmt, backend):
        expected = fitted.sample(700, rng=9, shards=2, backend=backend)
        path = tmp_path / f"trace.{fmt}"
        with _session(fitted, backend):
            report = fitted.sample_to(
                path, n=700, chunk=173, rng=9, shards=2, backend=backend
            )
        assert report.n_records == 700
        assert report.n_chunks == 5  # ceil(700 / 173)
        assert report.format == fmt
        reader = read_csv if fmt == "csv" else read_jsonl
        assert digest(reader(path, expected.schema)) == digest(expected)

    def test_parquet_round_trip(self, fitted, tmp_path):
        pytest.importorskip("pyarrow")
        from repro.data.sinks import read_parquet

        expected = fitted.sample(400, rng=9, shards=2)
        path = tmp_path / "trace.parquet"
        fitted.sample_to(path, n=400, chunk=150, rng=9, shards=2)
        assert digest(read_parquet(path, expected.schema)) == digest(expected)

    def test_parquet_without_pyarrow_raises(self, fitted, tmp_path):
        try:
            import pyarrow  # noqa: F401
        except ImportError:
            with pytest.raises(RuntimeError, match="pyarrow"):
                fitted.sample_to(tmp_path / "t.parquet", n=10, rng=0)

    def test_null_sink_counts_only(self, fitted, tmp_path):
        report = fitted.sample_to(
            tmp_path / "t.devnull", n=500, format="null", chunk=200, rng=1
        )
        assert report.n_records == 500
        assert report.records_per_second > 0
        assert report.peak_rss_bytes > 0
        assert not (tmp_path / "t.devnull").exists()

    def test_report_as_dict(self, fitted, tmp_path):
        report = fitted.sample_to(tmp_path / "t.csv", n=100, rng=1)
        payload = report.as_dict()
        assert payload["n_records"] == 100 and payload["format"] == "csv"

    def test_format_inference_and_errors(self, fitted, tmp_path, ton):
        schema = ton.schema
        with open_sink(tmp_path / "x.ndjson", schema) as sink:
            assert sink.format == "jsonl"
        assert isinstance(open_sink(tmp_path / "x.bin", schema, "null"), NullSink)
        with pytest.raises(ValueError, match="cannot infer sink format"):
            open_sink(tmp_path / "x.bin", schema)
        with pytest.raises(ValueError, match="format must be one of"):
            open_sink(tmp_path / "x.csv", schema, format="xml")
        assert set(SINK_FORMATS) == {"csv", "jsonl", "parquet", "null"}

    def test_sink_rejects_schema_mismatch_and_closed_writes(self, fitted, tmp_path, ton):
        trace = fitted.sample(50, rng=1)
        sink = open_sink(tmp_path / "x.csv", trace.schema)
        sink.write(trace)
        mismatched = ton.head(5).without_column(ton.schema.names[0])
        with pytest.raises(ValueError, match="do not match sink"):
            sink.write(mismatched)
        sink.close()
        with pytest.raises(RuntimeError, match="closed"):
            sink.write(trace)


class TestSharedBackend:
    """The process pool's shared-memory result path and persistent pools."""

    def test_registered(self):
        # "shared" is an accepted spelling of the one process backend.
        assert "shared" not in BACKENDS
        assert type(get_backend("shared")) is ClusterBackend
        assert get_backend("shared").name == "process"
        assert EngineConfig(backend="shared").backend == "process"
        assert EngineConfig().override(backend="shared").backend == "process"
        with pytest.raises(ValueError, match="backend must be one of"):
            get_backend("threads")

    def test_shm_round_trip_large_and_small(self):
        rng = np.random.default_rng(0)
        big = rng.integers(0, 100, size=(300, 80), dtype=np.int32)  # > 64 KiB
        small = np.arange(5, dtype=np.int64)
        strings = np.array(["a", "bb"], dtype=object)
        payload = {"big": big, "nested": [small, (strings, 3.5)], "plain": "x"}
        out = import_result(export_result(payload, _TEST_PREFIX))
        assert np.array_equal(out["big"], big)
        assert np.array_equal(out["nested"][0], small)
        assert list(out["nested"][1][0]) == ["a", "bb"]
        assert out["nested"][1][1] == 3.5 and out["plain"] == "x"

    def test_shard_result_round_trip(self):
        from repro.engine.shm import ShmTableArenaRef

        table = _make_mixed_table(1)  # > 64 KiB: travels as an arena file
        shard = ShardResult(index=2, table=table, errors=[0.5, 0.4], n_records=6000)
        exported = export_result(shard, _TEST_PREFIX)
        assert isinstance(exported.table, ShmTableArenaRef)
        out = import_result(exported)
        assert out.index == 2 and out.errors == [0.5, 0.4]
        assert out.table.content_digest() == table.content_digest()

    def test_fit_with_shared_executor_is_bit_identical(self, ton):
        def build(fit_engine):
            config = SynthesisConfig(epsilon=2.0)
            config.gum.iterations = 6
            config.fit_engine = fit_engine
            return NetDPSyn(config, rng=17).fit(ton)

        inline = build(None)
        shared = build(EngineConfig(backend="shared", max_workers=2))
        assert shared.fit_report.backend == "process"
        assert digest(shared.sample(300, rng=5)) == digest(inline.sample(300, rng=5))

    def test_persistent_pool_reuse_matches_fresh_pools(self, fitted):
        fresh = digest(fitted.sample(500, rng=21, shards=2, backend="process"))
        with fitted.pool(backend="process", max_workers=2):
            a = digest(fitted.sample(500, rng=21, shards=2, backend="process"))
            b = digest(fitted.sample(500, rng=21, shards=2, backend="process"))
        after = digest(fitted.sample(500, rng=21, shards=2, backend="process"))
        assert fresh == a == b == after

    def test_pool_ignored_for_other_backends(self, fitted):
        with fitted.pool(backend="process", max_workers=2):
            out = fitted.sample(300, rng=1, shards=2, backend="serial")
        assert fitted.gum_result.backend == "serial"
        assert out.n_records == 300

    def test_pool_is_default_backend_for_calls_under_it(self, fitted):
        # The documented usage omits per-call backend=; the open pool must
        # actually serve those calls, not sit idle.
        expected = digest(fitted.sample(400, rng=6, shards=2, backend="process"))
        with fitted.pool(backend="process", max_workers=2):
            got = digest(fitted.sample(400, rng=6, shards=2))
            assert fitted.gum_result.backend == "process"
        assert got == expected

    def test_shared_spelling_pool_serves_sample_to(self, fitted, tmp_path, monkeypatch):
        # The release benchmark opens its pool as backend="shared" and then
        # calls sample_to without a backend: every call must run on that one
        # pool (a private cluster), never on a per-call one.
        pools = []
        make_cluster = ClusterBackend._make_cluster

        def counting(self, workers, shared):
            pools.append(workers)
            return make_cluster(self, workers, shared)

        monkeypatch.setattr(ClusterBackend, "_make_cluster", counting)
        expected = fitted.sample(700, rng=9, shards=4, backend="serial")
        with fitted.pool(backend="shared", max_workers=2):
            for _ in range(2):
                fitted.sample_to(tmp_path / "t.csv", n=700, chunk=175, rng=9)
                got = read_csv(tmp_path / "t.csv", expected.schema)
                assert digest(got) == digest(expected)
        assert pools == [2]

    @pytest.mark.parametrize("backend", ["process", "fleet"])
    def test_interleaved_streams_on_one_pool(self, fitted, backend):
        # A second release starts while the first stream is suspended on
        # the same workers; neither may stall the other or change a byte.
        want = {
            "a": digest(fitted.sample(1200, rng=3, shards=4, backend="serial")),
            "b": digest(fitted.sample(900, rng=4, shards=3, backend="serial")),
        }
        if backend == "fleet":
            runtime = LocalCluster(workers=2)
        else:
            runtime = fitted.pool(backend=backend, max_workers=2)
        parts = {"a": [], "b": []}
        with runtime:
            streams = {
                "a": fitted.sample_stream(1200, chunk=200, rng=3, shards=4, backend=backend),
                "b": fitted.sample_stream(900, chunk=200, rng=4, shards=3, backend=backend),
            }
            for a, b in itertools.zip_longest(streams["a"], streams["b"]):
                for key, part in (("a", a), ("b", b)):
                    if part is not None:
                        parts[key].append(part)
        got = {key: digest(TraceTable.concat_all(chunks)) for key, chunks in parts.items()}
        assert got == want

    def test_concurrent_streams_from_threads(self, fitted):
        # Stress: consumers on several threads share one pool's dispatcher
        # (more workers than cores, a short switch interval); a lost wakeup
        # or a result handed to the wrong release would change a digest or
        # hang past the join timeout.
        seeds = (11, 12, 13)
        want = {s: digest(fitted.sample(900, rng=s, shards=3, backend="serial")) for s in seeds}
        got = {}

        def consume(seed):
            parts = list(fitted.sample_stream(900, chunk=150, rng=seed, shards=3))
            got[seed] = digest(TraceTable.concat_all(parts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with fitted.pool(backend="process", max_workers=3):
                threads = [threading.Thread(target=consume, args=(s,)) for s in seeds]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_abandoned_stream_leaks_no_shm_segments(self, fitted):
        before = _shm_segments()
        stream = fitted.sample_stream(1200, chunk=100, rng=3, shards=4, backend="process")
        next(stream)
        stream.close()
        assert _shm_segments() == before

    def test_abandoned_stream_on_open_pool_is_reaped(self, fitted):
        # Closing the stream returns only after the shards it left running
        # have reported: the open pool keeps nothing of it in flight.
        before = _shm_segments()
        with fitted.pool(backend="process", max_workers=2) as pool:
            stream = fitted.sample_stream(6000, chunk=500, rng=3, shards=6)
            next(stream)
            stream.close()
            assert not pool._pool._releases
            assert _shm_segments() == before

    def test_failed_task_leaks_no_shm_segments(self):
        before = _shm_segments()
        runner = get_backend("process", max_workers=2)
        with pytest.raises(RuntimeError, match="task boom"):
            runner.run_tasks(_failing_task, [(0,), (1,), (2,), (3,)])
        out = runner.run_tasks(_big_array_task, [(5,)])
        assert np.array_equal(out[0], _big_array_task(None, 5))
        assert _shm_segments() == before


class TestArenaDescriptorTransport:
    """Tables cross the process pool as (segment, slots) descriptors."""

    def test_cross_process_table_round_trip(self):
        import gc

        from repro.data.arena import copy_stats

        before, mapped = _shm_segments(), _mapped_result_files()
        copy_stats.reset()
        runner = get_backend("process", max_workers=2)
        out = runner.run_tasks(_table_task, [(7,), (8,)])
        digests = [table.content_digest() for table in out]
        assert digests == [
            _make_mixed_table(seed).content_digest() for seed in (7, 8)
        ]
        runner.close()
        # Each table is a view over its own file, unlinked on import and
        # still mapped while the table lives: the columns never went
        # through the pickled pipe, which the copy ledger would have seen.
        assert _shm_segments() == before
        assert len(_mapped_result_files() - mapped) == 2
        assert copy_stats.snapshot()["pickled_array_bytes"] == 0
        del out
        gc.collect()
        assert _mapped_result_files() == mapped

    def test_export_import_round_trip_in_process(self):
        import gc

        from repro.engine.shm import ShmTableArenaRef, export_table, import_table

        before = _shm_segments()
        table = _make_mixed_table(11)
        ref = export_table(table, _TEST_PREFIX)
        assert isinstance(ref, ShmTableArenaRef)
        assert ref.pickled_bytes == 0
        # Handoff pending: the file exists and survives the export side.
        assert os.path.basename(ref.path) in _shm_segments() - before
        out = import_table(ref)
        # Unlinked on import; the mapping, private now, backs the columns
        # until the table dies.
        assert _shm_segments() == before
        assert out.content_digest() == table.content_digest()
        assert f"{ref.path} (deleted)" in _mapped_result_files()
        del out
        gc.collect()
        assert f"{ref.path} (deleted)" not in _mapped_result_files()

    def test_small_table_pickles_through_whole(self):
        from repro.engine.shm import export_table

        small = _make_mixed_table(3, n=20)
        assert export_table(small, _TEST_PREFIX) is small

    def test_killed_worker_segments_are_swept(self):
        from repro.reliability import ShardTaskError

        before = _shm_segments()
        with LocalCluster(workers=1, retry=0) as cluster:
            prefix = f"{cluster._result_prefix}w0-"
            with pytest.raises(ShardTaskError, match="lost"):
                cluster.run_tasks(_export_then_die, [(prefix,)])
            # The loss unlinked the dead worker's prefix, before close().
            assert not glob.glob(prefix + "*")
        assert _shm_segments() == before

    def test_no_mapping_outlives_the_tables_of_ten_releases(self, fitted):
        import gc

        before = _mapped_result_files()
        tables = []
        with fitted.pool(backend="process", max_workers=2):
            for seed in range(10):
                # A one-shard release returns its worker's table as is: a
                # view of a mapped file.  Two shards merge into a new arena.
                tables.append(fitted.sample(2400, rng=seed, shards=1 + seed % 2))
        assert len(_mapped_result_files() - before) == 5
        del tables
        gc.collect()
        assert _mapped_result_files() == before

    def test_sharded_shared_sampling_ships_zero_pickled_column_bytes(self, fitted):
        from repro.data.arena import copy_stats

        # 1200-row shards keep each decoded table's arena above SHM_MIN_BYTES,
        # so every shard must take the descriptor path.
        expected = digest(fitted.sample(4800, rng=19, shards=4, backend="serial"))
        copy_stats.reset()
        got = digest(fitted.sample(4800, rng=19, shards=4, backend="process"))
        assert got == expected
        snap = copy_stats.snapshot()
        assert snap["pickled_array_bytes"] == 0
        assert snap["arena_bytes_peak"] > 0


class TestExecutePlanDecoded:
    def test_direct_call(self, fitted):
        out = execute_plan_decoded(
            fitted.plan(), EngineConfig(backend="process", shards=2), n=400, rng=3
        )
        assert out.table.n_records == 400
        assert out.gum.data is None and out.gum.n_records == 400
        assert len(out.gum.shard_results) == 2

    def test_matches_sample(self, fitted):
        out = execute_plan_decoded(
            fitted.plan(), EngineConfig(shards=3), n=600, rng=8
        )
        assert digest(out.table) == digest(fitted.sample(600, rng=8, shards=3))


class TestChunkBufferProperty:
    """The pure re-slicing layer preserves rows, order, and chunk exactness."""

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
        chunk=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunks_are_exact_and_order_preserving(self, sizes, chunk):
        from repro.data.schema import FieldKind, FieldSpec, Schema
        from repro.engine.streaming import _ChunkBuffer

        schema = Schema((FieldSpec("x", FieldKind.NUMERIC),), "flow")
        total = sum(sizes)
        values = np.arange(total, dtype=np.int64)
        parts, start = [], 0
        for size in sizes:
            parts.append(TraceTable(schema, {"x": values[start : start + size]}))
            start += size

        buffer = _ChunkBuffer()
        out = []
        for part in parts:
            buffer.push(part)
            while buffer.rows >= chunk:
                out.append(buffer.pop(chunk))
        while buffer.rows:
            out.append(buffer.pop(chunk))

        assert all(c.n_records == chunk for c in out[:-1])
        assert buffer.rows == 0
        merged = (
            np.concatenate([c.column("x") for c in out])
            if out
            else np.zeros(0, dtype=np.int64)
        )
        assert np.array_equal(merged, values)


class TestMergeErrors:
    @staticmethod
    def reference(results, sizes):
        longest = max((len(r.errors) for r in results), default=0)
        if longest == 0:
            return []
        total = float(sum(sizes))
        merged = []
        for t in range(longest):
            num = 0.0
            for result, size in zip(results, sizes):
                if not result.errors:
                    continue
                err = result.errors[min(t, len(result.errors) - 1)]
                num += err * size
            merged.append(num / total if total > 0 else 0.0)
        return merged

    def _shards(self, curves):
        return [ShardResult(index=i, table=None, errors=c) for i, c in enumerate(curves)]

    def test_matches_reference_on_ragged_curves(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            curves = [list(rng.random(int(rng.integers(0, 7)))) for _ in range(k)]
            sizes = [int(rng.integers(0, 500)) for _ in range(k)]
            results = self._shards(curves)
            assert np.allclose(
                _merge_errors(results, sizes), self.reference(results, sizes)
            )

    def test_empty_and_zero_weight_edges(self):
        assert _merge_errors(self._shards([[], []]), [10, 20]) == []
        assert _merge_errors(self._shards([[1.0], []]), [0, 0]) == [0.0]
        out = _merge_errors(self._shards([[0.4, 0.2], [0.6]]), [100, 100])
        assert np.allclose(out, [0.5, 0.4])


class TestPeakRss:
    def test_positive_and_monotonic(self):
        first = peak_rss_bytes()
        assert first > 0
        assert peak_rss_bytes() >= first
