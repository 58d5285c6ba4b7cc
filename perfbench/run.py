"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-ton --seed 0 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is a separate run that prints the per-layer table (spans
recorded around calls into each layer) and reports the per-layer metrics.
The last stdout line is the result object; everything before it is log.
The workloads are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from harness import ROOT, SRC, WORK_ROOT, census, metric, result_line, stop_children

WORKLOADS = ("fit-ton", "release-caida", "serve-dashboard", "serve-adhoc")

#: The metric lists live in ``BENCHMARK.json`` at the checkout root: a
#: timed run reports every ``end_to_end`` metric, a traced run every
#: ``per_layer`` metric (0 where the workload does not exercise the layer).
SPEC = ROOT / "BENCHMARK.json"


def _log(message: str) -> None:
    print(message, flush=True)


def _print_table(layers: dict, units: dict) -> None:
    _log(f"{'per-layer metric':<34s} {'value':>14s}  unit")
    for name, unit in units.items():
        _log(f"{name:<34s} {layers.get(name, 0.0):>14.6g}  {unit}")


def _workload(name: str):
    if name == "fit-ton":
        import fit_ton

        return fit_ton.run
    if name == "release-caida":
        import release_caida

        return release_caida.run
    import serve

    mode = name.split("-", 1)[1]
    return lambda *args: serve.run(mode, *args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Temporary files of the program (fleet spools, ...) stay in the run's
    # own directory, where the teardown census counts them.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    started = time.perf_counter()
    try:
        outcome, metrics = _workload(args.workload)(
            args.seed, args.seconds, bool(args.trace), work, _log
        )
        leftovers = census(work)
        _log(f"teardown census: {leftovers}")
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            layers = {**metrics, **leftovers}
            unknown = sorted(set(layers) - set(units))
            if unknown:
                raise RuntimeError(f"{args.workload} reported {unknown}, not in {SPEC.name}")
            _print_table(layers, units)
            metrics = {name: metric(layers.get(name, 0.0), unit) for name, unit in units.items()}
        elif sorted(metrics) != sorted(m["name"] for m in spec["end_to_end"]):
            raise RuntimeError(f"{args.workload} reported {sorted(metrics)}, not {SPEC.name}'s list")
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for reason in outcome.reasons:
        _log(f"failed: {reason}")
    _log(f"{args.workload}: {outcome.attempted} checked, {outcome.failed} failed, "
         f"{time.perf_counter() - started:.1f} s in the workload (checkout {ROOT})")
    print(result_line(outcome, metrics), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
