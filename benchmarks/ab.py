"""A/B the benchmark between two git revisions, in alternating pairs.

Run from anywhere inside a checkout::

    python3 benchmarks/ab.py HEAD~1 HEAD --workloads fit-ton --pairs 10
    python3 benchmarks/ab.py BASE HEAD --pairs 10 --pr N --claim "..."

Each revision is checked out into its own temporary ``git worktree``;
``perfbench/run.py`` runs there as a subprocess (``--trace 0``, the timed
run), alternating which side runs first in each pair.  For every
end-to-end metric in ``BENCHMARK.json`` it reports each side's median and
quartiles (linear percentiles, as numpy computes them), the change's
median over the parent's, how many pairs the change won (ties count for
neither), and a verdict: a difference of medians is called real only when
it exceeds the interquartile range of both sides, over at least 3 pairs.

It prints a markdown table to stdout.  ``--pr N`` also writes
``benchmarks/results/BENCH_<N>.json`` (``--out PATH`` writes elsewhere).
Stdlib only; no network.  The worktrees are removed on every way out,
SIGTERM included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` by linear interpolation (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list, change: list, better: str) -> dict:
    """Medians, quartiles, pair wins and verdict of one metric."""
    sides = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"q1": q1, "median": median, "q3": q3, "runs": runs}
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sides["change"]["median"] - sides["parent"]["median"]
    spread = max(s["q3"] - s["q1"] for s in sides.values())
    if len(parent) < 3:
        verdict = "unresolved: fewer than 3 pairs"
    elif abs(gap) <= spread:
        verdict = "no real change"
    else:
        verdict = "better" if sign * gap > 0 else "worse"
    base = sides["parent"]["median"]
    return {
        **sides,
        "change_over_parent": round(sides["change"]["median"] / base, 4) if base else None,
        "change_wins": f"{wins}/{len(parent)}",
        "verdict": verdict,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed perfbench run in ``tree``: its result object.

    The run gets its own process group, so a run cut short (timeout,
    Ctrl-C, SIGTERM) is stopped together with every process it started.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(600.0, 20 * seconds))
        except BaseException:
            _stop_group(proc)
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench {workload} in {tree} exited {proc.returncode}:\n{stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    """SIGTERM the run's process group, then SIGKILL what is left after 10 s."""
    for sig, wait in ((signal.SIGTERM, 10.0), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=wait)
            return
        except subprocess.TimeoutExpired:
            continue


def ab_workload(trees: dict, workload: str, metrics: list, args, log) -> dict:
    """``args.pairs`` alternating pairs of one workload, summarised."""
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            start = time.monotonic()
            result = run_once(trees[side], workload, args.seed, args.seconds)
            runs[side].append(result)
            log(f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                f"{'correct' if result['correct'] else 'NOT correct'}, "
                f"{result['failed']}/{result['attempted']} failed, "
                f"{time.monotonic() - start:.0f} s")
    all_runs = runs["parent"] + runs["change"]
    return {
        "pairs": args.pairs,
        "all_correct": all(r["correct"] for r in all_runs),
        "failed": sum(r["failed"] for r in all_runs),
        "attempted": sum(r["attempted"] for r in all_runs),
        "failed_share": {
            side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for side, rs in runs.items()
        },
        "metrics": {
            m["name"]: {
                "unit": m["unit"],
                "better": m["better"],
                **compare(
                    [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                    m["better"],
                ),
            }
            for m in metrics
        },
    }


def markdown(revisions: dict, results: dict) -> str:
    """The comparison as one markdown table per run."""
    lines = [
        f"### A/B: `{revisions['parent'][:10]}` (parent) vs `{revisions['change'][:10]}` (change)",
        "",
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| change/parent | change wins | verdict |",
        "|---|---|---|---|---:|---:|---|",
    ]
    for workload, summary in results.items():
        for name, m in summary["metrics"].items():
            p, c = m["parent"], m["change"]
            lines.append(
                f"| `{workload}` | {name} ({m['unit']}) "
                f"| {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                f"| {m['change_over_parent']} | {m['change_wins']} | {m['verdict']} |"
            )
        lines.append(
            f"| `{workload}` | correct, failed/attempted | | | | "
            f"| {summary['all_correct']}, {summary['failed']}/{summary['attempted']} |"
        )
    return "\n".join(lines)


def _machine() -> str:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
            f"{memory:.0f} GiB, Python {platform.python_version()}")


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the base revision")
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("--workloads", default="fit-ton,release-caida,serve-dashboard,serve-adhoc",
                        help="comma-separated perfbench workloads (default: all four)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of each run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pr", type=int, default=None,
                        help="write benchmarks/results/BENCH_<pr>.json")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON record here")
    parser.add_argument("--title", default="")
    parser.add_argument("--claim", default="")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    repo = Path(_git("rev-parse", "--show-toplevel", cwd=HERE))
    revisions = {
        side: _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    spec = json.loads(_git("show", f"{revisions['change']}:BENCHMARK.json", cwd=repo))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    workloads = [w for w in args.workloads.split(",") if w]

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    workdir = Path(tempfile.mkdtemp(prefix="ab-"))
    trees: dict = {}
    try:
        for side, sha in revisions.items():
            trees[side] = workdir / side
            _git("worktree", "add", "--detach", str(trees[side]), sha, cwd=repo)
        results = {w: ab_workload(trees, w, spec["end_to_end"], args, log) for w in workloads}
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=repo, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=repo, capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)

    print(markdown(revisions, results))
    out = args.out
    if out is None and args.pr is not None:
        out = repo / "benchmarks" / "results" / f"BENCH_{args.pr}.json"
    if out is not None:
        record = {
            "pr": args.pr,
            "title": args.title,
            "machine": _machine(),
            "method": (
                f"benchmarks/ab.py: `python3 perfbench/run.py --workload W --seed {args.seed} "
                f"--seconds {args.seconds:g} --trace 0` in a git worktree of each revision, "
                f"{args.pairs} pairs per workload alternating which side runs first; medians "
                "with [q1, q3] over the runs (linear percentiles); `change_wins` counts pairs "
                "where the change is better (ties count for neither); a verdict other than "
                "'no real change' needs the medians to differ by more than both sides' IQR."
            ),
            "claim": args.claim,
            "revisions": revisions,
            f"end_to_end_seed{args.seed}": results,
        }
        out.write_text(json.dumps(record, indent=1) + "\n")
        log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
