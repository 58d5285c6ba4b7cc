"""CLI: regenerate any paper table/figure from the command line.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig3 --records 6000 --seed 0
    python -m repro.experiments all --records 4000

Results print as an indented summary; benchmarks under ``benchmarks/``
wrap the same functions with pytest-benchmark and shape assertions.  The
performance benchmarks (engine, fit, stream, serving, HTTP, reliability,
fleet) are not paper artifacts and have no id here: run them as
``python benchmarks/bench_<name>.py [out.json]``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import (
    ablations,
    appg_mia,
    fig2_sketch,
    privacy,
    fig3_classification,
    fig4_netml,
    fig5_fig6_attributes,
    fig7_tab67_epsilon,
    fig8_gum_vs_gummi,
    tab1_rank_correlation,
    tab2_netml_rank,
    tab3_runtime,
    tab4_marginal_examples,
    tab5_datasets,
)
from repro.experiments.runner import ExperimentScale

EXPERIMENTS = {
    "fig2": lambda s: fig2_sketch.run(s),
    "fig3": lambda s: fig3_classification.run(s),
    "tab1": lambda s: tab1_rank_correlation.run(s),
    "fig4": lambda s: fig4_netml.run(s),
    "tab2": lambda s: tab2_netml_rank.run(s),
    "tab3": lambda s: tab3_runtime.run(s),
    "tab4": lambda s: tab4_marginal_examples.run(s),
    "tab5": lambda s: tab5_datasets.run(s),
    "fig5": lambda s: fig5_fig6_attributes.run(s, dataset="ton"),
    "fig6": lambda s: fig5_fig6_attributes.run(s, dataset="caida"),
    "fig7": lambda s: fig7_tab67_epsilon.run(s),
    "tab6": lambda s: fig7_tab67_epsilon.run_sweep(s, dataset="ton"),
    "tab7": lambda s: fig7_tab67_epsilon.run_sweep(s, dataset="ugr16"),
    "fig8": lambda s: fig8_gum_vs_gummi.run(s),
    "appg": lambda s: appg_mia.run(s),
    "privacy": lambda s: privacy.run(s),
    "ablations": lambda s: {
        "allocation": ablations.run_allocation(s),
        "binning": ablations.run_binning_threshold(s),
        "rules": ablations.run_protocol_rules(s),
    },
}


def _sanitize(obj):
    """Make result dicts JSON-friendly (tuple keys, numpy scalars)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "item"):
        return obj.item()
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate NetDPSyn paper tables/figures.",
    )
    parser.add_argument("name", help="experiment id (or 'list' / 'all')")
    parser.add_argument("--records", type=int, default=6000, help="records per dataset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=2.0)
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-stage fit timings (synth.fit_report) for every synthesis",
    )
    args = parser.parse_args(argv)

    if args.name == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    scale = ExperimentScale(
        n_records=args.records,
        seed=args.seed,
        epsilon=args.epsilon,
        verbose=args.verbose,
    )
    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    for name in names:
        print(f"=== {name} ===")
        result = EXPERIMENTS[name](scale)
        print(json.dumps(_sanitize(result), indent=2, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
