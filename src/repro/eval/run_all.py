"""Full evaluation harness: regenerate Table II, Figure 4 and Figure 5.

Usage::

    python -m repro.eval.run_all --subset small --scale 1.0
    python -m repro.eval.run_all --subset full            # the paper's set
    python -m repro.eval.run_all --mcw                    # include Table II MCW

Results are cached under ``--results-dir`` (default ``results/``); rendered
figures and CSVs are written next to the cache.  Re-running only computes
what is missing.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.eval.experiments import (
    DEFAULT_CLUSTERS,
    EVAL_CHANNEL_WIDTH,
    EVAL_EXTRAS,
    run_fig4,
    run_fig5,
    run_table2,
    run_workload,
    v4_ratio_summary,
)
from repro.eval.figures import render_fig4, render_fig5, render_table2, to_csv
from repro.eval.mcnc import benchmark_names


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subset", default="small",
                        choices=("small", "medium", "full"))
    parser.add_argument("--names", nargs="*", default=None,
                        help="explicit circuit names (overrides --subset)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="proxy size scale in (0,1]; 1.0 = paper scale")
    parser.add_argument("--channel-width", type=int, default=EVAL_CHANNEL_WIDTH)
    parser.add_argument("--clusters", type=int, nargs="*",
                        default=list(DEFAULT_CLUSTERS))
    parser.add_argument("--results-dir", type=Path, default=Path("results"))
    parser.add_argument("--mcw", action="store_true",
                        help="also run the Table II MCW search (slow)")
    parser.add_argument("--workload", action="store_true",
                        help="also replay the runtime workload-simulator "
                             "scenario (hot-set trace)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    names = tuple(args.names) if args.names else benchmark_names(args.subset)
    if not args.names:
        # The synthetic extras ride along with every subset run: the
        # workloads the VERSION 4 codec family targets (replicated
        # datapaths) have no MCNC row but belong in the corpus.
        names = names + tuple(n for n in EVAL_EXTRAS if n not in names)
    results_dir = args.results_dir
    t0 = time.perf_counter()

    print(f"# Evaluating {len(names)} circuits at scale {args.scale:g}, "
          f"W={args.channel_width}: {', '.join(names)}", flush=True)

    fig4 = run_fig4(names, results_dir, args.channel_width,
                    scale=args.scale, seed=args.seed)
    print()
    print(render_fig4(fig4))
    (results_dir / "fig4.csv").write_text(
        to_csv(fig4, ["name", "raw_bits", "vbs_bits", "ratio",
                      "clusters_raw", "codec_counts",
                      "auto_v3_bits", "auto_v4_bits",
                      "auto_v4_codec_counts", "auto_v4_family_trials"])
    )

    fig5 = run_fig5(names, results_dir, args.channel_width,
                    clusters=tuple(args.clusters), scale=args.scale,
                    seed=args.seed)
    print()
    print(render_fig5(fig5))
    (results_dir / "fig5.csv").write_text(
        to_csv(fig5, ["cluster", "min_bits", "geomean_bits", "max_bits",
                      "avg_ratio", "avg_decode_work"])
    )

    from json import dumps as _dumps

    ratio = v4_ratio_summary(names, results_dir, args.channel_width,
                             clusters=tuple(args.clusters),
                             scale=args.scale, seed=args.seed)
    (results_dir / "bench_v4_ratio.json").write_text(
        _dumps(ratio, indent=1, sort_keys=True) + "\n"
    )
    print(f"\n# VERSION 3 -> 4 auto totals: "
          f"{ratio['total_auto_v3_bits']} -> {ratio['total_auto_v4_bits']} "
          f"bits ({ratio['improvement_bits']} saved)")

    if args.mcw:
        table2 = run_table2(
            [n for n in names if n not in EVAL_EXTRAS], results_dir,
            scale=args.scale, seed=args.seed,
        )
        print()
        print(render_table2(table2))
        (results_dir / "table2.csv").write_text(
            to_csv(table2, ["name", "size", "mcw_paper", "mcw_ours",
                            "lbs_paper", "lbs_ours"])
        )

    if args.workload:
        from json import dumps

        from repro.runtime.workload import summarize_report

        report = run_workload(results_dir, seed=args.seed)
        print()
        print(summarize_report(report))
        (results_dir / "workload.json").write_text(
            dumps(report, indent=1, sort_keys=True) + "\n"
        )
        # The open-loop companion: a Zipf mix under Poisson arrivals,
        # the latency-percentile view a deployment is sized by.
        openloop = run_workload(
            results_dir, kind="zipf", arrivals="poisson", seed=args.seed,
        )
        print()
        print(summarize_report(openloop))
        (results_dir / "openloop.json").write_text(
            dumps(openloop, indent=1, sort_keys=True) + "\n"
        )
        # The fleet companion: the same Zipf/Poisson trace across four
        # fabric shards behind the consistent-hash router — per-shard
        # and fleet-wide percentile sections side by side.
        fleet = run_workload(
            results_dir, kind="zipf", arrivals="poisson", seed=args.seed,
            shards=4, router="hash",
        )
        print()
        print(summarize_report(fleet))
        (results_dir / "fleet.json").write_text(
            dumps(fleet, indent=1, sort_keys=True) + "\n"
        )

    print(f"\n# done in {time.perf_counter() - t0:.1f}s; cache: {results_dir}/",
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
