"""Command-line front-ends.

``vbsgen`` mirrors the paper's backend binary: it takes a BLIF netlist,
runs the offline flow at the requested architecture parameters, and writes
a Virtual Bit-Stream container next to a summary of the achieved
compression.

``main`` is the ``repro`` umbrella command::

    repro vbsgen design.blif -W 20 --codecs auto --workers 4
    repro vbs inspect design.vbs
    repro runtime simulate --kind hot-set --tasks 3 --length 40 --seed 1
    repro tasks check suites/smoke.json

``vbs inspect`` parses a container through the codec registry and prints
the prelude, per-cluster codec tags, and the compression ratio.
``runtime simulate`` replays a seeded multi-task workload trace through
the fabric manager and reports cache hit rates, decoded bytes and the
cost model's reconfiguration latency (``--json`` for the machine-readable
report).  ``tasks run``/``tasks check`` drive the declarative suite
harness (``repro.eval.tasks``): expand a suite file's grids, run every
point, and gate on QoR deltas against committed goldens.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arch.params import ArchParams
from repro.bitstream.expand import expand_routing
from repro.bitstream.raw import RawBitstream
from repro.cad.flow import run_flow
from repro.netlist.blif import parse_blif
from repro.vbs.encode import VirtualBitstream, encode_flow


def _add_vbsgen_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("blif", type=Path, help="input BLIF file")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="output .vbs path (default: <blif>.vbs)")
    parser.add_argument("-W", "--channel-width", type=int, default=20)
    parser.add_argument("-K", "--lut-size", type=int, default=6)
    parser.add_argument("-c", "--cluster-size", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--codecs", default=None,
                        help="cost-driven codec picker: 'auto' or a "
                             "comma-separated registry name list "
                             "(default: paper-strict list+raw)")
    parser.add_argument("--workers", type=int, default=None,
                        help="encode pipeline worker processes (default: "
                             "serial)")
    parser.add_argument("--compact-logic", action="store_true",
                        help="Section V presence-flagged logic coding")
    parser.add_argument("--raw-output", type=Path, default=None,
                        help="also write the raw bitstream baseline")
    parser.add_argument("--predictor-store", type=Path, default=None,
                        help="persistable feature->codec predictor store "
                             "(JSON): warm-starts the family pass's codec "
                             "shortlists and is saved back extended")


def main_vbsgen(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vbsgen",
        description="Generate a Virtual Bit-Stream from a BLIF netlist.",
    )
    _add_vbsgen_args(parser)
    return _run_vbsgen(parser.parse_args(argv))


def _run_vbsgen(args: argparse.Namespace) -> int:
    from repro.errors import VbsError
    from repro.vbs.codecs import resolve_codecs

    codecs = args.codecs
    if codecs is not None and codecs != "auto":
        codecs = [name.strip() for name in codecs.split(",") if name.strip()]
    try:
        # A typo'd codec name must fail in milliseconds, exit 2, before
        # the expensive CAD flow runs — the registry is the one source
        # of valid names, so the check cannot drift as codecs are added.
        resolve_codecs(codecs)
    except VbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    netlist = parse_blif(args.blif.read_text(), args.blif.stem)
    params = ArchParams(channel_width=args.channel_width,
                        lut_size=args.lut_size)
    print(f"{netlist!r} on {params.describe()}")

    flow = run_flow(netlist, params, seed=args.seed)
    print(flow.summary())

    predictor = None
    if args.predictor_store is not None:
        from repro.vbs.predictor import CodecPredictor

        predictor = CodecPredictor()
        predictor.load(args.predictor_store)
    config = expand_routing(flow.design, flow.placement, flow.routing, flow.rrg)
    vbs = encode_flow(
        flow, config,
        cluster_size=args.cluster_size,
        compact_logic=args.compact_logic,
        codecs=codecs,
        workers=args.workers,
        predictor=predictor,
    )
    out = args.output or args.blif.with_suffix(".vbs")
    out.write_bytes(vbs.to_bits().to_bytes())
    print(f"{vbs!r}\nwrote {out}")
    if vbs.stats.codec_counts:
        counts = ", ".join(
            f"{name}={n}" for name, n in sorted(vbs.stats.codec_counts.items())
        )
        print(f"codecs: {counts}")
    if vbs.stats.clusters_raw:
        print(f"note: {vbs.stats.clusters_raw} cluster(s) used the raw fallback")
    if predictor is not None:
        predictor.save(args.predictor_store)
        skipped = vbs.stats.family_trials_skipped
        print(f"predictor: {vbs.stats.family_trials} codec trials, "
              f"{skipped} skipped "
              f"({len(predictor)} cells, {predictor.hits} hits, "
              f"{predictor.misses} cold, {predictor.fallbacks} re-trials); "
              f"store saved to {args.predictor_store}")

    if args.raw_output is not None:
        raw = RawBitstream.from_config(config)
        args.raw_output.write_bytes(raw.bits.to_bytes())
        print(f"wrote raw baseline {args.raw_output} ({raw.size_bits} bits)")
    return 0


def inspect_summary(vbs: VirtualBitstream, path: Path, num_bytes: int,
                    per_cluster: bool = False) -> dict:
    """JSON-ready container summary with schema-stable keys.

    The key set is part of the tooling contract (asserted by the CLI
    tests): additions are allowed, renames and removals are not.
    """
    from repro.vbs.codecs import codec_by_name
    from repro.vbs.format import PRELUDE_BITS, CodecState

    lay = vbs.layout
    summary = {
        "file": str(path),
        "bytes": num_bytes,
        "version": vbs.source_version or vbs.wire_version,
        "prelude": {
            "cluster_size": lay.cluster_size,
            "channel_width": lay.params.channel_width,
            "lut_size": lay.params.lut_size,
            "compact_logic": lay.compact_logic,
            "width": lay.width,
            "height": lay.height,
        },
        "payload_bits": vbs.size_bits,
        "prelude_bits": PRELUDE_BITS,
        "tag_bits": lay.tag_bits,
        "shared_dict_id": lay.shared_dict_id,
        "dict_patterns": len(lay.dict_table),
        "dict_section_bits": lay.dict_section_bits,
        "records": len(vbs.records),
        "codec_counts": {
            name: count for name, count in sorted(vbs.codec_tags().items())
        },
        "raw_equivalent_bits": vbs.raw_equivalent_bits(),
        "compression_ratio": vbs.compression_ratio(),
    }
    if per_cluster:
        state = CodecState()
        rows = []
        for rec in vbs.records:
            name = rec.codec_name(lay)
            rows.append({
                "pos": list(rec.pos),
                "codec": name,
                "tag": codec_by_name(name).tag,
                "bits": rec.size_bits(lay, state=state),
            })
            state.observe(rec)
        summary["per_cluster"] = rows
    return summary


def _peek_shared_reference(data: bytes) -> dict:
    """Prelude and shared-dictionary id of a container whose external
    table is unavailable — everything readable before the payload.

    Reads through :func:`repro.vbs.format.read_prelude`, the single
    owner of the prelude bit layout, so this peek cannot drift from the
    real parser.
    """
    from repro.utils.bitarray import BitArray, BitReader
    from repro.vbs.format import SHARED_DICT_ID_BITS, read_prelude

    r = BitReader(BitArray.from_bytes(data))
    prelude = read_prelude(r)
    return {
        "version": prelude.version,
        "shared_dict_id": r.read(SHARED_DICT_ID_BITS),
        "prelude": {
            "cluster_size": prelude.cluster_size,
            "channel_width": prelude.channel_width,
            "lut_size": prelude.lut_size,
            "compact_logic": prelude.compact_logic,
            "width": prelude.width,
            "height": prelude.height,
        },
    }


def _print_prelude(prelude: dict) -> None:
    """The human prelude block, shared by the full and stub inspects."""
    print("prelude:")
    print(f"  cluster size    {prelude['cluster_size']}")
    print(f"  channel width   {prelude['channel_width']}")
    print(f"  lut size        {prelude['lut_size']}")
    print(f"  compact logic   {prelude['compact_logic']}")
    print(f"  task            {prelude['width']}x{prelude['height']} macros")


def _inspect_shared_stub(args: argparse.Namespace, data: bytes,
                         reason: str) -> int:
    """Reduced inspect output for an unresolvable shared-dict container.

    The payload cannot be parsed without the task table (dictionary
    records would fabricate logic), but the prelude and the reference
    itself are still worth reporting — and the tool must not traceback
    on the very containers VERSION 4 added.  The exit code is 2 with the
    unresolved id named on stderr: an inspect that could not parse the
    records is a failed inspect, and scripts must be able to tell.
    """
    import json

    peek = _peek_shared_reference(data)
    if args.json:
        summary = {
            "file": str(args.file),
            "bytes": len(data),
            "shared_table_unresolved": reason,
            **peek,
        }
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(f"container: {args.file} ({len(data)} bytes, "
              f"version {peek['version']})")
        _print_prelude(peek["prelude"])
        print(f"shared dictionary: id {peek['shared_dict_id']} — table not "
              f"available, records not parsed")
        print(f"({reason})")
    print(f"error: cannot resolve shared dictionary id "
          f"{peek['shared_dict_id']}: {reason}", file=sys.stderr)
    return 2


def _run_vbs_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.errors import SharedDictUnresolvedError, VbsError
    from repro.utils.bitarray import BitArray
    from repro.vbs.codecs import codec_by_name
    from repro.vbs.format import PRELUDE_BITS

    data = args.file.read_bytes()
    try:
        vbs = VirtualBitstream.from_bits(BitArray.from_bytes(data))
    except SharedDictUnresolvedError as exc:
        return _inspect_shared_stub(args, data, str(exc))
    except VbsError as exc:
        # A malformed or truncated container is a failed inspect.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lay = vbs.layout
    if args.json:
        summary = inspect_summary(
            vbs, args.file, len(data), per_cluster=args.per_cluster
        )
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    print(f"container: {args.file} ({len(data)} bytes, "
          f"version {vbs.source_version})")
    _print_prelude({
        "cluster_size": lay.cluster_size,
        "channel_width": lay.params.channel_width,
        "lut_size": lay.params.lut_size,
        "compact_logic": lay.compact_logic,
        "width": lay.width,
        "height": lay.height,
    })
    print(f"payload: {vbs.size_bits} bits Table I accounting "
          f"(+{PRELUDE_BITS} prelude)")
    print(f"codec tag field: {lay.tag_bits} bits"
          + (" (VERSION 4 wide tags)" if lay.tag_bits > 3 else ""))
    if lay.shared_dict_id is not None:
        print(f"shared dictionary: id {lay.shared_dict_id}, "
              f"{len(lay.dict_table)} pattern(s) resolved externally")
    elif lay.dict_table:
        print(f"dictionary: {len(lay.dict_table)} embedded pattern(s), "
              f"{lay.dict_section_bits} bits")
    print(f"records: {len(vbs.records)} listed cluster(s)")
    counts = vbs.codec_tags()
    for name in sorted(counts):
        tag = codec_by_name(name).tag
        print(f"  codec {name!r} (tag {tag}): {counts[name]} record(s)")
    if args.per_cluster:
        from repro.vbs.format import CodecState

        state = CodecState()
        for rec in vbs.records:
            name = rec.codec_name(lay)
            print(f"  ({rec.pos[0]:>3},{rec.pos[1]:>3})  {name:<8}"
                  f"{rec.size_bits(lay, state=state):>8} bits")
            state.observe(rec)
    ratio = vbs.compression_ratio()
    print(f"raw equivalent: {vbs.raw_equivalent_bits()} bits")
    print(f"compression ratio: {ratio:.4f} ({ratio:.1%} of raw)")
    return 0


def _run_runtime_simulate(args: argparse.Namespace) -> int:
    import json

    from repro.errors import RuntimeManagementError
    from repro.runtime.manager import BEST_FIT, FIRST_FIT
    from repro.runtime.workload import run_scenario, summarize_report

    try:
        report = run_scenario(
            kind=args.kind,
            n_tasks=args.tasks,
            length=args.length,
            seed=args.seed,
            channel_width=args.channel_width,
            cluster_size=args.cluster_size,
            cache_capacity=args.capacity,
            cache_capacity_bytes=args.capacity_bytes or None,
            memo_entries=args.memo_entries,
            strategy=BEST_FIT if args.best_fit else FIRST_FIT,
            codecs="auto" if args.auto_codecs else None,
            arrivals=args.arrivals,
            mean_interarrival=args.mean_interarrival,
            zipf_alpha=args.zipf_alpha,
            task_scope=args.task_scope,
            containers_per_task=args.containers_per_task,
            shards=args.shards,
            router=args.router,
            migrate_backlog=args.migrate_backlog,
            servers=args.servers,
            policy=args.policy,
            queue_threshold=args.queue_threshold,
        )
    except RuntimeManagementError as exc:
        # An unknown mix/arrival name (or any scenario misconfiguration)
        # must fail loudly with a non-zero exit — silently simulating a
        # different mix than the one asked for would poison any tooling
        # consuming the --json artifact.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize_report(report))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _run_tasks_run(args: argparse.Namespace) -> int:
    import json

    from repro.eval.tasks import TaskSuiteError, run_suite, save_golden

    try:
        report = run_suite(
            args.suite, args.results_dir, force=args.force,
            progress=lambda p: print(f"  {p.key}"),
        )
    except TaskSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"suite {report.suite['name']}: {len(report.points)} point(s)")
    if args.update_golden:
        path = save_golden(report)
        print(f"wrote golden {path}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(report.to_json(), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _run_tasks_check(args: argparse.Namespace) -> int:
    import json

    from repro.eval.tasks import (
        TaskSuiteError,
        compare_to_golden,
        load_golden,
        run_suite,
        summarize_comparison,
    )

    try:
        report = run_suite(
            args.suite, args.results_dir, force=args.force,
            progress=lambda p: print(f"  {p.key}"),
        )
        golden = load_golden(report.suite_path, report.suite)
    except TaskSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if golden is None:
        # A check without goldens must not silently pass — that is how
        # QoR drift goes unnoticed until it compounds.
        print(f"error: no golden results for {args.suite} "
              f"(run `repro tasks run {args.suite} --update-golden`)",
              file=sys.stderr)
        return 2
    comparison = compare_to_golden(report, golden)
    print(summarize_comparison(comparison))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            {"suite": report.suite["name"], **comparison},
            indent=1, sort_keys=True,
        ) + "\n")
        print(f"wrote {args.json}")
    return 0 if comparison["passed"] else 1


def _add_tasks_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("suite", type=Path, help="suite JSON file")
    parser.add_argument("--results-dir", type=Path, default=Path("results"),
                        help="point-cache root (default: results/)")
    parser.add_argument("--force", action="store_true",
                        help="recompute every point, ignoring the cache")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the machine-readable report here")


def main(argv: "list[str] | None" = None) -> int:
    """The ``repro`` umbrella command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compressed-FPGA-configuration design flow and runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("vbsgen", help="generate a VBS from a BLIF netlist")
    _add_vbsgen_args(gen)
    gen.set_defaults(func=_run_vbsgen)

    vbs = sub.add_parser("vbs", help="Virtual Bit-Stream container tools")
    vbs_sub = vbs.add_subparsers(dest="vbs_command", required=True)
    inspect = vbs_sub.add_parser(
        "inspect", help="print prelude, codec tags and compression ratio"
    )
    inspect.add_argument("file", type=Path, help=".vbs container file")
    inspect.add_argument("--per-cluster", action="store_true",
                         help="also list every cluster record")
    inspect.add_argument("--json", action="store_true",
                         help="machine-readable summary (stable key schema)")
    inspect.set_defaults(func=_run_vbs_inspect)

    runtime = sub.add_parser("runtime", help="run-time manager tools")
    runtime_sub = runtime.add_subparsers(dest="runtime_command", required=True)
    sim = runtime_sub.add_parser(
        "simulate",
        help="replay a seeded multi-task workload trace through the "
             "fabric manager",
    )
    # The kind is validated by generate_trace in the handler (exit 2 on
    # an unknown name), not by argparse choices: every other subcommand
    # defers its heavy imports into the _run_* handler, and a literal
    # choices duplicate silently lagged behind TRACE_KINDS once already.
    sim.add_argument("--kind", default="hot-set",
                     help="arrival mix of the generated trace: hot-set, "
                          "round-robin, adversarial or zipf")
    sim.add_argument("--tasks", type=int, default=3,
                     help="synthetic task images to generate")
    sim.add_argument("--length", type=int, default=40,
                     help="trace length in events")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--arrivals", default=None,
                     help="open-loop arrival process ('poisson'): stamp "
                          "requests with virtual timestamps and report "
                          "p50/p95/p99 latency, queue depth and per-phase "
                          "breakdowns (default: closed loop)")
    sim.add_argument("--mean-interarrival", type=int, default=2000,
                     help="mean Poisson inter-arrival gap in cycles")
    sim.add_argument("--zipf-alpha", type=float, default=1.1,
                     help="popularity skew of the zipf mix")
    # Like --kind, the shard count and router name are validated in the
    # handler (exit 2 with a stderr message on a non-positive count or an
    # unknown router), not by argparse choices — see the note above.
    sim.add_argument("--shards", type=int, default=1,
                     help="fabric shards in the fleet (1 = the single-"
                          "fabric simulator, byte-identical report)")
    sim.add_argument("--router", default="hash",
                     help="fleet placement router: 'hash' (consistent "
                          "hashing on the task name) or 'load' "
                          "(least-loaded shard by recorded queue depth "
                          "and latency)")
    sim.add_argument("--migrate-backlog", type=int, default=None,
                     help="cross-shard saturation migration threshold in "
                          "backlog cycles (needs --arrivals poisson and "
                          "--shards >= 2; default: migration off)")
    sim.add_argument("--servers", type=int, default=1,
                     help="parallel reconfiguration servers per fabric "
                          "on the open-loop clock (1 = the historical "
                          "single-server model, byte-identical report)")
    sim.add_argument("--policy", default=None,
                     help="admission policy at the arrival door: none "
                          "or defer-cold (needs --arrivals poisson, "
                          "single fabric)")
    sim.add_argument("--queue-threshold", type=int, default=4,
                     help="queue depth at which defer-cold starts "
                          "deferring cold requests")
    sim.add_argument("--task-scope", action="store_true",
                     help="synthesize multi-container task groups through "
                          "encode_task (VERSION 4 shared dictionaries "
                          "refcounted under eviction pressure)")
    sim.add_argument("--containers-per-task", type=int, default=2,
                     help="containers per task group with --task-scope")
    sim.add_argument("-W", "--channel-width", type=int, default=8)
    sim.add_argument("-c", "--cluster-size", type=int, default=1)
    sim.add_argument("--capacity", type=int, default=16,
                     help="decode cache entry capacity (0 disables the "
                          "count bound; caching stays on if "
                          "--capacity-bytes is set)")
    sim.add_argument("--capacity-bytes", type=int, default=None,
                     help="decode cache byte budget in expanded-image "
                          "bytes (0 = no byte bound)")
    sim.add_argument("--memo-entries", type=int, default=4096,
                     help="controller DecodeMemo bound (0 disables reuse)")
    sim.add_argument("--best-fit", action="store_true",
                     help="adjacency-aware best-fit placement "
                          "(default first-fit)")
    sim.add_argument("--auto-codecs", action="store_true",
                     help="encode task images with codecs=auto")
    sim.add_argument("--json", type=Path, default=None,
                     help="also write the machine-readable report here")
    sim.set_defaults(func=_run_runtime_simulate)

    tasks = sub.add_parser(
        "tasks",
        help="declarative evaluation suites (arch x circuit x codec grids)",
    )
    tasks_sub = tasks.add_subparsers(dest="tasks_command", required=True)
    trun = tasks_sub.add_parser(
        "run",
        help="expand a suite file and run every point through the "
             "cached eval pipeline",
    )
    _add_tasks_point_args(trun)
    trun.add_argument("--update-golden", action="store_true",
                      help="record this run's metrics as the suite's "
                           "golden results")
    trun.set_defaults(func=_run_tasks_run)
    tcheck = tasks_sub.add_parser(
        "check",
        help="run a suite and compare QoR against its golden results "
             "(exit 1 on any out-of-tolerance delta)",
    )
    _add_tasks_point_args(tcheck)
    tcheck.set_defaults(func=_run_tasks_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
