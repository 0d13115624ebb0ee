"""The repository benchmark: one command, four workloads, both halves.

Run one workload (one fresh process per run; the last stdout line is the
JSON result)::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 12 --trace 0

Run every workload, each in its own process, one row per workload (exit
status 1 on any failure or determinism mismatch)::

    python3 perfbench/run.py --seed 1 --seconds 12 [--repeat 2] [--out r.json]

Compare two saved ``--out`` files (refused across bit-kernel backends or
Python versions)::

    python3 perfbench/run.py --compare parent.json change.json

See README.md for the metrics, the workloads and what each layer's
numbers should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import (  # noqa: E402
    Tracer,
    install,
    median,
    percentile,
    self_times,
    tag_requests,
    validate_name,
)

WORKLOAD_NAMES = ("flow", "codec", "replay", "fleet")

#: End-to-end metrics: name -> unit.  Measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "container_bits": "bits",
    "wirelength": "wires",
    "cold_load_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers whose public calls are spanned in a traced run.
SPAN_LAYERS = (
    "netlist.lutmap",
    "cad.pack",
    "cad.place",
    "arch.rrg",
    "cad.route",
    "bitstream.expand",
    "vbs.encode",
    "vbs.format.to_bits",
    "vbs.format.from_bits",
    "vbs.decode",
    "runtime.controller.load",
    "runtime.controller.unload",
    "runtime.controller.migrate",
    "runtime.manager.make_room",
    "runtime.manager.place_task",
    "runtime.workload.replay",
)
#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    **{f"{layer}.s": "s" for layer in SPAN_LAYERS[:-1]},
    "runtime.workload.replay.self_s": "s",
    **{f"{layer}.calls": "count" for layer in SPAN_LAYERS},
    "fabric.equivalence.s": "s",
    "cad.place.cost": "cost",
    "cad.route.iterations": "count",
    "cad.route.max_occupancy": "count",
    "arch.rrg.nodes": "count",
    "cad.pack.clbs": "count",
    "vbs.encode.orders_tried": "count",
    "vbs.encode.offline_decode_work": "count",
    "vbs.encode.family_trials": "count",
    "vbs.encode.memo_reuse_ratio": "ratio",
    "vbs.encode.raw_cluster_ratio": "ratio",
    "vbs.decode.router_work": "count",
    "vbs.decode.max_cluster_work": "count",
    "runtime.controller.memo_hit_ratio": "ratio",
    "runtime.costmodel.hit_ratio": "ratio",
    "runtime.costmodel.evictions": "count",
    "runtime.workload.sim_p99_cycles": "cycles",
    "runtime.workload.sim_queue_wait_p99_cycles": "cycles",
    "runtime.workload.sim_utilization": "ratio",
    "runtime.admission.deferred": "count",
    "runtime.admission.dropped": "count",
    "runtime.fleet.migrations": "count",
    "runtime.fleet.shard_imbalance": "ratio",
    "runtime.fleet.shared_dict_faults": "count",
    "runtime.fleet.shared_dict_drops": "count",
    "trace.overhead_s": "s",
}
for _name in (*END_TO_END, *PER_LAYER):
    validate_name(_name)

#: Set-up repeats until it ran this many times and this long (or the cap).
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 25


def trace_targets():
    """``(owner, attribute, span name)`` of every public layer call."""
    import repro.bitstream.expand as expand_mod
    import repro.cad.flow as flow_mod
    import repro.fabric.equivalence as equivalence_mod
    import repro.runtime.controller as controller_mod
    import repro.vbs.decode as decode_mod
    import repro.vbs.encode as encode_mod
    from repro.runtime import FabricManager, ReconfigurationController, WorkloadSimulator

    return [
        (flow_mod, "map_to_luts", "netlist.lutmap"),
        (flow_mod, "pack", "cad.pack"),
        (flow_mod, "place", "cad.place"),
        (flow_mod, "routing_graph_for", "arch.rrg"),
        (flow_mod, "route_design", "cad.route"),
        (expand_mod, "expand_routing", "bitstream.expand"),
        (encode_mod, "encode_flow", "vbs.encode"),
        (encode_mod, "encode_task", "vbs.encode"),
        (encode_mod.VirtualBitstream, "to_bits", "vbs.format.to_bits"),
        (encode_mod.VirtualBitstream, "from_bits", "vbs.format.from_bits"),
        (decode_mod, "decode_vbs", "vbs.decode"),
        (controller_mod, "decode_vbs", "vbs.decode"),
        (equivalence_mod, "verify_functional", "fabric.equivalence"),
        (ReconfigurationController, "load_task", "runtime.controller.load"),
        (ReconfigurationController, "unload_task", "runtime.controller.unload"),
        (ReconfigurationController, "migrate_task", "runtime.controller.migrate"),
        (FabricManager, "make_room", "runtime.manager.make_room"),
        (FabricManager, "place_task", "runtime.manager.place_task"),
        (WorkloadSimulator, "run", "runtime.workload.replay"),
    ]


class RequestClock:
    """Replay observer timing each request (events sharing an arrival).

    The simulator calls the observer after every processed event, so a
    request's host time runs from the previous request's last event to
    its own last event, the engine's own bookkeeping included.  Only
    requests carrying a load or a migration are sampled.
    """

    def __init__(self, label: str, keep_windows: bool):
        self.label = label
        self.keep_windows = keep_windows
        self.samples_ns = []
        self.windows = []  # (request id, start ns, end ns)
        self.groups = 0
        self._at = self._start = self._last = None
        self._serviced = False

    def begin(self) -> None:
        self._last = time.perf_counter_ns()

    def __call__(self, event) -> None:
        now = time.perf_counter_ns()
        if event.at != self._at or self._start is None:
            self._close()
            self._at, self._start, self._serviced = event.at, self._last, False
        if event.op in ("load", "migrate"):
            self._serviced = True
        self._last = now

    def _close(self) -> None:
        if self._start is None:
            return
        self.groups += 1
        if self._serviced:
            self.samples_ns.append(self._last - self._start)
        if self.keep_windows:
            self.windows.append((f"{self.label}:{self._at}", self._start, self._last))

    def finish(self) -> None:
        self._close()
        self._start = None


def _digest(compiled) -> str:
    h = hashlib.sha256()
    for dict_id in sorted(compiled.tables):
        for pattern in compiled.tables[dict_id]:
            h.update(b"T%d:%d:" % (dict_id, len(pattern)) + pattern.to_bytes())
    for c in compiled.containers:
        h.update(f"{c.name}:{len(c.bits)}:".encode() + c.bits.to_bytes())
    return h.hexdigest()


def cold_load(compiled, fail):
    """Load every container once through a cache-less, memo-less controller."""
    from repro.errors import ReproError
    from repro.runtime import ExternalMemory, ReconfigurationController
    from workloads import fabric_for, publish

    memory = ExternalMemory()
    publish(memory, compiled)
    ctrl = ReconfigurationController(
        fabric_for(compiled.containers), memory,
        cache_capacity=None, memo_entries=None,
    )
    times, cycles, work, max_work = [], [], 0, 0
    for c in compiled.containers:
        t0 = time.perf_counter_ns()
        try:
            task = ctrl.load_task(c.name, (0, 0))
        except ReproError as exc:
            fail(f"cold load of {c.name}: {exc}")
            continue
        times.append(time.perf_counter_ns() - t0)
        cycles.append(task.load_cost.total_cycles)
        work += task.decode_stats.router_work
        max_work = max(max_work, task.decode_stats.max_cluster_work)
        ctrl.unload_task(c.name)
    return times, cycles, work, max_work


def verify(compiled, fail, counts) -> None:
    """Decode every container and check it against its source netlist."""
    import repro.fabric.equivalence as equivalence_mod
    import repro.vbs.decode as decode_mod
    from repro.errors import ReproError
    from repro.vbs.encode import VirtualBitstream

    for c in compiled.containers:
        src = c.source
        try:
            vbs = VirtualBitstream.from_bits(c.bits, shared_dicts=compiled.tables.get)
            config, _stats = decode_mod.decode_vbs(vbs)
            t0 = time.perf_counter()
            equivalence_mod.verify_functional(
                src.netlist, src.design, src.placement, config, src.fabric
            )
            counts["fabric.equivalence.s"] = (
                counts.get("fabric.equivalence.s", 0) + time.perf_counter() - t0
            )
        except ReproError as exc:
            fail(f"container {c.name} is not equivalent: {exc}")


def replay_counts(report, controllers) -> dict:
    admission = report.get("admission", {})
    counts = {
        "runtime.costmodel.hit_ratio": report["cache"]["hit_rate"],
        "runtime.costmodel.evictions": report["cache"]["evictions"],
        "runtime.workload.sim_queue_wait_p99_cycles": report["latency"]["queueing"]["p99"],
        "runtime.workload.sim_utilization": report["clock"]["utilization"],
        "runtime.admission.deferred": admission.get("deferred", 0),
        "runtime.admission.dropped": admission.get("dropped", 0),
    }
    memos = [c.decode_memo for c in controllers if c.decode_memo is not None]
    lookups = sum(m.hits + m.misses for m in memos)
    counts["runtime.controller.memo_hit_ratio"] = (
        sum(m.hits for m in memos) / lookups if lookups else 0.0
    )
    fleet = report.get("fleet")
    if fleet is not None:
        serviced = [(s["latency"] or {}).get("requests", 0) for s in report["shards"]]
        mean = sum(serviced) / len(serviced)
        counts.update({
            "runtime.fleet.migrations": fleet["cross_migrations"],
            "runtime.fleet.shard_imbalance": max(serviced) / mean if mean else 0.0,
            "runtime.fleet.shared_dict_faults": fleet["shared_dicts"]["faults"],
            "runtime.fleet.shared_dict_drops": fleet["shared_dicts"]["drops"],
        })
    return counts


def run_pass(wl, index: int, tracer: Tracer, check: bool, fail) -> dict:
    """One pass: compile, cold-load, (verify,) replay.  Returns its record."""
    rec = {"index": index, "traced": tracer.enabled}
    t0 = time.perf_counter()
    with tracer.span("bench.compile"):
        compiled = wl.compile()
    rec["compile_s"] = time.perf_counter() - t0
    counts = dict(compiled.counts)
    with tracer.span("bench.cold_load"):
        times, cycles, work, max_work = cold_load(compiled, fail)
    rec["cold_load_s"] = sum(times) / 1e9
    rec["wall_s"] = rec["compile_s"] + rec["cold_load_s"]
    counts["vbs.decode.router_work"] = work
    counts["vbs.decode.max_cluster_work"] = max_work
    rec["attempted"] = len(compiled.containers)
    if check:
        verify(compiled, fail, counts)
        rec["attempted"] += len(compiled.containers)
    rec["bits"] = compiled.bits
    rec["wirelength"] = wl.wirelength(compiled)
    rec["container_digest"] = _digest(compiled)
    if wl.replays:
        clock = RequestClock(str(index), keep_windows=tracer.enabled)
        first = len(tracer.spans)
        with tracer.span("bench.replay"):
            clock.begin()
            t1 = time.perf_counter_ns()
            report = wl.replay(compiled, clock)
            wall_ns = time.perf_counter_ns() - t1
            clock.finish()
        tag_requests(tracer.spans, clock.windows, first)
        counts.update(replay_counts(report, wl.controllers))
        failed_loads = report["events"]["failed_loads"]
        dropped = counts["runtime.admission.dropped"]
        if failed_loads or dropped:
            fail(f"replay: {failed_loads} failed loads, {dropped} dropped requests",
                 failed_loads + dropped)
        rec["attempted"] += clock.groups + dropped
        rec["wall_s"] += wall_ns / 1e9
        rec["request_ns"] = clock.samples_ns
        rec["requests_per_s"] = len(clock.samples_ns) / (wall_ns / 1e9)
        rec["sim_p99_cycles"] = report["latency"]["p99"]
        rec["report_digest"] = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()
    else:
        # The compile user's requests are the cold loads of its containers.
        rec["request_ns"] = times
        rec["requests_per_s"] = len(times) / rec["cold_load_s"]
        rec["sim_p99_cycles"] = percentile(cycles, 99)[0]
        rec["report_digest"] = hashlib.sha256(json.dumps(cycles).encode()).hexdigest()
    rec["counts"] = counts
    return rec


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.utils.bitkernels import BACKEND
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    setups = []
    while (
        len(setups) < SETUP_MIN_REPS or sum(setups) < SETUP_MIN_S
    ) and len(setups) < SETUP_MAX_REPS:
        t0 = time.perf_counter()
        wl.setup(seed)
        setups.append(time.perf_counter() - t0)

    # Pass 0 warms lazily built program state and checks every container;
    # it is not timed.  A traced run alternates untraced and traced
    # passes after it, so their difference is the tracing overhead.
    problems = []  # (message, failed operations)

    def fail(message: str, ops: int = 1) -> None:
        problems.append((message, ops))

    tracer = Tracer()
    untraced = Tracer(enabled=False)
    passes = []
    min_passes = 3 if trace else 2
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        index = len(passes)
        traced = trace and index >= 2 and index % 2 == 0
        undo = install(tracer, trace_targets()) if traced else None
        try:
            passes.append(run_pass(
                wl, index, tracer if traced else untraced,
                check=index == 0, fail=fail,
            ))
        finally:
            if undo is not None:
                undo()

    first = passes[0]
    for rec in passes[1:]:
        for key in ("container_digest", "report_digest", "bits", "wirelength", "sim_p99_cycles"):
            if rec[key] != first[key]:
                fail(f"pass {rec['index']} {key} differs from pass 0")

    timed = [p for p in passes[1:] if not p["traced"]]
    requests_ns = [t for p in timed for t in p["request_ns"]]
    p50 = percentile(requests_ns, 50)
    p99 = percentile(requests_ns, 99)
    if trace:
        traced = [p for p in passes if p["traced"]]
        values, units = layer_metrics(tracer, traced, first, timed), PER_LAYER
        os.makedirs(".perfbench_out", exist_ok=True)
        tracer.write(
            os.path.join(".perfbench_out", f"trace-{name}-{seed}.json"),
            {"workload": name, "seed": seed, "traced_passes": len(traced)},
        )
    else:
        values = {
            "setup_s": median(setups),
            "compile_s": median([p["compile_s"] for p in timed]),
            "container_bits": first["bits"],
            "wirelength": first["wirelength"],
            "cold_load_s": median([p["cold_load_s"] for p in timed]),
            "request_ms_p50": p50[0] / 1e6,
            "request_ms_p99": p99[0] / 1e6,
            "requests_per_s": median([p["requests_per_s"] for p in timed]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    info = {
        "workload": name,
        "seed": seed,
        "backend": BACKEND,
        "python": sys.version.split()[0],
        "passes": len(passes),
        "setup_reps": len(setups),
        "request_samples": p99[1],
        "request_p99_beyond": p99[2],
        "container_digest": first["container_digest"],
        "report_digest": first["report_digest"],
        "deterministic": {
            "container_bits": first["bits"],
            "wirelength": first["wirelength"],
            "sim_p99_cycles": first["sim_p99_cycles"],
        },
        "problems": [message for message, _ops in problems[:20]],
    }
    for message, _ops in problems:
        print(f"FAILED: {message}", file=sys.stderr)
    print_table(name, values, units, sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(ops for _message, ops in problems),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 1 if problems else 0


def layer_metrics(tracer, traced, first, timed) -> dict:
    """Per-layer numbers of the traced passes (per pass), plus overhead."""
    n = len(traced)
    selfs, calls = self_times(tracer.spans)
    counts = traced[-1]["counts"]
    values = {}
    for layer in SPAN_LAYERS:
        key = "runtime.workload.replay.self_s" if layer == SPAN_LAYERS[-1] else f"{layer}.s"
        values[key] = selfs.get(layer, 0.0) / n
        values[f"{layer}.calls"] = calls.get(layer, 0) / n
    for key in PER_LAYER:
        values.setdefault(key, counts.get(key, 0))
    values["fabric.equivalence.s"] = first["counts"].get("fabric.equivalence.s", 0.0)
    values["runtime.workload.sim_p99_cycles"] = first["sim_p99_cycles"]
    orders = counts.get("vbs.encode.orders_tried", 0)
    clusters = counts.get("vbs.encode.clusters", 0)
    values["vbs.encode.memo_reuse_ratio"] = (
        counts.get("vbs.encode.decode_reuse_hits", 0) / orders if orders else 0.0
    )
    values["vbs.encode.raw_cluster_ratio"] = (
        counts.get("vbs.encode.clusters_raw", 0) / clusters if clusters else 0.0
    )
    values["trace.overhead_s"] = (
        median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in timed])
    )
    return values


def print_table(name, values, units, out) -> None:
    print(f"-- {name}", file=out)
    for key in units:
        value = values[key]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {key:44s} {text:>14s} {units[key]}", file=out)


# -- every workload, each in its own process --------------------------------------


def run_all(args) -> int:
    rows, bad = [], False
    for name in WORKLOAD_NAMES:
        runs = []
        for _ in range(args.repeat):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name}: run failed (exit {proc.returncode})")
                bad = True
                break
            runs.append({**json.loads(lines[-2]), **json.loads(lines[-1])})
        if not runs:
            continue
        first = runs[0]["info"]
        for other in runs[1:]:
            for key in ("container_digest", "report_digest", "deterministic"):
                if other["info"][key] != first[key]:
                    print(f"{name}: {key} differs between runs of seed {args.seed}")
                    bad = True
        rows.append({"workload": name, "info": first, "runs": runs})
    units = PER_LAYER if args.trace else END_TO_END
    for row in rows:
        info = row["info"]
        print(f"{row['workload']}: backend={info['backend']} python={info['python']} "
              f"passes={info['passes']} requests={info['request_samples']} "
              f"containers={info['container_digest'][:16]} report={info['report_digest'][:16]}")
        for key in units:
            value = median([r["metrics"][key]["value"] for r in row["runs"]])
            print(f"   {key:44s} {value:14.6g} {units[key]}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "trace": args.trace, "rows": rows}, fh, indent=1)
    return 1 if bad else 0


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    by_name = {row["workload"]: row for row in b["rows"]}
    for row in a["rows"]:
        other = by_name.get(row["workload"])
        if other is None:
            continue
        for key in ("backend", "python"):
            if row["info"][key] != other["info"][key]:
                print(f"refusing to compare {row['workload']}: {key} "
                      f"{row['info'][key]} vs {other['info'][key]}")
                return 2
        same = all(
            row["info"][k] == other["info"][k]
            for k in ("container_digest", "report_digest")
        )
        print(f"{row['workload']}: outputs {'byte-identical' if same else 'DIFFER'}")
        for key in row["runs"][0]["metrics"]:
            va = median([r["metrics"][key]["value"] for r in row["runs"]])
            vb = median([r["metrics"][key]["value"] for r in other["runs"]])
            ratio = f"{vb / va:.3f}x" if va else "n/a"
            print(f"   {key:44s} {va:14.6g} {vb:14.6g} {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload in the all-workloads mode")
    ap.add_argument("--out", help="save the all-workloads rows as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
