#!/usr/bin/env python3
"""End-to-end benchmark of the paper pipeline and the streaming service.

Builds the perfbench program (perfbench/CMakeLists.txt) from the src/ tree,
runs one workload, checks its outputs and prints one JSON line with
the metrics BENCHMARK.json names:

    python3 perfbench/run.py --workload repro_cold --seed 1 \
        --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
alternates untraced and traced passes and reports the per-layer
metrics derived from the traced passes' spans. --update-reference
rewrites perfbench/reference.json from a run at the paper seed.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("repro_cold", "repro_warm", "stream_drift")
PAPER_SEED = 0x5EED2007
PROGRAM_TIMEOUT_S = 170

# Paper Tables 3/4 average errors (%), CPU/chipset/memory/I-O/disk,
# over 7 integer and 5 floating-point workloads.
PAPER_TABLE3 = (7.06, 6.18, 6.22, 1.16, 0.19)
PAPER_TABLE4 = (6.13, 5.67, 12.41, 0.35, 0.67)
PAPER_ERROR_PCT = (7 * sum(PAPER_TABLE3) + 5 * sum(PAPER_TABLE4)) / 60

# Span names the program records, one per layer call it times.
LAYER_SPANS = (
    "platform.build", "platform.teardown", "sim.run", "measure.collect",
    "exp.map", "trace.lookup", "trace.store", "core.train",
    "core.validate", "common.render", "stream.offer", "stream.tick",
    "stream.checkpoint", "bench.loadgen",
)
PROFILES = ("idle", "gcc", "mcf", "vortex", "art", "lucas", "mesa",
            "mgrid", "wupwise", "dbt2", "specjbb", "diskload")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_program():
    """Configure and build the program; return its build directory and path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no src/ tree next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return build_dir, os.path.join(build_dir, "perfbench")


def run_program(program, scratch, workload, seed, seconds, trace):
    """Run one workload with one pool worker per usable CPU.

    stream_drift runs its service with one worker: the pool starts and
    joins fresh threads on every tick, so with more workers its tick
    times measured the host's vCPU wake-up latency, which swung them
    by a factor of two between runs on a shared VM."""
    jobs = 1 if workload == "stream_drift" else len(os.sched_getaffinity(0))
    out = os.path.join(scratch, "result.json")
    subprocess.run([program, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--jobs", str(jobs),
                    "--trace", "1" if trace else "0", "--out", out,
                    "--scratch", os.path.join(scratch, "work")],
                   check=True, stdout=sys.stderr, timeout=PROGRAM_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(min_ops):
    """Highest percentile (0.1 steps) with ten of min_ops beyond it."""
    return math.floor(1000.0 * (min_ops - 10) / min_ops) / 10.0


def op_tail(ops, min_ops):
    """Tail of a run's operations at the percentile min_ops fixes.

    The percentile does not move with the pass count, and as long as
    the slowest kind of operation is more than 100 - pct percent of
    each pass, it falls inside that kind."""
    pct = tail_percentile(min_ops)
    return nearest_rank(sorted(ops), pct), pct


def reference_key(workload):
    return "repro" if workload.startswith("repro_") else workload


def check_outputs(result):
    """Compare outputs across passes, set-up and the committed reference.

    Returns (attempted, failed, problems)."""
    workload = result["workload"]
    passes = result["passes"]
    problems = []
    attempted = 0
    failed = 0

    first = passes[0]["check"]
    for i, p in enumerate(passes[1:], 1):
        for key, value in first.items():
            attempted += 1
            if p["check"].get(key) != value:
                failed += 1
                problems.append(f"pass {i}: {key} differs from pass 0")
    for i, setup in enumerate(result["setup_checks"]):
        for key, value in setup.items():
            attempted += 1
            if first.get(key) != value:
                failed += 1
                problems.append(f"set-up {i}: {key} differs from the passes")

    paper = result["reference"] or (
        first if result["seed"] == PAPER_SEED else {})
    with open(REFERENCE) as f:
        expected = json.load(f)[reference_key(workload)]
    for key, value in expected.items():
        attempted += 1
        if paper.get(key) != value:
            failed += 1
            problems.append(f"paper seed: {key} does not match "
                            "perfbench/reference.json")

    # The run's own seed has no committed reference: check invariants.
    for i, p in enumerate(passes):
        c = p["check"]
        if workload.startswith("repro_"):
            attempted += len(p["ops_ms"])
            if not 0.0 < float(c["model_error_pct"]) < 2 * PAPER_ERROR_PCT:
                failed += 1
                problems.append(f"pass {i}: model error "
                                f"{c['model_error_pct']}% off the paper's")
        else:
            offered = p["samples"]
            attempted += offered
            refused = sum(int(c[k]) for k in
                          ("stream.shed", "stream.overflow",
                           "stream.invalid"))
            failed += refused
            if refused:
                problems.append(f"pass {i}: {refused} samples refused")
            if int(c["stream.checkpoint_failures"]):
                failed += 1
                problems.append(f"pass {i}: checkpoint writes failed")
            if not (int(c["stream.drift_engaged"]) and
                    int(c["stream.drift_recovered"])):
                failed += 1
                problems.append(f"pass {i}: drift not engaged and "
                                "recovered")
    return attempted, failed, problems


def end_to_end(result, passes):
    ops = [ms for p in passes for ms in p["ops_ms"]]
    tail, pct = op_tail(ops, result["min_ops"])
    metrics = {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "pass_wall_s": (statistics.median(p["wall_s"] for p in passes),
                        "s"),
        "samples_per_s": (statistics.median(
            p["samples"] / p["service_s"] for p in passes), "1/s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, (f"p{pct:g} of {len(ops)} ops (ten of the "
                     f"{result['min_ops']} every run times lie beyond it)")


def wall_shares(spans, root):
    """Split the pass's wall time among the innermost active spans.

    At every instant the wall clock is shared equally by the spans
    that are open and have no open child (on a pool, the spans of all
    busy workers); time with only the pass open is unattributed."""
    events = []
    for s in spans:
        start = max(s["start"], root["start"])
        end = min(s["end"], root["end"])
        if end > start:
            events.append((start, 1, s))
            events.append((end, 0, s))
    # At equal times: ends first, children (later ids) ending before
    # their parents and starting after them.
    events.sort(key=lambda e: (e[0], e[1],
                               e[2]["id"] if e[1] else -e[2]["id"]))
    shares = {name: 0.0 for name in LAYER_SPANS}
    unattributed = 0.0
    active = {}
    open_children = {}
    last = root["start"]
    for t, is_start, s in events:
        if t > last:
            leaves = [a for a in active.values()
                      if not open_children.get(a["id"])]
            if leaves:
                for a in leaves:
                    shares[a["name"]] += (t - last) / len(leaves)
            else:
                unattributed += t - last
            last = t
        parent = s["parent"]
        if is_start:
            active[s["id"]] = s
            if parent in active:
                open_children[parent] = open_children.get(parent, 0) + 1
        else:
            active.pop(s["id"], None)
            if parent in active:
                open_children[parent] -= 1
    unattributed += root["end"] - last
    return shares, unattributed


# Per-layer metrics and their units, in BENCHMARK.json's order.
PER_LAYER_UNITS = {
    "sim.run_s": "s",
    "sim.rate": "sim_s/s",
    **{f"sim.{name}.us_per_sim_s": "us/sim_s" for name in PROFILES},
    "sim.quanta": "count",
    "sim.events": "count",
    "sim.objects": "count",
    "platform.build_ms": "ms",
    "platform.teardown_ms": "ms",
    "measure.collect_ms": "ms",
    "measure.samples": "count",
    "exp.busy_ratio": "ratio",
    "exp.tail_s": "s",
    "trace.store_ms": "ms",
    "trace.lookup_ms": "ms",
    "trace.bytes": "B",
    "trace.hits": "count",
    "trace.misses": "count",
    "core.train_ms": "ms",
    "core.validate_ms": "ms",
    "core.train_discarded": "count",
    "core.model_error_pct": "%",
    "common.render_ms": "ms",
    "stream.offer_ns": "ns",
    "stream.accepted": "count",
    "stream.shed": "count",
    "stream.invalid": "count",
    "stream.session_bytes": "B",
    "stream.tick_ms": "ms",
    "stream.refits": "count",
    "stream.full_qr_refits": "count",
    "stream.checkpoint_ms": "ms",
    "stream.checkpoint_bytes": "B",
    "bench.loadgen_ms": "ms",
    **{f"share.{name}": "%" for name in LAYER_SPANS},
    "share.unattributed": "%",
    "trace.overhead_pct": "%",
}

# Pass counts and checks reported as they are (0 where absent).
COUNTED = ("sim.quanta", "sim.events", "sim.objects", "measure.samples",
           "exp.busy_ratio", "exp.tail_s", "trace.bytes", "trace.hits",
           "trace.misses", "stream.session_bytes", "stream.checkpoint_bytes")
CHECKED = ("core.train_discarded", "stream.accepted", "stream.shed",
           "stream.invalid", "stream.refits", "stream.full_qr_refits")


def layer_row(pass_, spans):
    """Per-layer values of one traced pass from its spans."""
    root = next(s for s in spans if s["name"] == "pass")
    inner = [s for s in spans if s is not root]
    wall_ns = root["end"] - root["start"]
    busy = {name: 0.0 for name in LAYER_SPANS}
    calls = {name: 0 for name in LAYER_SPANS}
    for s in inner:
        busy[s["name"]] += (s["end"] - s["start"]) / 1e9
        calls[s["name"]] += 1
    counts = pass_["counts"]
    check = pass_["check"]

    sim_runs = {s["tag"]: (s["end"] - s["start"]) / 1e9
                for s in inner if s["name"] == "sim.run"}
    sim_s = sum(counts[f"sim_s.{tag}"] for tag in sim_runs)
    row = {
        "sim.run_s": busy["sim.run"],
        "sim.rate": sim_s / busy["sim.run"] if sim_runs else 0.0,
    }
    for name in PROFILES:
        tag = f"char.{name}"
        row[f"sim.{name}.us_per_sim_s"] = (
            1e6 * sim_runs[tag] / counts[f"sim_s.{tag}"]
            if tag in sim_runs else 0.0)
    for key in COUNTED:
        row[key] = counts.get(key, 0.0)
    for key in CHECKED:
        row[key] = float(check.get(key, 0))
    row["core.model_error_pct"] = float(check.get("model_error_pct", 0))
    for key in ("platform.build", "platform.teardown", "measure.collect",
                "trace.store", "trace.lookup", "core.train",
                "core.validate", "common.render", "stream.checkpoint",
                "bench.loadgen"):
        row[f"{key}_ms"] = 1e3 * busy[key]
    row["stream.offer_ns"] = 1e9 * busy["stream.offer"] / pass_["samples"]
    row["stream.tick_ms"] = (1e3 * busy["stream.tick"] /
                             max(1, calls["stream.tick"]))
    shares, unattributed = wall_shares(inner, root)
    for name in LAYER_SPANS:
        row[f"share.{name}"] = 100.0 * shares[name] / wall_ns
    row["share.unattributed"] = 100.0 * unattributed / wall_ns
    return row


def per_layer(result):
    spans = [dict(zip(("id", "parent", "run", "name", "tag", "start",
                       "end"), s)) for s in result["spans"]]
    by_run = {}
    for s in spans:
        by_run.setdefault(s["run"], []).append(s)
    passes = result["passes"]
    rows = [layer_row(p, by_run[run]) for run, p in enumerate(passes)
            if p["traced"]]
    traced = statistics.median(p["wall_s"] for p in passes if p["traced"])
    untraced = statistics.median(p["wall_s"] for p in passes
                                 if not p["traced"])
    values = {key: statistics.median(r[key] for r in rows)
              for key in rows[0]}
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return {key: (values[key], unit)
            for key, unit in PER_LAYER_UNITS.items()}


def update_reference(result):
    expected = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            expected = json.load(f)
    expected[reference_key(result["workload"])] = result["passes"][0]["check"]
    with open(REFERENCE, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"perfbench: wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda s: int(s, 0),
                        default=PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    build_dir, program = build_program()
    scratch = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        seed = PAPER_SEED if args.update_reference else args.seed
        result = run_program(program, scratch, args.workload, seed,
                            args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.update_reference:
        update_reference(result)
        return

    attempted, failed, problems = check_outputs(result)
    for problem in problems:
        log(f"perfbench: FAILED {problem}")
    untraced = [p for p in result["passes"] if not p["traced"]]
    e2e, tail = end_to_end(result, untraced)
    print(f"{args.workload} seed={args.seed} jobs={result['jobs']} "
          f"passes={len(result['passes'])} "
          f"traced={len(result['passes']) - len(untraced)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  op tail is {tail}")
    if args.workload.startswith("repro_"):
        print(f"  model_error_pct  {untraced[0]['check']['model_error_pct']}"
              f" (paper Tables 3/4: {PAPER_ERROR_PCT:.2f})")

    if args.trace:
        metrics = per_layer(result)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:.6g} {unit}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
