#!/usr/bin/env python3
"""City benchmark for metropolis: open-loop ingest, camera inference and
dashboard reads, measured end to end and, in a traced run, layer by layer.

    python3 perfbench/run.py --workload city_ingest --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout. It builds the driver (perfbench/CMakeLists.txt,
which compiles src/) into .bench_build/, then runs a city path as a series of
fresh driver processes ("rounds"), each on a due-time schedule fixed from its
start, and prints one metric per line followed by a JSON result line. Every
path runs at one fixed load in rounds of one fixed length. An untraced run
spends all of its time on the workload's own path, whose requests the
end-to-end metrics describe; a traced run gives that path half of its time
and the other two paths a quarter each, so it reports every layer.
WORKLOADS.md says why each workload and layer is there.

    python3 perfbench/run.py --selftest

builds the driver and runs the benchmark's own tests (test_bench.py).
"""

import argparse
import array
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"

WORKLOADS = {"city_ingest": "ingest", "camera_inference": "camera",
             "dashboard_reads": "dashboard"}
PHASES = ("ingest", "camera", "dashboard")
# Rounds of the workload's own path in an untraced run; a round of a path
# lasts --seconds / ROUNDS[path] on every workload and in every run. More
# rounds go to the paths that set up fastest (camera 0.1 s, ingest 0.6 s,
# dashboard 1 s). At the default --seconds an ingest round ends clear of the
# event counts at which the path's history-dependent stalls land
# (WORKLOADS.md), so a stall is in every round or in none. A traced run gives
# the own path half of these rounds and each other path a quarter of its
# own, and alternates untraced and traced rounds.
ROUNDS = {"ingest": 12, "camera": 20, "dashboard": 8}
# A round whose pacing threads woke later than this at their tail did not
# offer the load it claims. A run with more than one such round of a path is
# reported invalid; with one late round, a median over four or more rounds
# stays within the range of the on-time rounds.
LATE_LIMIT_MS = 5.0

# End-to-end metrics, each about the requests of the workload's own path.
E2E_UNITS = {"p50_ms": "ms", "cpu_us_per_request": "us", "setup_s": "s",
             "peak_rss_mb": "MB"}
# The sample set of a path's requests: an event due -> analyzed; a frame due
# -> detections and, on every sixth frame, the clip's label; a panel due ->
# geo hits and annotation scan done (the point reads and writes beside it
# are load from other operators). Their tails swing with the host's load
# from run to run (WORKLOADS.md, "Metrics"), so the untraced run prints them
# on report lines and the traced run reports them per layer.
REQUEST_SAMPLES = {"ingest": "ingest", "camera": "frame",
                   "dashboard": "dash_panel"}
# Every latency sample set a path leaves, reported per layer in a traced
# run as lat.<set>.p50_ms, lat.<set>.p90_ms and lat.<set>.tail_ms (the
# highest percentile with ten samples beyond it, stats.tail_percentile).
PHASE_SAMPLES = {"ingest": ("ingest",),
                 "camera": ("frame", "detect", "behavior"),
                 "dashboard": ("dash_get", "dash_panel")}
LATE_SAMPLES = {"ingest": "gen_late.ingest", "camera": "gen_late.camera",
                "dashboard": "gen_late.dash"}

# Per-layer counts and ratios: the driver reports all but gen.late_rounds
# (counted here) as they are.
COUNTER_UNITS = {
    "core.consumer_busy_frac": "frac", "mq.lag_max": "count",
    "mq.partition_skew": "ratio", "mq.produce_retries": "count",
    "mq.backpressure": "count", "obs.spans": "count",
    "obs.spans_dropped": "count", "store.write_stall_ms": "ms",
    "gen.late_rounds": "count",
    "store.seals": "count", "store.compactions": "count",
    "store.l0_tables.max": "count",
    "store.cache_hit_ratio": "ratio", "store.cache_evictions": "count",
    "store.bloom_skips_per_get": "count", "store.fence_skips_per_get": "count",
    "store.geo_hits_per_query": "count", "store.dash.write_stall_ms": "ms",
    "store.dash.seals": "count", "store.dash.compactions": "count",
    "store.dash.l0_tables.max": "count",
    "nn.allocs_per_frame": "count", "nn.allocs_per_clip": "count",
    "tensor.arena_peak_bytes": "bytes", "zoo.shipped_bytes_per_frame": "bytes",
    "zoo.offload_frac.detect": "frac", "zoo.offload_frac.behavior": "frac",
}
# Span name -> per-layer metric stem, unit and which statistics to report
# ("median" is the p50 under the bare stem).
SPAN_METRICS = {
    "core.produce": ("core.produce_us", "us", ("p50", "p99")),
    "core.analyze": ("core.analyze_us", "us", ("p50",)),
    "mq.queue": ("mq.queue_ms", "ms", ("p50", "p99")),
    "store.decode": ("store.decode_us", "us", ("p50",)),
    "store.insert": ("store.insert_us", "us", ("p50", "p99", "max")),
    "zoo.stem": ("zoo.stem_us", "us", ("median",)),
    "zoo.tiny": ("zoo.tiny_us", "us", ("median",)),
    "zoo.full": ("zoo.full_us", "us", ("median",)),
    "zoo.behavior_local": ("zoo.behavior_local_us", "us", ("median",)),
    "zoo.behavior_server": ("zoo.behavior_server_us", "us", ("median",)),
    "store.get": ("store.get_us", "us", ("p50", "p99")),
    "store.geo_find": ("store.geo_find_us", "us", ("p50", "p99")),
    "store.scan": ("store.scan_us", "us", ("p50", "p99")),
    "store.doc_insert": ("store.dash.insert_us", "us", ("p50", "p99", "max")),
}
UNIT_SCALE = {"us": 1e3, "ms": 1e6}
# Self-time layers per path (the root's own layer is the wait before and
# between the calls the driver makes).
SELF_LAYERS = {"ingest": ("ingest", "gen", "core", "mq", "store"),
               "camera": ("camera", "zoo"), "dashboard": ("dash", "store")}
# The ingest stages whose means must cover the end-to-end mean; an event's
# wait for a producer still busy with earlier events counts as produce.
INGEST_STAGES = ("core.produce_wait", "core.produce", "mq.queue",
                 "store.decode", "store.insert", "core.analyze")
GFLOPS = {"stem": ("zoo.stem", "zoo.stem_macs"),
          "tiny": ("zoo.tiny", "zoo.tiny_macs"),
          "full": ("zoo.full", "zoo.full_macs")}
SPAN_FORMAT = struct.Struct("<QHHIqq")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; exits non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: no src/ beside perfbench/; nothing to build")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench_driver"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(3)


class Round:
    """The files one driver process left behind, loaded."""

    def __init__(self, phase, traced, directory):
        with open(directory / "round.json") as f:
            meta = json.load(f)
        self.phase = phase
        self.attempted = int(meta["attempted"])
        self.failed = int(meta["failed"])
        self.notes = meta["failure_notes"]
        self.counters = meta["counters"]
        self.samples = {}
        for name in meta["samples"]:
            values = array.array("q")
            with open(directory / (name + ".i64"), "rb") as f:
                values.frombytes(f.read())
            self.samples[name] = values
        self.spans = []
        if traced:
            names = meta["span_names"]
            with open(directory / "spans.bin", "rb") as f:
                data = f.read()
            for trace, name, parent, _pad, start, end in \
                    SPAN_FORMAT.iter_unpack(data):
                self.spans.append((trace, names[name],
                                   names[parent] if parent < len(names)
                                   else None, start, end))


def run_round(phase, seed, duration_s, traced, index):
    out = BUILD / "rounds" / f"{os.getpid()}-{phase}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(DRIVER), "--phase", phase, "--seed", str(seed),
           "--duration-ms", f"{duration_s * 1000:.0f}",
           "--trace", "1" if traced else "0",
           "--out", str(out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=duration_s + 90)
        if done.returncode != 0:
            log(done.stdout + done.stderr)
            log(f"perfbench: {phase} round exited {done.returncode}")
            sys.exit(4)
        return Round(phase, traced, out)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {phase} round timed out")
        sys.exit(4)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def phase_e2e(rounds):
    """End-to-end metrics of one path: each round's p50 and counters, then
    their median over rounds. What the program itself costs, its
    history-dependent stalls included, recurs in every round, while a burst
    of load from elsewhere on the machine hits some rounds and not others;
    the median keeps the first and drops the second as long as it hits
    fewer than half the rounds."""
    per_round = []
    for r in rounds:
        s = stats.summarize(r.samples[REQUEST_SAMPLES[r.phase]])
        per_round.append({
            "p50_ms": s["p50"] / 1e6,
            "cpu_us_per_request": r.counters["cpu_us_per_request"],
            "setup_s": r.counters["setup_s"],
            "peak_rss_mb": r.counters["peak_rss_kb"] / 1024.0})
    return stats.aggregate_rounds(per_round)


def phase_latencies(rounds):
    """Per-layer latency metrics of one path: every sample set's p50 and
    tail (by the sample-count rule), median over rounds; and per set the
    per-round (sample count, tail percentile) pairs."""
    per_round, counts = [], {}
    for r in rounds:
        m = {}
        for name in PHASE_SAMPLES[r.phase]:
            s = stats.summarize(r.samples[name])
            m[f"lat.{name}.p50_ms"] = s["p50"] / 1e6
            m[f"lat.{name}.p90_ms"] = stats.percentile(
                sorted(r.samples[name]), 90.0) / 1e6
            m[f"lat.{name}.tail_ms"] = s["tail"] / 1e6
            counts.setdefault(name, []).append((s["n"], s["tail_q"]))
        per_round.append(m)
    return stats.aggregate_rounds(per_round), counts


def round_layers(r):
    """Per-layer metrics of one traced round."""
    m = {name: r.counters[name] for name in COUNTER_UNITS if name in r.counters}
    durations, traces = {}, {}
    for trace, name, parent, start, end in r.spans:
        durations.setdefault(name, []).append(end - start)
        traces.setdefault(trace, []).append((name, parent, start, end))
    for span, (stem, unit, kinds) in SPAN_METRICS.items():
        values = durations.get(span)
        if not values:
            continue
        s = stats.summarize(values)
        scale = UNIT_SCALE[unit]
        if "median" in kinds:
            m[stem] = s["p50"] / scale
        if "p50" in kinds:
            m[stem + ".p50"] = s["p50"] / scale
        if "p99" in kinds:
            m[stem + ".p99"] = s["tail"] / scale
        if "max" in kinds:
            m[stem + ".max"] = max(values) / scale
    if "core.produce" in durations:
        m["core.produce_max_ms"] = max(durations["core.produce"]) / 1e6
        roots = durations["ingest.event"]
        # Stage means per event: a stage an event skipped counts as zero.
        stage_sum = sum(sum(durations.get(s, ())) for s in INGEST_STAGES)
        stage_sum /= len(roots)
        m["ingest.stage_coverage_pct"] = 100.0 * stage_sum / statistics.fmean(
            roots)
    for kind, (span, macs) in GFLOPS.items():
        if span in durations:
            p50_ns = stats.summarize(durations[span])["p50"]
            m[f"nn.gflops.{kind}"] = 2.0 * r.counters[macs] / p50_ns
    layers = SELF_LAYERS[r.phase]
    self_ns = dict.fromkeys(layers, 0)
    decode_nms = []
    for spans in traces.values():
        for name, own in stats.self_times(spans):
            layer = stats.layer_of(name)
            if layer in self_ns:
                self_ns[layer] += own
            if name == "zoo.detect":
                decode_nms.append(own)
    short = "dash" if r.phase == "dashboard" else r.phase
    for layer in layers:
        m[f"self_us.{short}.{layer}"] = self_ns[layer] / len(traces) / 1e3
    if decode_nms:
        m["zoo.decode_nms_us"] = stats.summarize(decode_nms)["p50"] / 1e3
    return m


def plan(workload, seconds, traced):
    """{path: (rounds, seconds per round)}: the own path alone in an untraced
    run; in a traced run half of its rounds and a quarter of each other
    path's."""
    own = WORKLOADS[workload]
    if not traced:
        return {own: (ROUNDS[own], seconds / ROUNDS[own])}
    return {phase: (ROUNDS[phase] // (2 if phase == own else 4),
                    seconds / ROUNDS[phase]) for phase in PHASES}


def schedule(paths):
    """(path, round index) in run order: the paths take turns, each path's
    rounds evenly spread over the run, so a burst of load from elsewhere on
    the machine touches a few rounds of every path instead of every round
    of one path."""
    order = [(i / n, p, phase, i) for p, (phase, (n, _)) in
             enumerate(paths.items()) for i in range(n)]
    return [(phase, i) for _, _, phase, i in sorted(order)]


def layer_units(name):
    if name in COUNTER_UNITS:
        return COUNTER_UNITS[name]
    for stem, unit, _kinds in SPAN_METRICS.values():
        if name == stem or name.startswith(stem + "."):
            return unit
    if name.startswith("nn.gflops."):
        return "GFLOP/s"
    if name.startswith("self_us."):
        return "us"
    if name.endswith("_pct") or name.startswith("trace.overhead_pct."):
        return "pct"
    if name.endswith("_ms"):
        return "ms"
    return "us"


def run(args):
    build()
    traced = bool(args.trace)
    own = WORKLOADS[args.workload]
    attempted = failed = 0
    notes = []
    paths = plan(args.workload, args.seconds, traced)
    late_ms = {phase: [] for phase in paths}
    untraced_rounds = {phase: [] for phase in paths}
    traced_rounds = {phase: [] for phase in paths}
    layer_rounds = {phase: [] for phase in paths}
    for phase, i in schedule(paths):
        round_traced = traced and i % 2 == 1
        r = run_round(phase, args.seed * 1000 + i, paths[phase][1],
                      round_traced, i)
        attempted += r.attempted
        failed += r.failed
        notes += r.notes
        late = r.samples[LATE_SAMPLES[phase]]
        late_ms[phase].append(
            stats.summarize(late)["tail"] / 1e6 if late else 0.0)
        r.samples = {name: r.samples[name] for name in PHASE_SAMPLES[phase]}
        if round_traced:
            traced_rounds[phase].append(r)
            layer_rounds[phase].append(round_layers(r))
            r.spans = None  # the per-layer metrics are all it is for
        else:
            untraced_rounds[phase].append(r)
    report = []
    layers = {}
    for phase, (_, seconds) in paths.items():
        base, counts = phase_latencies(untraced_rounds[phase])
        for name, c in counts.items():
            m = {k: base[f"lat.{name}.{k}_ms"] for k in ("p50", "p90", "tail")}
            report.append(
                f"# lat.{name}: {min(k for k, _ in c)}+ samples in each of "
                f"{len(c)} untraced rounds of {seconds:.3f} s; medians over "
                f"rounds: p50 {m['p50']:.4g} ms, p90 {m['p90']:.4g} ms, "
                f"tail (p{min(q for _, q in c):g}) {m['tail']:.4g} ms")
        if not traced:
            continue
        layers.update(base)
        layers.update(stats.aggregate_rounds(layer_rounds[phase]))
        with_trace, _ = phase_latencies(traced_rounds[phase])
        for name in PHASE_SAMPLES[phase]:
            key = f"lat.{name}.p50_ms"
            layers[f"trace.overhead_pct.{name}"] = \
                100.0 * (with_trace[key] - base[key]) / base[key]
    late_rounds = {phase: sum(1 for v in late_ms[phase] if v > LATE_LIMIT_MS)
                   for phase in paths}
    report.append(f"# rounds whose pacing woke over {LATE_LIMIT_MS:g} ms late "
                  f"at the tail: {late_rounds}")
    valid = max(late_rounds.values()) <= 1
    if not valid:
        log(f"perfbench: INVALID run: more than one round of a path woke over "
            f"{LATE_LIMIT_MS:g} ms late at its tail: {late_rounds}")
    for note in notes[:10]:
        log("perfbench: failed: " + note)
    if traced:
        layers["gen.late_p99_ms"] = max(statistics.median(v)
                                        for v in late_ms.values())
        layers["gen.late_rounds"] = sum(late_rounds.values())
        metrics = {name: {"value": value, "unit": layer_units(name)}
                   for name, value in sorted(layers.items())}
    else:
        e2e = phase_e2e(untraced_rounds[own])
        report.append(f"# requests: {REQUEST_SAMPLES[own]}")
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for line in report:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": valid and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def selftest():
    build()
    done = subprocess.run([sys.executable, str(HERE / "test_bench.py")])
    sys.exit(done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    start = time.monotonic()
    run(args)
    log(f"perfbench: {args.workload} took {time.monotonic() - start:.1f} s")


if __name__ == "__main__":
    main()
