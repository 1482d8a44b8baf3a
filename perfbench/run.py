#!/usr/bin/env python3
"""guesslib benchmark: one GUESS workload, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds perfbench/ (guesslib
from src/ plus the guessbench runner) into .bench_build/perfbench.

Every simulation runs in a fresh guessbench process, one at a time, so the
process's peak RSS belongs to that one run:

  --trace 0  one plain run_search (the reference), then decorated runs that
             stamp the phase boundaries, until --seconds are used (at least
             three). Prints the end-to-end metrics: medians over the
             decorated runs.
  --trace 1  the reference, then traced runs (a span per SearchBackend call,
             then the layer replays). Prints the per-layer metrics and the
             tracing overhead; spans are written to .bench_build/perfbench/.

Every run's results must equal the reference's field for field, and the
open-loop, probe and throughput identities must hold; otherwise the last
line carries "correct": false and the exit code is 1. The last line of
standard output is always one JSON object with the keys correct,
attempted, failed and metrics; attempted counts simulation runs and failed
those that crashed. Simulated query failures are the fail_frac metric.
"""

import argparse
import hashlib
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "guessbench"

WORKLOADS = ("guess-steady", "guess-large", "guess-open-faults")
MIN_STAMPED_RUNS = 3
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (missing sources, build or run failure)."""


# --- arithmetic (covered by test_run.py) ---------------------------------


def self_times(spans):
    """Self time per span id: its duration minus the union of its children's
    intervals (clipped to the span), in seconds."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) * 1e-9
    return out


def percentile(samples, p):
    """Nearest-rank percentile p of samples, with the number of samples that
    lie beyond it. Returns (value, beyond); value is None when fewer than
    MIN_BEYOND samples lie beyond it (too few to report)."""
    xs = sorted(samples)
    if not xs:
        return None, 0
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    beyond = len(xs) - rank
    return (xs[rank - 1] if beyond >= MIN_BEYOND else None), beyond


def query_failures(results, open_at_begin):
    """(failed, attempted) queries of the measurement window.

    Closed loop: unsatisfied completions over completions. Open loop: every
    arrival that did not end satisfied (unsatisfied, rejected, shed,
    abandoned or still open at close) over arrivals; queries carried in from
    warmup are counted where they end, so the numerator is
    arrivals + open_at_begin - satisfied."""
    if results["overload.open_loop"]:
        arrivals = results["overload.arrivals"]
        return arrivals + open_at_begin - results["overload.satisfied"], arrivals
    completed = results["queries_completed"]
    return completed - results["queries_satisfied"], completed


def ratio(num, den):
    return num / den if den else 0.0


def valid_name(name):
    return len(name) <= 64 and NAME_PATTERN.fullmatch(name) is not None


# --- correctness checks --------------------------------------------------


def digest(results):
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def check_run(run, reference):
    """Problems with one run, as strings (empty when it is correct)."""
    problems = []
    r = run["results"]
    if r != reference["results"]:
        diff = sorted(k for k in r if r.get(k) != reference["results"].get(k))
        problems.append(f"{run['mode']} results differ from plain run_search: {diff}")
    if digest(r) != digest(reference["results"]):
        problems.append("results digest differs between runs of one seed")
    good = r["guess.probes.good"] + r["guess.probes.dead"] + r["guess.probes.refused"]
    if good != r["probes"]:
        problems.append(f"good+dead+refused probes {good} != total {r['probes']}")
    if r["overload.open_loop"]:
        inflow = r["overload.arrivals"] + run["open_at_begin"]
        outflow = (r["overload.completed"] + r["overload.rejected"] + r["overload.shed"]
                   + r["overload.abandoned"] + r["overload.open_at_close"])
        if inflow != outflow:
            problems.append(f"open-loop identity: arrivals+open_at_begin {inflow} != "
                            f"completed+rejected+shed+abandoned+open_at_close {outflow}")
    phases = phase_times(run)
    qps = measure_qps(run)
    if not math.isclose(qps * phases["measure"], r["queries_completed"], rel_tol=1e-9):
        problems.append(f"measure_qps*measure_s {qps * phases['measure']} != "
                        f"completed {r['queries_completed']}")
    return problems


# --- metrics ---------------------------------------------------------------


def phase_times(run):
    """Seconds per phase span; setup is run entry to bootstrap's return."""
    spans = run["spans"]
    by_name = {}
    for s in spans:
        if s["parent"] in (-1, 0) and s["name"] not in by_name:
            by_name[s["name"]] = s
    out = {name: (s["end_ns"] - s["start_ns"]) * 1e-9 for name, s in by_name.items()}
    if "bootstrap" in by_name:
        out["setup"] = (by_name["bootstrap"]["end_ns"] - by_name["run"]["start_ns"]) * 1e-9
    return out


def measure_qps(run):
    return ratio(run["results"]["queries_completed"], phase_times(run)["measure"])


def end_to_end(run):
    r = run["results"]
    phases = phase_times(run)
    failed, attempted = query_failures(r, run["open_at_begin"])
    return {
        "setup_s": phases["setup"],
        "total_s": phases["run"],
        "measure_qps": measure_qps(run),
        "peak_rss_mb": run["peak_rss_bytes"] / 1e6,
        "fail_frac": ratio(failed, attempted),
        "probes_per_query": ratio(r["probes"], r["queries_completed"]),
    }


def call_spans(run, name):
    return [s for s in run["spans"] if s["name"] == name]


def call_seconds(run, name):
    return [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in call_spans(run, name)]


def per_layer(run, plain_total_s):
    r = run["results"]
    phases = phase_times(run)
    selfs = self_times(run["spans"])
    events = run["events_collect"] - run["events_begin"]
    measure_s = phases["measure"]
    peak = run["peak_rss_bytes"]
    m = {
        "search.bootstrap_s": phases["bootstrap"],
        "search.warmup_s": phases["warmup"],
        "search.measure_s": measure_s,
        "search.collect_s": phases["collect"],
        "search.measure_self_s": sum(selfs[s["id"]] for s in call_spans(run, "measure")),
    }
    for call, points in (("start_query", (50, 99)), ("sample_interval", (50,))):
        us = [1e6 * d for d in call_seconds(run, call)]
        m[f"search.{call}_calls"] = len(us)
        for p in points:
            value, _ = percentile(us, p)
            m[f"search.{call}_us.p{p}"] = value if value is not None else 0.0
    replay_ns = run["replay.event_ns"]
    m.update({
        "sim.events_measure": events,
        "sim.pending_events": run["pending_events"],
        "sim.ns_per_event": ratio(measure_s * 1e9, events),
        "sim.replay_ns_per_event": replay_ns,
        "sim.queue_share.computed": ratio(replay_ns * events, measure_s * 1e9),
        "content.library_replay_s": run["replay.library_s"],
        "content.library_share.computed": ratio(run["replay.library_s"], phases["setup"]),
        "content.files_per_peer": run["replay.files_per_peer"],
        "content.draw_query_ns": run["replay.draw_query_ns"],
        "guess.link_cache.offer_ns": run["replay.offer_ns"],
        "guess.link_cache.select_ns": run["replay.select_ns"],
    })
    probes = r["probes"]
    completed = r["queries_completed"]
    sent = r["guess.transport.messages_sent"]
    exchanges = sent - r["guess.transport.retransmits"]
    m.update({
        "guess.good_probe_frac": ratio(r["guess.probes.good"], probes),
        "guess.dead_probes_per_query": ratio(r["guess.probes.dead"], completed),
        "guess.refused_probes_per_query": ratio(r["guess.probes.refused"], completed),
        "guess.pings_sent": r["guess.pings_sent"],
        "guess.ping_dead_frac": ratio(r["guess.pings_to_dead"], r["guess.pings_sent"]),
        "guess.cache_live_frac": r["guess.cache_health.fraction_live"],
        "guess.query_cache_population": r["guess.query_cache_population.mean"],
        "guess.transport.messages_sent": sent,
        "guess.transport.lost": r["guess.transport.messages_lost"],
        "guess.transport.timeouts": r["guess.transport.timeouts"],
        "guess.transport.retransmits": r["guess.transport.retransmits"],
        "guess.transport.exchange_fail_frac": ratio(r["guess.transport.exchanges_failed"],
                                                    exchanges),
        "guess.overload.arrivals": r["overload.arrivals"],
        "guess.overload.admit_frac": ratio(r["overload.admitted"], r["overload.arrivals"]),
        "guess.overload.abandoned": r["overload.abandoned"],
        "guess.overload.open_at_close": r["overload.open_at_close"],
        "faults.kill_ms": 1e3 * sum(call_seconds(run, "fault_mass_kill")),
        "faults.join_ms": 1e3 * sum(call_seconds(run, "fault_mass_join")),
        "churn.deaths": r["deaths"],
        "mem.rss_setup_mb": run["rss_setup_bytes"] / 1e6,
        "mem.rss_growth_mb": (peak - run["rss_setup_bytes"]) / 1e6,
        "mem.bytes_per_peer": ratio(peak, r["network_size"]),
        "trace.overhead_frac": ratio(phases["run"], plain_total_s) - 1.0,
    })
    return m


def medians(rows):
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


# --- build and run ----------------------------------------------------------


def build():
    if not (ROOT / "src" / "search" / "backend.h").is_file():
        raise BenchError(f"guesslib sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "3", "--target", "guessbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_one(workload, seed, mode, spans_path=None):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}", f"--mode={mode}"]
    if spans_path:
        cmd.append(f"--spans={spans_path}")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}")
    run = json.loads(proc.stdout)
    run["wall_s"] = time.monotonic() - started
    return run


def measure(workload, seed, seconds, trace):
    """All runs of one invocation: (metrics, problems, runs made)."""
    started = time.monotonic()
    reference = run_one(workload, seed, "plain")
    runs = []
    problems = []
    mode = "traced" if trace else "stamped"
    need = 1 if trace else MIN_STAMPED_RUNS
    while True:
        spans_path = BUILD / f"spans-{workload}-{seed}.json" if trace else None
        run = run_one(workload, seed, mode, spans_path)
        runs.append(run)
        problems += check_run(run, reference)
        elapsed = time.monotonic() - started
        mean_wall = statistics.mean(r["wall_s"] for r in runs)
        if len(runs) >= need and elapsed + mean_wall > seconds:
            break
    if trace:
        plain_total = phase_times(reference)["run"]
        metrics = medians([per_layer(run, plain_total) for run in runs])
    else:
        metrics = medians([end_to_end(run) for run in runs])
    return metrics, problems, len(runs) + 1


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        build()
        metrics, problems, attempted = measure(args.workload, args.seed,
                                               args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        problems.append(f"metrics not produced: {missing}")
    for problem in problems:
        print(f"run.py: CHECK FAILED: {problem}", file=sys.stderr)
    for d in declared:
        if d["name"] in metrics:
            print(f"{args.workload:18} {d['name']:36} {metrics[d['name']]:>16.6f} {d['unit']}",
                  file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared if d["name"] in metrics},
    }
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
