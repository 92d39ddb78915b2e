"""Benchmark of the pess embedder: churn, loaded-1000-node and oracle workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ba20-twin --seed 1 --seconds 30 --trace 0

One process runs one workload, single-threaded, importing the library from
``src/``. It sets up the inputs (five times, reporting the median), then
runs whole rounds of identical operations until the next round would end
after ``--seconds``, and prints the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``) as the last line, one JSON object.
Every operation is checked by ``check.py``; a full record of the run goes
to ``BENCH_<workload>[.trace].json`` in the working directory.

``--workload all`` runs every workload, plain and traced, each in its own
process, and prints a table with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from probe import Probe  # noqa: E402

SETUPS = 5

END_TO_END = {  # name: unit
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name: unit
    "heuristic.embed_calls": "count",
    "heuristic.embed_ms": "ms",
    "heuristic.search_self_ms": "ms",
    "heuristic.place_on_path_calls": "count",
    "heuristic.place_on_path_ms": "ms",
    "heuristic.candidate_yield": "ratio",
    "state.chain_latency_calls": "count",
    "state.chain_latency_ms": "ms",
    "state.recheck_calls": "count",
    "state.recheck_rejects": "count",
    "state.recheck_ms": "ms",
    "state.register_calls": "count",
    "state.register_ms": "ms",
    "state.release_calls": "count",
    "state.release_ms": "ms",
    "simulator.loop_self_ms": "ms",
    "simulator.stream_checksum_ms": "ms",
    "service.baseline_request_ms": "ms",
    "simulator.generate_stream_ms": "ms",
    "topology.build_ms": "ms",
    "oracle.calls": "count",
    "oracle.exact_embed_ms": "ms",
    "oracle.search_self_ms": "ms",
    "oracle.options": "count",
    "oracle.option_ms": "ms",
    "oracle.leaves": "count",
    "oracle.leaf_recheck_ms": "ms",
    "oracle.leaf_yield": "ratio",
    "trace.requests_per_s": "1/s",
}

# Per-layer metric -> (span, field): "calls", "ms" (total) or "self_ms".
SPAN_METRICS = {
    "heuristic.embed_calls": ("heuristic.embed", "calls"),
    "heuristic.embed_ms": ("heuristic.embed", "ms"),
    "heuristic.search_self_ms": ("heuristic.embed", "self_ms"),
    "heuristic.place_on_path_calls": ("heuristic.place_on_path", "calls"),
    "heuristic.place_on_path_ms": ("heuristic.place_on_path", "ms"),
    "state.chain_latency_calls": ("state.chain_latency", "calls"),
    "state.chain_latency_ms": ("state.chain_latency", "ms"),
    "state.recheck_calls": ("state.recheck", "calls"),
    "state.recheck_rejects": ("state.recheck_rejects", "calls"),
    "state.recheck_ms": ("state.recheck", "ms"),
    "state.register_calls": ("state.register", "calls"),
    "state.register_ms": ("state.register", "ms"),
    "state.release_calls": ("state.release", "calls"),
    "state.release_ms": ("state.release", "ms"),
    "simulator.stream_checksum_ms": ("simulator.stream_checksum", "ms"),
    "service.baseline_request_ms": ("service.baseline_request", "ms"),
    "oracle.calls": ("oracle.exact_embed", "calls"),
    "oracle.exact_embed_ms": ("oracle.exact_embed", "ms"),
    "oracle.search_self_ms": ("oracle.exact_embed", "self_ms"),
    "oracle.options": ("oracle.option", "calls"),
    "oracle.option_ms": ("oracle.option", "ms"),
    "oracle.leaves": ("oracle.leaf", "calls"),
    "oracle.leaf_recheck_ms": ("oracle.leaf", "ms"),
}


def load_program():
    """Import the library from ``src/`` of the working directory, and only
    from there."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    try:
        import pess
        import pess.heuristic
        import pess.oracle
        import pess.service
        import pess.simulator
        import pess.state
        import pess.topology
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pess from {src}: {exc}")
    if not os.path.abspath(pess.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: pess imported from {pess.__file__}, not from {src}")
    return pess


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, tracing: bool) -> dict:
    pess = load_program()
    workload = workloads.make(pess, name)
    setups = []
    for _ in range(SETUPS):
        started = perf_counter()
        parts = workload.setup(seed)
        setups.append((perf_counter() - started, parts))

    probe = Probe()
    workload.install(probe, tracing)
    rounds = []
    attempted = failed = 0
    started = perf_counter()
    longest = 0.0
    while True:
        round_start = perf_counter()
        try:
            result = workload.run_round()
        except Exception:
            # The operations the round did not finish count as failed, and
            # no further round is attempted.
            traceback.print_exc()
            attempted += workload.ops_per_round
            failed += workload.ops_per_round - workload.result.ops + workload.result.failed
            break
        rounds.append(result)
        attempted += result.ops
        failed += result.failed
        longest = max(longest, perf_counter() - round_start)
        if perf_counter() - started + longest > seconds:
            break
    if not rounds:
        sys.exit("perfbench: no round completed")

    incorrect = [p for r in rounds for p in r.incorrect]
    if len({r.digest for r in rounds}) != 1:
        incorrect.append(["determinism: rounds made different decisions"])
    if any(r.ops != workload.ops_per_round for r in rounds):
        incorrect.append(["rounds: operation count differs from the round size"])

    # Rounds repeat the same operations. To damp the shared machine's slow
    # spells, the round time is the median over rounds, and each operation's
    # time the median of its times over rounds.
    round_s = statistics.median(r.phase["timed_s"] for r in rounds)
    if tracing:
        layer_rounds = [layer_metrics(r, name) for r in rounds]
        metrics = {}
        for key in layer_rounds[0]:
            values = [lr[key] for lr in layer_rounds]
            if PER_LAYER[key] != "count":
                metrics[key] = statistics.median(values)
                continue
            metrics[key] = values[0]
            if len(set(values)) != 1:
                incorrect.append([f"determinism: {key} differs between rounds"])
        for part in ("topology.build", "simulator.generate_stream"):
            metrics[part + "_ms"] = 1e3 * statistics.median(
                parts.get(part, 0.0) for _, parts in setups)
        metrics["trace.requests_per_s"] = workload.ops_per_round / round_s
        units = PER_LAYER
    else:
        per_op = sorted(map(statistics.median, zip(*(r.samples for r in rounds))))
        metrics = {
            "setup_s": statistics.median(total for total, _ in setups),
            "requests_per_s": workload.ops_per_round / round_s,
            "request_ms_p50": 1e3 * percentile(per_op, 0.50),
            "request_ms_p99": 1e3 * percentile(per_op, 0.99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    first = rounds[0]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(tracing),
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "blocked": sum(r.blocked for r in rounds),
        "digest": first.digest,
        "model": first.model,
        "problems": [p for r in rounds for p in r.problems][:5],
        "incorrect": incorrect[:5],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    with open(f"BENCH_{name}{'.trace' if tracing else ''}.json", "w") as out:
        json.dump(record, out, indent=1)
    return record


def layer_metrics(result, name: str) -> dict:
    """Per-layer figures of one round's timed phase (set-up parts and the
    traced rate are added by the caller)."""
    phase = result.phase
    values = {}
    for key, (span, field) in SPAN_METRICS.items():
        if field == "calls":
            values[key] = phase["calls"][span]
        elif field == "ms":
            values[key] = 1e3 * phase["seconds"][span]
        else:
            values[key] = 1e3 * phase["self_seconds"][span]
    churn = name != "oracle-micro"
    values["simulator.loop_self_ms"] = 1e3 * phase["root_self_s"] if churn else 0.0
    pop_calls = values["heuristic.place_on_path_calls"]
    values["heuristic.candidate_yield"] = result.accepted / pop_calls if pop_calls else 0.0
    leaves = values["oracle.leaves"]
    values["oracle.leaf_yield"] = result.leaves_evaluated / leaves if leaves else 0.0
    return values


def summary(seed: int, seconds: int) -> int:
    """Run every workload plain and traced, each in a process of its own."""
    status = 0
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                return proc.returncode
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(proc.stdout.strip().splitlines()[0])
        plain, traced = results[0], results[1]
        print(f"== {name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct'] and traced['correct']}")
        for key, metric in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"   {key:32s} {metric['value']:14.6g} {metric['unit']}")
        overhead = (plain["metrics"]["requests_per_s"]["value"]
                    / traced["metrics"]["trace.requests_per_s"]["value"] - 1.0)
        print(f"   tracing overhead: plain requests_per_s is {100 * overhead:.1f}% above traced")
        if not (plain["correct"] and traced["correct"]) or plain["failed"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return summary(args.seed, args.seconds)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = not record["incorrect"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: rounds={record['rounds']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"blocked={record['blocked']} digest={record['digest']}")
    for solver, outputs in record["model"].items():
        print(f"model {solver}: " + " ".join(f"{k}={v!r}" for k, v in outputs.items()))
    for problems in record["problems"] + record["incorrect"]:
        print("check failed: " + "; ".join(problems), file=sys.stderr)
    for key, metric in record["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
