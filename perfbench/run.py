#!/usr/bin/env python3
"""Host-clock benchmark for Dyno: steady / churn / fleet workloads.

Run from the root of a Dyno checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

It builds perfbench/dynobench.exe with dune, checks one short
snapshot-tracked replay for strong consistency, then replays the workload
in a fresh process per repetition until --seconds have passed and every
one of the TIMELINES timelines drawn from --seed has run once.  The last
stdout line is the JSON result; the line before it records the host shape,
the OCaml version and the workload's parameters.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "dynobench.exe")
WORKLOADS = ("steady", "churn", "fleet")
# Distinct timelines per run.  Simulated figures are a mean over all of
# them, so they depend on --seed alone.  Averaging 24 keeps their quartiles
# across seeds within about a third of each bound.
TIMELINES = 24
TRACED_REPS = 3  # a traced run replays at least this many timelines
HARD_LIMIT_S = 160  # a run, build excluded, ends within this


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no Dyno sources here; run from the root of a checkout")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/dynobench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if built.returncode != 0:
        fail("build failed")


def replay(mode, workload, seed, timeout):
    """One replay in a fresh process: ("ok" | "wrong" | "raised", record)."""
    try:
        p = subprocess.run(
            [EXE, mode, workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        return "raised", {"raised": f"no result within {timeout:.0f} s"}
    sys.stderr.write(p.stderr)
    try:
        record = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "raised", {"raised": f"exit status {p.returncode} without a result"}
    return {0: "ok", 1: "wrong"}.get(p.returncode, "raised"), record


def end_to_end(reps, attempted, failed):
    def median(key):
        return statistics.median(r[key] for r in reps)

    # Simulated figures repeat exactly per timeline: average over the
    # distinct timelines instead of weighting by how often each ran.
    per_seed = list({r["seed"]: r for r in reversed(reps)}.values())

    def mean(key):
        return statistics.fmean(r[key] for r in per_seed)

    busy = sum(r["sim_busy_s"] for r in per_seed)
    abort = sum(r["sim_abort_s"] for r in per_seed)
    return {
        "updates_per_s": median("updates_per_s"),
        "alloc_words_per_update": mean("alloc_words_per_update"),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": median("setup_s"),
        "sim_busy_s": mean("sim_busy_s"),
        "sim_useful_share": 1.0 - abort / busy,
        "sim_staleness_p50_s": mean("sim_staleness_p50_s"),
        "sim_staleness_p99_s": mean("sim_staleness_p99_s"),
        "completed_share": 1.0 - failed / attempted,
    }


def main():
    ap = argparse.ArgumentParser(description="Host-clock benchmark for Dyno.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    build()

    hard_deadline = time.monotonic() + HARD_LIMIT_S
    seeds = [args.seed * TIMELINES + k for k in range(TIMELINES)]
    wrong = []
    status, strong = replay("strong", args.workload, seeds[0], HARD_LIMIT_S)
    if status != "ok":
        wrong.append(f"strong check: {strong.get('failures') or strong.get('raised')}")

    mode = "trace" if args.trace else "run"
    minimum = TRACED_REPS if args.trace else TIMELINES
    reps, attempted, failed, planned = [], 0, 0, 1
    deadline = time.monotonic() + args.seconds
    longest, k = 0.0, 0
    while k < minimum or time.monotonic() < deadline:
        started = time.monotonic()
        if started + 1.5 * longest > hard_deadline:
            break
        status, rec = replay(mode, args.workload, seeds[k % TIMELINES], hard_deadline - started)
        longest = max(longest, time.monotonic() - started)
        k += 1
        planned = rec.get("planned_updates", planned)
        n = rec.get("updates", planned)
        attempted += n
        if status == "ok":
            reps.append(rec)
            continue
        failed += n
        if status == "wrong":
            wrong.append(f"seed {rec['seed']}: {rec['failures']}")
        else:
            print(f"perfbench: replay raised: {rec['raised']}", file=sys.stderr)

    if reps:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values = {n: statistics.median(r[n] for r in reps) for n in names}
        else:
            values = end_to_end(reps, attempted, failed)
    else:
        values = {}
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec[kind]
        if m["name"] in values
    }
    correct = bool(reps) and not wrong and len(metrics) == len(spec[kind])
    for w in wrong:
        print(f"perfbench: INCORRECT {w}", file=sys.stderr)
    first = reps[0] if reps else {}
    context = {
        "host_cores": first.get("host_cores"),
        "ocaml_version": first.get("ocaml_version"),
        "workload": args.workload,
        "seed": args.seed,
        "timelines": seeds,
        "params": first.get("params"),
        "replays": k,
        "staleness_samples": sum({r["seed"]: r.get("staleness_samples", 0) for r in reps}.values()),
        # Host figures as measured, before scaling to the reference speed.
        "measured": {
            key: statistics.median(r[key] for r in reps) if reps and not args.trace else None
            for key in ("raw_updates_per_s", "raw_setup_s", "probe_s")
        },
        "strong_check": {key: strong.get(key) for key in ("checked", "skipped")},
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
