#!/usr/bin/env python3
"""The layer ledger: the Triage simulator's benchmark (see README.md).

One measured run of one workload, as BENCHMARK.json's command:

    python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Every workload in both modes at tiny windows, checked against
BENCHMARK.json (a few seconds once built):

    python3 bench/ledger/run.py --smoke

Interleaved A/B pairs of this tree against another source tree, both
built with this benchmark's code:

    python3 bench/ledger/run.py --ab PARENT_TREE [--pairs 10]
        [--workload W] [--seconds S] [--seed N]

The program is built from source into .bench_build/ (or the directory
CARGO_TARGET_DIR names) on first use. The last line of a measured run
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
RUN_TIMEOUT_S = 170
# Worsening below which --ab calls no regression whatever the bound:
# a few ms of set-up is within the host's scheduling jitter.
ABS_FLOOR = {"setup_s": 0.005}


def fail(msg):
    sys.stderr.write(f"run.py: {msg}\n")
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir, tree=ROOT):
    """Configure and build triage_bench against @tree; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release", f"-DTRIAGE_REPO={tree}"],
             ["cmake", "--build", str(build_dir), "--target",
              "triage_bench", "-j", "2"]]
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-25:]
                sys.stderr.write("\n".join(tail) + "\n")
                fail(f"build failed (log: {log})")
    return build_dir / "triage_bench"


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def measure(binary, workload, seed, seconds, trace, smoke=False,
            trace_out=None):
    """One run of the measuring program; returns its parsed report."""
    with tempfile.TemporaryDirectory(dir=BUILD) as scratch:
        cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}",
               f"--scratch={scratch}"]
        if smoke:
            cmd.append("--smoke")
        if trace_out:
            cmd.append(f"--trace-out={trace_out}")
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if p.returncode != 0 or not p.stdout.strip():
        fail(f"{workload}: triage_bench exited with {p.returncode}")
    try:
        return json.loads(p.stdout.strip().splitlines()[-1],
                          object_pairs_hook=no_duplicates)
    except ValueError as e:
        fail(f"{workload}: unreadable report: {e}")


def summarize(samples):
    """Median, first and third quartile, and sample count."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med, len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, q1, q3, len(samples)


def self_check(spec, report, trace):
    """Problems with @report's metrics against BENCHMARK.json."""
    want = spec["per_layer" if trace else "end_to_end"]
    got = report["metrics"]
    problems = []
    for m in want:
        if m["name"] not in got:
            problems.append(f"metric {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got[m['name']]['unit']}"
                            f", BENCHMARK.json says {m['unit']}")
        elif not got[m["name"]]["samples"]:
            problems.append(f"metric {m['name']} has no samples")
    names = {m["name"] for m in want}
    problems += [f"metric {n} is not in BENCHMARK.json"
                 for n in got if n not in names]
    return problems


def print_metrics(workload, report, names):
    for name in names:
        m = report["metrics"][name]
        med, q1, q3, n = summarize(m["samples"])
        print(f"{workload:13s} {name:28s} {med:14.6g} {m['unit']:12s}"
              f" q1 {q1:.6g}  q3 {q3:.6g}  n={n}")


def cmd_run(args, spec):
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build(BUILD / "ledger")
    report = measure(binary, args.workload, args.seed, args.seconds,
                     args.trace, trace_out=args.trace_out)
    problems = self_check(spec, report, args.trace)
    for p in report["errors"] + problems:
        sys.stderr.write(f"run.py: {args.workload}: {p}\n")
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    if not problems:
        print_metrics(args.workload, report, names)
        metrics = {n: {"value": statistics.median(
                           report["metrics"][n]["samples"]),
                       "unit": report["metrics"][n]["unit"]}
                   for n in names}
    correct = report["correct"] and not problems
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def cmd_smoke(spec):
    binary = build(BUILD / "ledger")
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            report = measure(binary, w["name"], 0, 1, trace, smoke=True)
            problems = report["errors"] + self_check(spec, report, trace)
            if report["failed"]:
                problems.append(f"{report['failed']} of "
                                f"{report['attempted']} reps failed")
            bad += bool(problems)
            print(f"smoke {w['name']:13s} trace={trace} "
                  + ("ok" if not problems else "FAILED: "
                     + "; ".join(problems)))
    return 1 if bad else 0


def verdict(name, parent, change, better, bound):
    """The verdict on one (metric, workload); parent and change are the
    per-pair medians, in pair order. A gain needs at least ten pairs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    p_med, p_q1, p_q3, _ = summarize(parent)
    c_med = statistics.median(change)
    delta = sign * (c_med - p_med)
    allowed = max(bound * p_med, ABS_FLOOR.get(name, 0))
    if len(parent) >= 10 and win_frac >= 0.9 and delta > p_q3 - p_q1:
        v = "gain"
    elif -delta > allowed:
        v = "regression"
    elif p_q3 - p_q1 <= allowed:
        v = "within-bound"
    else:
        v = "unresolved"
    return win_frac, v


def cmd_ab(args, spec):
    other = Path(args.ab).resolve()
    tag = hashlib.sha1(str(other).encode()).hexdigest()[:10]
    this_bin = build(BUILD / "ledger")
    other_bin = build(BUILD / f"ab-{tag}", tree=other)
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    runs = {side: {w: [] for w in workloads} for side in ("parent", "change")}
    for i in range(args.pairs):
        order = [("change", this_bin), ("parent", other_bin)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, binary in order:
                report = measure(binary, w, args.seed + i, args.seconds, 0)
                if not report["correct"] or report["failed"]:
                    fail(f"{side} {w} pair {i}: {report['errors']}")
                runs[side][w].append({
                    n: statistics.median(report["metrics"][n]["samples"])
                    for n in (m["name"] for m in metrics)})
            sys.stderr.write(f"pair {i + 1}/{args.pairs} {w} done\n")
    print(f"{'workload':13s} {'metric':12s} {'parent med [q1, q3]':>32s} "
          f"{'change med [q1, q3]':>32s} {'wins':>5s}  verdict")
    for w in workloads:
        for m in metrics:
            p = [r[m["name"]] for r in runs["parent"][w]]
            c = [r[m["name"]] for r in runs["change"][w]]
            win_frac, v = verdict(m["name"], p, c, m["better"], m["bound"])
            pm, pq1, pq3, _ = summarize(p)
            cm, cq1, cq3, _ = summarize(c)
            print(f"{w:13s} {m['name']:12s} "
                  f"{pm:12.5g} [{pq1:.5g}, {pq3:.5g}] "
                  f"{cm:12.5g} [{cq1:.5g}, {cq3:.5g}] "
                  f"{win_frac:5.2f}  {v}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out",
                    help="write the traced run's spans (Chrome JSON)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--ab", metavar="PARENT_TREE")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        return cmd_smoke(spec)
    if args.ab:
        return cmd_ab(args, spec)
    if not args.workload:
        ap.error("--workload is required")
    return cmd_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
