#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

One run (the form BENCHMARK.json names):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
builds perfbench/ (with the library from src/) into .bench_build, or
$CARGO_TARGET_DIR when set, runs one workload and passes its output
through. The last line is the result JSON. Exit status is the
benchmark's: 0 when every correctness check passed.

Steadiness mode:
  python3 perfbench/run.py --workload W --repeat N [--sets K] [--seed N0]
                           [--seconds S] [--trace 0|1] [--with-traced]
runs K sets of N runs on seeds N0, N0+1, ... and prints, per metric, the
median, quartiles, min/max and the quartile spread as a share of the
metric's bound in BENCHMARK.json, plus how far each set's median moved
from the first set's. --with-traced interleaves one traced run after
each untraced run of the first set and reports the tracing overhead on
tokens_per_s.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "mls_perfbench")
RUN_TIMEOUT_S = 170
NOTE = re.compile(r"^# (\S+) = (\S+)(?: (\S+))?$")


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "mls_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, stdout lines, result, notes)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    notes = {}
    for line in lines:
        m = NOTE.match(line)
        if m:
            try:
                notes[m.group(1)] = float(m.group(2))
            except ValueError:
                pass
    return proc.returncode, lines, result, notes


def check_metrics(spec, result, trace):
    """The result must carry exactly the metric set BENCHMARK.json names."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metric set differs from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    return None


def single(args):
    spec = load_spec()
    code, lines, result, _ = run_once(args.workload, args.seed, args.seconds,
                                      args.trace)
    print("\n".join(lines), flush=True)
    if result is None:
        return code or 1
    if code == 0 and result["metrics"]:
        err = check_metrics(spec, result, args.trace)
        if err:
            print("perfbench: " + err, file=sys.stderr)
            return 3
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    sets = []
    traced_tps, untraced_tps = [], []
    seed = args.seed
    for set_index in range(args.sets):
        runs = []
        for _ in range(args.repeat):
            code, lines, result, notes = run_once(args.workload, seed,
                                                  args.seconds, args.trace)
            if code != 0:
                print("\n".join(lines[-12:]))
                sys.exit("perfbench: seed %d failed (exit %d)" % (seed, code))
            row = {k: v["value"] for k, v in result["metrics"].items()}
            row.update({"note:" + k: v for k, v in notes.items()})
            runs.append(row)
            if args.with_traced and set_index == 0:
                untraced_tps.append(row.get("tokens_per_s"))
                _, _, _, tnotes = run_once(args.workload, seed, args.seconds, 1)
                traced_tps.append(tnotes.get("traced.tokens_per_s"))
            print("seed %d: %s" % (seed, " ".join(
                "%s=%.6g" % (k, v) for k, v in sorted(row.items())
                if not k.startswith("note:"))), flush=True)
            seed += 1
        sets.append(runs)

    names = sorted({k for runs in sets for r in runs for k in r})
    print("\n%-34s %12s %12s %12s %12s %12s %8s %8s %s" % (
        "metric", "median", "q1", "q3", "min", "max", "spread", "/bound",
        "set-median moves"))
    for name in names:
        meds = []
        for runs in sets:
            vals = [r[name] for r in runs if name in r]
            if vals:
                meds.append(statistics.median(vals))
        vals = [r[name] for r in sets[0] if name in r]
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        share = "%8.2f" % (spread / bound) if bound else "%8s" % "-"
        moves = " ".join("%+.3f" % (m / meds[0] - 1) if meds[0] else "n/a"
                         for m in meds[1:])
        print("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s %s" % (
            name, med, q1, q3, min(vals), max(vals), spread, share, moves))
    if traced_tps and all(v for v in traced_tps + untraced_tps):
        t, u = statistics.median(traced_tps), statistics.median(untraced_tps)
        print("\ntracing overhead on tokens_per_s: traced %.6g vs untraced %.6g "
              "tok/s (%+.2f%%)" % (t, u, 100 * (t / u - 1)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--with-traced", action="store_true")
    args = ap.parse_args()
    build()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return steadiness(args) if args.repeat > 0 else single(args)


if __name__ == "__main__":
    sys.exit(main())
