#!/usr/bin/env python3
"""The repo benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-expected --workload <name> --trace <0|1>

Run from the root of a checkout. The first call builds the simulator
and the benchmark driver from source into .bench_build/ (CMake,
RelWithDebInfo); later calls only check the build is current.

--trace 0 prints the end-to-end metrics (host time, every observer
off); --trace 1 prints the per-layer metrics of a separate traced run.
Every run checks the simulated outputs of every point it runs; on the
default seed they must also equal the statistics recorded in
perfbench/expected.json, bit for bit. Each output line is one JSON
record carrying the host fingerprint and the build type; the last line
is the result: {"correct", "attempted", "failed", "metrics"}.

Workloads, metrics and the layer each metric should move are described
in perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
EXPECTED = os.path.join(HERE, "expected.json")
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("uniform_busy", "pareto_sparse", "app_replay", "churn_soak")
DEFAULT_SEED = 1
# A run measures for --seconds; set-up, the warm-up round and the
# traced run's probes come on top. The whole call must end in 180 s.
DRIVER_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    governor = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            governor = f.read().strip()
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "governor": governor}


def build():
    """Configure (once) and build the driver; exit non-zero on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(os.path.dirname(BUILD_DIR), "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                # A failed configure must not leave a cache that makes
                # the next call skip configuration.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))
    if not os.path.exists(DRIVER):
        fail("build produced no driver at " + DRIVER)


def run_driver(workload, seed, seconds, trace, extra=()):
    """Run the driver; return (records, result record)."""
    cmd = [DRIVER, "workload=" + workload, "seed=%d" % seed,
           "seconds=%d" % seconds, "trace=%d" % trace,
           "scratch=" + SCRATCH_DIR] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    if not records or records[-1].get("record") != "result":
        fail("driver printed no result record")
    return records[:-1], records[-1]


def check_metrics(bench, result, trace):
    """The driver must report exactly the declared metrics and units."""
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m["unit"] != want[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, m["unit"], want[name]))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s is not a finite number: %r" % (name, m["value"]))


def load_expected():
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def compare_expected(workload, records, expected):
    """Labels whose statistics or final-state digest differ from the
    recorded ones for the default seed."""
    mine = expected.get(workload)
    if mine is None:
        return ["<no expected results recorded for %s>" % workload]
    bad = []
    for rec in records:
        label = rec.get("label")
        if rec["record"] == "point":
            want = mine.get("points", {}).get(label)
            if want is None or want != rec["stats"]:
                bad.append(label)
        elif rec["record"] == "state":
            want = mine.get("states", {}).get(label)
            if want is None or want != rec["final_state_digest"]:
                bad.append(label)
    return bad


def record_expected(workload, records):
    expected = load_expected()
    mine = expected.setdefault(workload, {"points": {}, "states": {}})
    for rec in records:
        if rec["record"] == "point":
            mine["points"][rec["label"]] = rec["stats"]
        elif rec["record"] == "state":
            mine["states"][rec["label"]] = rec["final_state_digest"]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def measure(args):
    bench = load_benchmark()
    build()
    records, result = run_driver(args.workload, args.seed, args.seconds,
                                 args.trace)
    check_metrics(bench, result, args.trace)
    stamp = {"host": host_fingerprint(), "build_type": result["build_type"]}

    attempted = result["attempted"]
    failed = result["failed"]
    failures = dict(result["failures"])
    if args.seed == DEFAULT_SEED:
        # Every operation of a point whose statistics moved has failed.
        for label in sorted(set(compare_expected(args.workload, records,
                                                 load_expected()))):
            failures["expected_mismatch"] = failures.get("expected_mismatch", 0) + 1
            ops = result["labels"].get(label)
            if ops:
                failed += ops["attempted"] - ops["failed"]

    for rec in records:
        rec.update(stamp)
        print(json.dumps(rec, sort_keys=True))
    summary = {
        "record": "summary", "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "attempted": attempted, "failed": failed, "failures": failures,
        "samples": {k: v["samples"] for k, v in result["metrics"].items()},
        "round_medians": {k: v["median"] for k, v in result["metrics"].items()
                          if "median" in v},
    }
    summary.update(stamp)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }))


def self_test():
    """Every workload at a tiny length, the output schema and names,
    strict input handling, and failure accounting on a point that is
    deliberately left undrained."""
    bench = load_benchmark()
    build()
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads %s != %s" % (names, WORKLOADS))

    for workload in WORKLOADS:
        for trace in (0, 1):
            records, result = run_driver(workload, DEFAULT_SEED, 1, trace,
                                         ["quick=1"])
            check_metrics(bench, result, trace)
            tag = "%s trace=%d" % (workload, trace)
            if result["attempted"] < 1:
                problems.append(tag + ": no operation attempted")
            if result["failed"] or result["failures"]:
                problems.append(tag + ": failures %s" % result["failures"])
            if not any(r["record"] == "point" for r in records):
                problems.append(tag + ": no point record")
            if trace and workload != "app_replay" and not any(
                    r["record"] == "state" for r in records):
                problems.append(tag + ": no final-state digest")

    _, result = run_driver("uniform_busy", DEFAULT_SEED, 1, 0,
                           ["quick=1", "drain_limit=0"])
    if result["failed"] < 1 or "undrained" not in result["failures"]:
        problems.append("undrained point not counted as failed: %s"
                        % result["failures"])
    if result["failed"] > result["attempted"]:
        problems.append("failed exceeds attempted")

    me = [sys.executable, os.path.abspath(__file__)]
    base = ["--seed", "1", "--seconds", "1", "--trace", "0"]
    for bad in (["--workload", "uniform_bussy"] + base,
                ["--workload", "uniform_busy", "--json", "x"] + base,
                ["--workload", "uniform_busy", "--sec", "1", "--seed", "1",
                 "--trace", "0"],
                ["--workload", "uniform_busy", "--seed", "1", "--seconds", "1",
                 "--trace", "2"]):
        proc = subprocess.run(me + bad, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bad input %s was accepted" % bad)
    proc = subprocess.run([DRIVER, "workload=uniform_busy", "seed=1",
                           "seconds=1", "trace=0", "json=x"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("driver accepted an unknown key")

    for p in problems:
        print("FAIL: " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Run one benchmark workload.", allow_abbrev=False)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="quick check of every workload and of the checks")
    p.add_argument("--record-expected", action="store_true",
                   help="record the default seed's simulated statistics "
                        "in perfbench/expected.json")
    args = p.parse_args(argv)
    if args.self_test:
        if any(v is not None for v in (args.workload, args.seed, args.seconds,
                                       args.trace)) or args.record_expected:
            p.error("--self-test takes no other argument")
        return args
    if args.record_expected:
        if args.workload is None or args.trace is None or args.seed is not None:
            p.error("--record-expected needs --workload and --trace, no --seed")
        args.seed = DEFAULT_SEED
        args.seconds = args.seconds or 1
        return args
    missing = [n for n in ("workload", "seed", "seconds", "trace")
               if getattr(args, n) is None]
    if missing:
        p.error("missing --" + ", --".join(missing))
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be between 1 and 120")
    return args


def main(argv):
    args = parse_args(argv)
    if args.self_test:
        return self_test()
    if args.record_expected:
        build()
        records, result = run_driver(args.workload, args.seed, args.seconds,
                                     args.trace)
        if result["failed"] or result["failures"]:
            fail("not recording a run that failed: %s" % result["failures"])
        record_expected(args.workload, records)
        print("recorded %d records of %s trace=%d in %s"
              % (len(records), args.workload, args.trace, EXPECTED))
        return 0
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
