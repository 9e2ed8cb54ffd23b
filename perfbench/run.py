#!/usr/bin/env python3
"""casim benchmark runner.

Builds the benchmark harness (perfbench/CMakeLists.txt) from the
checkout's sources, runs one workload, checks its results digest
against perfbench/digests.json and prints one JSON result as the last
line of stdout.  See perfbench/README.md.

    python3 perfbench/run.py --workload replay-warm --seed 1 \
        --seconds 45 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests
    python3 perfbench/run.py --baseline 10 --seconds 45   # rewrite baseline.json

Run it from the root of a checkout.  Build output goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); each run
works in a scratch directory under it and removes it afterwards.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay-warm", "daemon-mixed")
# Set-ups per run; setup_s is their median.  Each is a full capture of
# all 26 applications (replay-warm: about a second at its scale), so
# capture_refs_per_s is taken over several seconds of capture work.
SETUPS = {"replay-warm": 8, "daemon-mixed": 5}
SMOKE_SCALE = 0.01
HELD_OUT_SEEDS = (1, 2)
HARNESS_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Each of these silently changes which program gets measured.
GUARDED_ENV = ("CASIM_NO_SIMD", "CASIM_BATCH_WINDOW", "CASIM_NO_MMAP",
               "CASIM_SHARDS", "CASIM_JOBS", "CASIM_NO_LABEL_PLANES",
               "CASIM_CAPTURE_DIR")
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build():
    """Configure once, then (re)build; returns (harness, casimd)."""
    if not (ROOT / "src" / "sim" / "queue.hh").is_file():
        fail(f"no casim sources under {ROOT / 'src'}; run from a checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs())],
                   check=True, stdout=sys.stderr)
    return out / "casim_perfbench", out / "casim" / "casimd"


def run_harness(binaries, workload, seed, seconds, trace, scale=None,
                setups=None, tamper=False):
    """Run one workload in a fresh scratch directory; returns its report."""
    harness, casimd = binaries
    scratch = build_dir() / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(harness), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}",
           f"--setups={setups or SETUPS[workload]}",
           f"--jobs={jobs()}", f"--casimd={casimd}"]
    if trace:
        cmd.append("--trace")
    if scale is not None:
        cmd.append(f"--scale={scale}")
    if tamper:
        cmd.append("--tamper")
    try:
        proc = subprocess.run(cmd, cwd=scratch, capture_output=True,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}: harness exited with {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: harness printed no report", 1)
    return json.loads(lines[-1])


def load_digests():
    path = HERE / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def expected_digest(digests, workload, seed, smoke):
    table = digests.get("smoke" if smoke else "default", {})
    return table.get(workload, {}).get(str(seed))


def digest_problems(report, expected):
    """Empty when the run's digest matches the committed one (or none is
    committed for this seed); otherwise the reason."""
    if expected is None or report["digest"] == expected:
        return []
    return [f"results digest {report['digest']} differs from the "
            f"committed {expected}"]


def spec_metrics():
    """The metric lists of BENCHMARK.json, when the checkout has it."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def select(metrics, names):
    if names is None:
        return metrics
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"harness did not report {', '.join(missing)}", 1)
    return {n: metrics[n] for n in names}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def provenance(report):
    return {"git_commit": git_commit(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "simd_isa": report["simd_isa"],
            "build_type": report["build_type"], "jobs": report["jobs"],
            "scale": report["scale"], "setups": report["setups"]}


def evaluate(report, workload, seed, trace, digests):
    """The report line and the result line of one harness run."""
    if report["build_type"] not in OPTIMIZED_BUILDS:
        fail(f"refusing a {report['build_type']} build")
    expected = expected_digest(digests, workload, seed, smoke=False)
    problems = report["problems"] + digest_problems(report, expected)
    attempted = max(1, report["attempted"])
    failed = report["failed"]
    e2e_names, layer_names = spec_metrics() or (None, None)
    metrics = select(report["per_layer"] if trace else report["end_to_end"],
                     layer_names if trace else e2e_names)
    report_line = {
        "workload": workload, "seed": seed, "traced": bool(trace),
        "provenance": provenance(report), "digest": report["digest"],
        "committed_digest": expected,
        "digest_cells": report["digest_cells"],
        "error_rate": failed / attempted,
        "latency_samples": report["latency_samples"],
        "pass_s": report["pass_s"], "problems": problems,
        "end_to_end": report["end_to_end"]}
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return report_line, result


def measure(args):
    report = run_harness(build(), args.workload, args.seed, args.seconds,
                         args.trace)
    report_line, result = evaluate(report, args.workload, args.seed,
                                   args.trace, load_digests())
    print(json.dumps({"report": report_line}))
    print(json.dumps(result))


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "runs": len(values)}


def baseline(runs, seconds):
    """Run every workload once per seed 101.. and once traced; write the
    medians and quartiles of each metric to perfbench/baseline.json."""
    binaries = build()
    digests = load_digests()
    seeds = list(range(101, 101 + runs))
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        values, units = {}, {}
        for seed in seeds:
            report = run_harness(binaries, workload, seed, seconds, False)
            report_line, result = evaluate(report, workload, seed, False,
                                           digests)
            if not result["correct"]:
                fail(f"{workload} seed {seed}: {report_line['problems']}", 1)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        host = dict(report_line["provenance"])
        run_settings = {key: host.pop(key) for key in ("scale", "setups")}
        out["provenance"] = host
        traced = run_harness(binaries, workload, seeds[0], seconds, True)
        out["workloads"][workload] = dict(run_settings, **{
            "end_to_end": {name: dict(quartiles(v), unit=units[name])
                           for name, v in values.items()},
            "traced_seed": seeds[0],
            "traced_end_to_end": traced["end_to_end"],
            "per_layer": traced["per_layer"]})
        for name, q in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload:13s} {name:20s} median {q['median']:.6g} "
                  f"spread {q['spread']:.3f}", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


def self_test():
    """Each workload once at a tiny scale: metric names and units, the
    error rate, and that the digest check rejects an altered result."""
    binaries = build()
    digests = load_digests()
    names = spec_metrics()
    errors = []
    for workload in WORKLOADS:
        report = run_harness(binaries, workload, 1, 0.5, True,
                             scale=SMOKE_SCALE, setups=1)
        metrics = dict(report["end_to_end"], **report["per_layer"])
        for name, value in metrics.items():
            if not NAME_RE.fullmatch(name) or not value.get("unit"):
                errors.append(f"{workload}: bad metric {name!r}")
        if names is not None:
            for name in names[0] + names[1]:
                if name not in metrics:
                    errors.append(f"{workload}: missing metric {name}")
        if report["attempted"] < 1:
            errors.append(f"{workload}: error_rate undefined")
        elif report["failed"] / report["attempted"] != 0:
            errors.append(f"{workload}: error_rate is not 0")
        if report["problems"]:
            errors.append(f"{workload}: {report['problems']}")
        expected = expected_digest(digests, workload, 1, smoke=True)
        if expected is None:
            errors.append(f"{workload}: no committed smoke digest")
            continue
        if digest_problems(report, expected):
            errors.append(f"{workload}: clean run fails the digest check")
        tampered = run_harness(binaries, workload, 1, 0.5, False,
                               scale=SMOKE_SCALE, setups=1, tamper=True)
        if not digest_problems(tampered, expected):
            errors.append(f"{workload}: digest check accepted an "
                          "altered result")
        print(f"{workload}: {len(metrics)} metrics, digest "
              f"{report['digest']}, tampered {tampered['digest']}")
    for error in errors:
        print(f"FAIL {error}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def record_digests():
    """Rewrite perfbench/digests.json from runs of this build."""
    binaries = build()
    digests = {"default": {}, "smoke": {}}
    for workload in WORKLOADS:
        for seed in HELD_OUT_SEEDS:
            report = run_harness(binaries, workload, seed, 0, False,
                                 setups=1)
            if report["problems"] or report["failed"]:
                fail(f"{workload} seed {seed}: {report['problems']}", 1)
            digests["default"].setdefault(workload, {})[str(seed)] = \
                report["digest"]
        report = run_harness(binaries, workload, 1, 0, False,
                             scale=SMOKE_SCALE, setups=1)
        digests["smoke"][workload] = {"1": report["digest"]}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2,
                                                  sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--baseline", type=int, metavar="RUNS")
    args = parser.parse_args()

    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        fail("refusing to measure with " + ", ".join(guarded) +
             " set: each changes which program runs")
    if args.self_test:
        return self_test()
    if args.record_digests:
        return record_digests()
    if args.baseline:
        return baseline(args.baseline, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
