#!/usr/bin/env python3
"""End-to-end benchmark of the OD-RL stack: builds perfbench_odrl from the
sources in this checkout, runs one workload, checks its outputs and prints
the result as the last line of standard output.

  python3 perfbench/run.py --workload chip_1024 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest           # a few epochs of everything
  python3 perfbench/run.py --update-golden      # re-record golden.json

Workloads: chip_1024, fleet_8x128, service_64x16 (see perfbench/README.md).
With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run. The exit code is 0 only when every
correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("chip_1024", "fleet_8x128", "service_64x16")
# The seed whose outputs are pinned in golden.json. Other seeds are checked
# for failed operations and level ranges only.
DEFAULT_SEED = 1
# One run may take at most this long once built.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory; the CMake tree
    # goes below it.
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench-cmake")


def build():
    """Configures (once) and builds perfbench_odrl; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_odrl",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_odrl")


def source_digest():
    """SHA-1 over the sources this build compiles, for checkouts without git."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(os.path.dirname(binary), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}.csv")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    # A run that stopped on an exception still reports (exit code 1, the
    # error among its errors); anything else is a crash.
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


def gate(report, golden):
    """Correctness gate: returns the list of problems (empty = correct)."""
    problems = list(report["errors"])
    if report["failed"]:
        problems.append(f"{report['failed']} operations failed")
    if report["attempted"] < 1:
        problems.append("no operations attempted")
    if report["seed"] == golden["seed"]:
        want = golden["workloads"].get(report["workload"])
        if want is None:
            problems.append("no golden values for " + report["workload"])
        else:
            for key, value in want.items():
                got = report["check"].get(key)
                if got != value:
                    problems.append(f"golden mismatch in {key}: "
                                    f"{got!r} != {value!r}")
    return problems


def result_line(report, problems):
    failed = report["failed"]
    if problems and not failed:
        # A mismatch against the golden values or a non-repeating setup
        # condemns every operation of the run.
        failed = report["attempted"]
    return {"correct": not problems, "attempted": report["attempted"],
            "failed": failed, "metrics": report["metrics"]}


def selftest(binary):
    """A few epochs of every workload, on the golden seed and one other,
    traced and untraced: every metric BENCHMARK.json names is printed with
    its unit, and the correctness gate runs and catches a wrong value."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    golden = load_golden()
    failures = []
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, DEFAULT_SEED + 6):
            for trace in (0, 1):
                report = run_binary(binary, workload, seed, 0.3, trace)
                tag = f"{workload} seed={seed} trace={trace}"
                got = {k: v["unit"] for k, v in report["metrics"].items()}
                if got != want[trace]:
                    failures.append(f"{tag}: metrics {sorted(got)} != "
                                    f"{sorted(want[trace])}")
                problems = gate(report, golden)
                if problems:
                    failures.append(f"{tag}: {problems}")
                if seed == DEFAULT_SEED:
                    if not report["check"]:
                        failures.append(f"{tag}: no check values")
                    tampered = json.loads(json.dumps(golden))
                    tampered["workloads"][workload]["levels_digest"] = "0" * 16
                    if not gate(report, tampered):
                        failures.append(f"{tag}: gate missed a wrong digest")
                log(f"selftest {tag}: {'ok' if not problems else 'FAIL'}")
    for f in failures:
        log("selftest FAIL " + f)
    return 1 if failures else 0


def update_golden(binary):
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        report = run_binary(binary, workload, DEFAULT_SEED, 0.3, 0)
        if report["failed"] or report["errors"]:
            raise RuntimeError(f"{workload}: {report['errors']}")
        golden["workloads"][workload] = report["check"]
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"wrote {GOLDEN}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args()

    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        if args.update_golden:
            return update_golden(binary)
        if args.workload is None:
            ap.error("--workload is required")
        report = run_binary(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        problems = gate(report, load_golden())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1

    for p in problems:
        log("correctness: " + p)
    info = {"workload": report["workload"], "seed": report["seed"],
            "trace": report["trace"], "host": dict(report["host"],
                                                   commit=commit(),
                                                   source_sha1=source_digest()),
            "samples": report["info"], "check": report["check"],
            "golden_checked": report["seed"] == DEFAULT_SEED}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result_line(report, problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
