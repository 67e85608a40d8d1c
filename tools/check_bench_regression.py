#!/usr/bin/env python3
"""Perf-ratchet gate: compare fresh bench JSONs against the committed ones.

Two baselines live at the repo root and are regenerated deliberately, never
by CI:

  BENCH_kernels.json  -- bench/bench_kernels: per (kernel, cores) the
                         baseline and optimized (`simd_ns`) per-call times
                         plus their ratio (`speedup`): batch power vs the
                         per-core PowerModel loop, thermal SIMD vs its
                         force-scalar path. The speedup is a within-machine ratio,
                         so it transfers across machines; the raw ns do not.
  BENCH_e5.json       -- bench/bench_e5_scalability: per (controller, cores)
                         closed-loop throughput (epochs/s) and decide()
                         latency. Absolute numbers are machine-dependent, so
                         the check normalizes by the median fresh/committed
                         ratio before applying the per-row tolerance: a
                         uniformly slower runner passes, a single controller
                         regressing relative to the rest fails.
  BENCH_multichip.json -- bench/bench_multichip: per (chips, cores, workers)
                         fleet throughput (chip-epochs/s) on the shared
                         task runtime, median-normalized like e5.
                         The JSON records the machine's `cpus`; the worker
                         scaling floor (>= 3x from 1 to 8 workers at 8
                         chips) is enforced only when both the committed
                         and the fresh runs had >= 8 CPUs -- a 1-CPU
                         container cannot measure scaling, and pretending
                         otherwise would ratchet noise.
  BENCH_service.json   -- bench/bench_service: per (sessions, workers) the
                         control-plane service's session-epochs/s through
                         the full loopback stack (sim step, wire encode/
                         decode, server decide), median-normalized like e5.
                         No scaling floor: the cells exist to catch a
                         single configuration regressing relative to the
                         suite, not to assert parallel speedup on an
                         unknown runner.

Fresh flags are repeatable; multiple fresh files are merged best-of-N per
row (max speedup / max epochs_per_s / min mean_decide_us) to shave timing
noise off the downside. Rules enforced:

  kernels  per-row: best-of-N speedup >= committed speedup * (1 - tol)
           floor:   >= 2 distinct kernels reach speedup >= 1.5 at >= 64
                    cores (both in the committed file and in the fresh
                    merge), and the fresh binary was compiled with SIMD on
  e5       per-row: throughput ratio >= median ratio * (1 - tol), and
                    decide-latency ratio <= median ratio * (1 + tol)

Exit status 0 when every rule holds, 1 with a per-row report otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

ACCEPT_MIN_SPEEDUP = 1.5
ACCEPT_MIN_CORES = 64
ACCEPT_MIN_KERNELS = 2

MC_SCALING_FLOOR = 3.0   # epochs/s ratio, workers 8 vs 1, at 8 chips
MC_SCALING_CHIPS = 8
MC_SCALING_WORKERS = 8
MC_MIN_CPUS = 8          # scaling is only measurable with enough CPUs


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def kernel_rows(doc):
    """{(kernel, cores): row} for a BENCH_kernels.json document."""
    return {(r["kernel"], int(r["cores"])): r for r in doc["results"]}


def e5_rows(doc):
    """{(controller, cores): row} for a BENCH_e5.json document."""
    return {(r["controller"], int(r["cores"])): r for r in doc["results"]}


def mc_rows(doc):
    """{(chips, cores, workers): row} for a BENCH_multichip.json document."""
    return {(int(r["chips"]), int(r["cores"]), int(r["workers"])): r
            for r in doc["results"]}


def service_rows(doc):
    """{(sessions, cores, workers): row} for a BENCH_service.json document."""
    return {(int(r["sessions"]), int(r["cores"]), int(r["workers"])): r
            for r in doc["results"]}


def merge_best(per_file_rows, better):
    """Best-of-N merge: keep, per key, the row `better` prefers."""
    merged = {}
    for rows in per_file_rows:
        for key, row in rows.items():
            if key not in merged or better(row, merged[key]):
                merged[key] = row
    return merged


def floor_failures(rows, label):
    """Acceptance floor on one kernels table; returns failure strings."""
    winners = {
        k
        for (k, cores), r in rows.items()
        if cores >= ACCEPT_MIN_CORES and r["speedup"] >= ACCEPT_MIN_SPEEDUP
    }
    if len(winners) >= ACCEPT_MIN_KERNELS:
        return []
    return [
        f"{label}: acceptance floor missed -- only {sorted(winners)} reach "
        f"{ACCEPT_MIN_SPEEDUP}x at >= {ACCEPT_MIN_CORES} cores "
        f"(need {ACCEPT_MIN_KERNELS} kernels)"
    ]


def check_kernels(baseline_path, fresh_paths, tol):
    failures = []
    base_doc = load(baseline_path)
    fresh_docs = [load(p) for p in fresh_paths]
    for path, doc in zip(fresh_paths, fresh_docs):
        if not doc.get("simd_compiled", False):
            failures.append(
                f"kernels: {path} was produced by a scalar-only build "
                "(simd_compiled false) -- speedups are meaningless"
            )
    base = kernel_rows(base_doc)
    fresh = merge_best(
        [kernel_rows(d) for d in fresh_docs],
        lambda a, b: a["speedup"] > b["speedup"],
    )

    for key in sorted(base):
        kernel, cores = key
        if key not in fresh:
            failures.append(f"kernels: row ({kernel}, {cores}) missing "
                            "from fresh results")
            continue
        need = base[key]["speedup"] * (1.0 - tol)
        got = fresh[key]["speedup"]
        if got < need:
            failures.append(
                f"kernels: {kernel} @ {cores} cores regressed -- speedup "
                f"{got:.3f} < {need:.3f} "
                f"(committed {base[key]['speedup']:.3f} - {tol:.0%})"
            )

    failures += floor_failures(base, "kernels: committed baseline")
    failures += floor_failures(fresh, "kernels: fresh best-of-N")
    return failures


def check_e5(baseline_path, fresh_paths, tol):
    failures = []
    base = e5_rows(load(baseline_path))
    fresh = merge_best(
        [e5_rows(load(p)) for p in fresh_paths],
        lambda a, b: a["epochs_per_s"] > b["epochs_per_s"]
        or (
            a["epochs_per_s"] == b["epochs_per_s"]
            and a["mean_decide_us"] < b["mean_decide_us"]
        ),
    )
    # Latency best-of-N is independent of the throughput winner.
    lat_best = merge_best(
        [e5_rows(load(p)) for p in fresh_paths],
        lambda a, b: a["mean_decide_us"] < b["mean_decide_us"],
    )

    missing = [k for k in base if k not in fresh]
    for controller, cores in missing:
        failures.append(f"e5: row ({controller}, {cores}) missing from "
                        "fresh results")
    keys = [k for k in sorted(base) if k not in missing]
    if not keys:
        return failures

    tp_ratio = {k: fresh[k]["epochs_per_s"] / base[k]["epochs_per_s"]
                for k in keys}
    lat_ratio = {
        k: lat_best[k]["mean_decide_us"] / base[k]["mean_decide_us"]
        for k in keys
    }
    tp_med = statistics.median(tp_ratio.values())
    lat_med = statistics.median(lat_ratio.values())

    for key in keys:
        controller, cores = key
        if tp_ratio[key] < tp_med * (1.0 - tol):
            failures.append(
                f"e5: {controller} @ {cores} cores throughput regressed "
                f"relative to the suite -- ratio {tp_ratio[key]:.3f} vs "
                f"median {tp_med:.3f} (tolerance {tol:.0%})"
            )
        if lat_ratio[key] > lat_med * (1.0 + tol):
            failures.append(
                f"e5: {controller} @ {cores} cores decide latency regressed "
                f"relative to the suite -- ratio {lat_ratio[key]:.3f} vs "
                f"median {lat_med:.3f} (tolerance {tol:.0%})"
            )
    return failures


def mc_scaling_failures(rows, cpus, label):
    """Worker-scaling floor on one multichip table (cpus-gated)."""
    if cpus < MC_MIN_CPUS:
        print(f"multichip: {label} ran on {cpus} CPU(s) -- worker-scaling "
              f"floor skipped (needs >= {MC_MIN_CPUS})")
        return []
    ratios = []
    for (chips, cores, workers), row in rows.items():
        if chips != MC_SCALING_CHIPS or workers != MC_SCALING_WORKERS:
            continue
        base = rows.get((chips, cores, 1))
        if base is None:
            continue
        ratios.append(row["chip_epochs_per_s"] / base["chip_epochs_per_s"])
    if not ratios:
        return [f"multichip: {label} has no (chips={MC_SCALING_CHIPS}, "
                f"workers={MC_SCALING_WORKERS}) vs workers=1 pair"]
    if max(ratios) >= MC_SCALING_FLOOR:
        return []
    return [
        f"multichip: {label} scaling floor missed -- best workers-"
        f"{MC_SCALING_WORKERS}/workers-1 ratio at {MC_SCALING_CHIPS} chips "
        f"is {max(ratios):.2f}x (need >= {MC_SCALING_FLOOR}x)"
    ]


def check_multichip(baseline_path, fresh_paths, tol):
    failures = []
    base_doc = load(baseline_path)
    fresh_docs = [load(p) for p in fresh_paths]
    base = mc_rows(base_doc)
    fresh = merge_best(
        [mc_rows(d) for d in fresh_docs],
        lambda a, b: a["chip_epochs_per_s"] > b["chip_epochs_per_s"],
    )

    missing = [k for k in base if k not in fresh]
    for chips, cores, workers in missing:
        failures.append(f"multichip: row ({chips} chips, {cores} cores, "
                        f"{workers} workers) missing from fresh results")
    keys = [k for k in sorted(base) if k not in missing]
    if keys:
        ratio = {k: fresh[k]["chip_epochs_per_s"] /
                 base[k]["chip_epochs_per_s"] for k in keys}
        med = statistics.median(ratio.values())
        for key in keys:
            chips, cores, workers = key
            if ratio[key] < med * (1.0 - tol):
                failures.append(
                    f"multichip: {chips} chips @ {cores} cores, {workers} "
                    f"workers throughput regressed relative to the suite -- "
                    f"ratio {ratio[key]:.3f} vs median {med:.3f} "
                    f"(tolerance {tol:.0%})"
                )

    failures += mc_scaling_failures(base, int(base_doc.get("cpus", 0)),
                                    "committed baseline")
    fresh_cpus = min(int(d.get("cpus", 0)) for d in fresh_docs)
    failures += mc_scaling_failures(fresh, fresh_cpus, "fresh best-of-N")
    return failures


def check_service(baseline_path, fresh_paths, tol):
    failures = []
    base = service_rows(load(baseline_path))
    fresh = merge_best(
        [service_rows(load(p)) for p in fresh_paths],
        lambda a, b: a["epochs_per_s"] > b["epochs_per_s"],
    )

    missing = [k for k in base if k not in fresh]
    for sessions, cores, workers in missing:
        failures.append(f"service: row ({sessions} sessions, {cores} cores, "
                        f"{workers} workers) missing from fresh results")
    keys = [k for k in sorted(base) if k not in missing]
    if not keys:
        return failures

    ratio = {k: fresh[k]["epochs_per_s"] / base[k]["epochs_per_s"]
             for k in keys}
    med = statistics.median(ratio.values())
    for key in keys:
        sessions, cores, workers = key
        if ratio[key] < med * (1.0 - tol):
            failures.append(
                f"service: {sessions} sessions @ {cores} cores, {workers} "
                f"workers throughput regressed relative to the suite -- "
                f"ratio {ratio[key]:.3f} vs median {med:.3f} "
                f"(tolerance {tol:.0%})"
            )
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels-baseline",
                        help="committed BENCH_kernels.json")
    parser.add_argument("--kernels-fresh", action="append", default=[],
                        help="fresh kernels JSON (repeatable, best-of-N)")
    parser.add_argument("--e5-baseline", help="committed BENCH_e5.json")
    parser.add_argument("--e5-fresh", action="append", default=[],
                        help="fresh e5 JSON (repeatable, best-of-N)")
    parser.add_argument("--multichip-baseline",
                        help="committed BENCH_multichip.json")
    parser.add_argument("--multichip-fresh", action="append", default=[],
                        help="fresh multichip JSON (repeatable, best-of-N)")
    parser.add_argument("--service-baseline",
                        help="committed BENCH_service.json")
    parser.add_argument("--service-fresh", action="append", default=[],
                        help="fresh service JSON (repeatable, best-of-N)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed per-row regression (default 0.10)")
    args = parser.parse_args(argv)

    do_kernels = args.kernels_baseline or args.kernels_fresh
    do_e5 = args.e5_baseline or args.e5_fresh
    do_mc = args.multichip_baseline or args.multichip_fresh
    do_service = args.service_baseline or args.service_fresh
    if not do_kernels and not do_e5 and not do_mc and not do_service:
        parser.error("nothing to check: pass --kernels-*, --e5-*, "
                     "--multichip-* and/or --service-*")
    if do_kernels and not (args.kernels_baseline and args.kernels_fresh):
        parser.error("kernels check needs --kernels-baseline and at least "
                     "one --kernels-fresh")
    if do_e5 and not (args.e5_baseline and args.e5_fresh):
        parser.error("e5 check needs --e5-baseline and at least one "
                     "--e5-fresh")
    if do_mc and not (args.multichip_baseline and args.multichip_fresh):
        parser.error("multichip check needs --multichip-baseline and at "
                     "least one --multichip-fresh")
    if do_service and not (args.service_baseline and args.service_fresh):
        parser.error("service check needs --service-baseline and at least "
                     "one --service-fresh")

    failures = []
    if do_kernels:
        failures += check_kernels(args.kernels_baseline, args.kernels_fresh,
                                  args.tolerance)
    if do_e5:
        failures += check_e5(args.e5_baseline, args.e5_fresh, args.tolerance)
    if do_mc:
        failures += check_multichip(args.multichip_baseline,
                                    args.multichip_fresh, args.tolerance)
    if do_service:
        failures += check_service(args.service_baseline, args.service_fresh,
                                  args.tolerance)

    if failures:
        print("perf ratchet FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    checked = []
    if do_kernels:
        checked.append(f"kernels ({len(args.kernels_fresh)} fresh run(s))")
    if do_e5:
        checked.append(f"e5 ({len(args.e5_fresh)} fresh run(s))")
    if do_mc:
        checked.append(
            f"multichip ({len(args.multichip_fresh)} fresh run(s))")
    if do_service:
        checked.append(f"service ({len(args.service_fresh)} fresh run(s))")
    print(f"perf ratchet OK: {', '.join(checked)}, "
          f"tolerance {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
