#!/usr/bin/env python3
"""CI regression gate for the GA hot-path benchmark (BENCH_ga.json).

Validates the schema and internal consistency of a fresh ``ga_perf``
report, then gates against the checked-in reference. What can be gated
strictly differs by how reproducible each quantity is:

* **Evaluation-count efficiency** (objective computations and gene-term
  folds per considered candidate) is bit-deterministic for a fixed seed
  and config, identical on every machine. A >``--tolerance`` regression
  here — the memo stops hitting, deltas stop carrying, the incremental
  engine re-folds more than it should — fails the job. This is the
  machine-independent form of effective throughput: candidates served
  per unit of objective work.
* **Within-run wall-clock ratios** are gated only where both sides are
  measurable (>= ``WALL_FLOOR_S``): on those cells the incremental
  backend must hold a minimum advantage over the closure backend.
  Sub-millisecond cells swing tens of percent on shared runners and are
  reported, not gated.
* **Cross-machine wall ratios** against the reference are printed as
  informational trajectory context only — the reference was recorded on
  different hardware.

Usage:
    python3 scripts/bench_gate.py --current /tmp/bench.json \
        --reference BENCH_ga.json [--tolerance 0.10]
"""

import argparse
import json
import sys

# Below this wall time a cell's throughput is scheduler noise, not a
# measurement; such cells are exempt from wall-clock gating.
WALL_FLOOR_S = 0.002
# Measurable scaling cells must show at least this incremental-vs-closure
# effective-throughput advantage (observed ~3-4x at 1000 tasks).
MIN_INCREMENTAL_ADVANTAGE = 1.5

SCHEMA_VERSION = 3

RUN_FIELDS = {
    "name",
    "wall_s",
    "considered",
    "raw_objective_evals",
    "delta_evals",
    "carried",
    "memo_hits",
    "batch_dups",
    "genes_evaluated",
    "genes_total",
    "raw_evals_per_sec",
    "effective_evals_per_sec",
    "best_fitness",
}
RUN_NAMES = [
    "baseline_serial",
    "new_serial",
    "incremental_serial",
]
SCALING_FIELDS = {
    "hc_tasks",
    "population_size",
    "generations",
    "backend",
    "wall_s",
    "considered",
    "raw_objective_evals",
    "raw_evals_per_sec",
    "effective_evals_per_sec",
    "best_fitness",
}
SPEEDUPS = [
    "speedup_new_serial_vs_baseline",
    "speedup_incremental_vs_new_serial",
    "speedup_incremental_vs_baseline",
]

failures = []


def check(ok, msg):
    if ok:
        print(f"  ok: {msg}")
    else:
        failures.append(msg)
        print(f"  FAIL: {msg}", file=sys.stderr)


def validate_schema(report):
    print(f"schema validation (v{SCHEMA_VERSION}):")
    check(
        report.get("schema_version") == SCHEMA_VERSION,
        f"schema_version is {SCHEMA_VERSION}",
    )
    for key in (
        ["machine_threads", "repeats", "hc_tasks", "runs", "scaling_mode", "scaling"]
        + ["results_bit_identical", "stage_breakdown"]
        + SPEEDUPS
    ):
        check(key in report, f"top-level field {key!r} present")
    runs = {r.get("name"): r for r in report.get("runs", [])}
    check(list(runs) == RUN_NAMES, f"runs are exactly {RUN_NAMES}")
    for name, run in runs.items():
        check(
            set(run) == RUN_FIELDS,
            f"run {name!r} has the v{SCHEMA_VERSION} field set "
            f"(got {sorted(set(run) ^ RUN_FIELDS)} off)",
        )
    for i, cell in enumerate(report.get("scaling", [])):
        check(
            set(cell) == SCALING_FIELDS,
            f"scaling cell {i} has the v{SCHEMA_VERSION} field set",
        )
    if report.get("scaling_mode", "off") != "off":
        check(bool(report.get("scaling")), "scaling sweep ran and recorded cells")
    return runs


def validate_consistency(report, runs):
    print("internal consistency:")
    for name, run in runs.items():
        # raw_objective_evals = full + delta folds; every considered
        # candidate is served exactly once: computed, carried from its
        # bitwise-identical parent, or found in the memo / batch table.
        served = (
            run["raw_objective_evals"]
            + run["carried"]
            + run["memo_hits"]
            + run["batch_dups"]
        )
        check(
            run["considered"] == served,
            f"{name}: considered {run['considered']} == evals served {served}",
        )
        check(
            run["genes_evaluated"] <= run["genes_total"],
            f"{name}: genes_evaluated <= genes_total",
        )
    check(report["results_bit_identical"] is True, "all three runs bit-identical")
    fitness = {run["best_fitness"] for run in runs.values()}
    check(len(fitness) == 1, f"one best fitness across runs (got {sorted(fitness)})")
    inc = runs.get("incremental_serial")
    if inc:
        check(inc["delta_evals"] > 0, "incremental path actually delta-evaluated")
        check(
            inc["genes_evaluated"] < inc["genes_total"],
            "incremental path folded fewer gene-terms than a full recompute",
        )
    for key, by_backend in scaling_cells(report).items():
        fitness = {c["best_fitness"] for c in by_backend.values()}
        check(
            len(fitness) == 1,
            f"scaling {key[0]}t/p{key[1]}/g{key[2]}: backends agree on best fitness",
        )
    sb = report["stage_breakdown"]
    check(sb["ga_run_ns"] > 0 and sb["objective_evals"] > 0, "traced closure run recorded")
    check(sb["fitness_batch_ns"] <= sb["ga_run_ns"], "closure fitness time within run time")
    check(
        sb["incremental_fitness_batch_ns"] <= sb["incremental_ga_run_ns"],
        "incremental fitness time within run time",
    )
    check(sb["incremental_delta_evals"] > 0, "traced incremental run delta-evaluated")


def efficiency(run):
    """Deterministic per-run efficiency: objective work per candidate."""
    return {
        "compute_fraction": run["raw_objective_evals"] / run["considered"],
        "fold_fraction": run["genes_evaluated"] / max(run["genes_total"], 1),
    }


def validate_count_regression(runs, ref_runs, tolerance):
    print(f"deterministic efficiency vs reference (tolerance {tolerance:.0%}):")
    for name, run in runs.items():
        ref = ref_runs.get(name)
        if ref is None:
            print(f"  (run {name!r} absent from reference, skipped)")
            continue
        cur_eff, ref_eff = efficiency(run), efficiency(ref)
        for metric in cur_eff:
            check(
                cur_eff[metric] <= ref_eff[metric] * (1.0 + tolerance),
                f"{name}: {metric} {cur_eff[metric]:.4f} vs reference "
                f"{ref_eff[metric]:.4f}",
            )


def scaling_cells(report):
    out = {}
    for c in report.get("scaling", []):
        key = (c["hc_tasks"], c["population_size"], c["generations"])
        out.setdefault(key, {})[c["backend"]] = c
    return out


def validate_scaling(report, reference, tolerance):
    print("scaling trajectory:")
    ref_cells = scaling_cells(reference)
    gated = 0
    for key, by_backend in scaling_cells(report).items():
        if len(by_backend) < 2:
            continue
        inc, clo = by_backend["incremental"], by_backend["closure_memo"]
        where = f"scaling {key[0]}t/p{key[1]}/g{key[2]}"
        # Deterministic part: objective computations per candidate must
        # not regress against the stored trajectory.
        ref = ref_cells.get(key)
        if ref and len(ref) == 2:
            for backend in ("incremental", "closure_memo"):
                cur_cf = by_backend[backend]["raw_objective_evals"] / by_backend[
                    backend
                ]["considered"]
                ref_cf = ref[backend]["raw_objective_evals"] / ref[backend]["considered"]
                check(
                    cur_cf <= ref_cf * (1.0 + tolerance),
                    f"{where}/{backend}: compute fraction {cur_cf:.4f} vs "
                    f"reference {ref_cf:.4f}",
                )
        # Wall-clock part: only where the measurement is meaningful, and
        # only within this run (same machine, same process).
        advantage = inc["effective_evals_per_sec"] / clo["effective_evals_per_sec"]
        if inc["wall_s"] >= WALL_FLOOR_S and clo["wall_s"] >= WALL_FLOOR_S:
            gated += 1
            check(
                advantage >= MIN_INCREMENTAL_ADVANTAGE,
                f"{where}: incremental advantage {advantage:.2f}x >= "
                f"{MIN_INCREMENTAL_ADVANTAGE}x",
            )
        else:
            print(f"  ({where}: advantage {advantage:.2f}x, sub-measurable wall, not gated)")
    check(gated > 0, "at least one measurable scaling cell was wall-gated")


def print_wall_context(report, reference):
    print("wall-clock trajectory vs reference (informational, different hardware):")
    for name in SPEEDUPS:
        cur, ref = report.get(name), reference.get(name)
        if cur is not None and ref is not None:
            print(f"  {name}: current {cur:.3f}x, reference {ref:.3f}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True, help="fresh ga_perf report")
    ap.add_argument("--reference", required=True, help="checked-in BENCH_ga.json")
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args()

    with open(args.current) as f:
        report = json.load(f)
    with open(args.reference) as f:
        reference = json.load(f)

    runs = validate_schema(report)
    if failures:
        print(f"\nbench gate: {len(failures)} schema failure(s)", file=sys.stderr)
        return 1
    validate_consistency(report, runs)
    ref_runs = {r.get("name"): r for r in reference.get("runs", [])}
    if reference.get("schema_version") == SCHEMA_VERSION:
        validate_count_regression(runs, ref_runs, args.tolerance)
        validate_scaling(report, reference, args.tolerance)
    else:
        print(
            f"(reference predates schema v{SCHEMA_VERSION}; "
            "count-regression gate skipped)"
        )
    print_wall_context(report, reference)

    if failures:
        print(f"\nbench gate: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nbench gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
