#!/usr/bin/env python3
"""Schema-validate every BENCH_*.json in a directory.

The bench binaries hand-render their JSON (no serializer dependency), so a
refactor can silently emit something the evaluation plots cannot read. This
gate fails CI when any emitted file is unparseable, empty, contains a
non-finite number, or is missing the fields its consumers index by.

Usage: check_bench_json.py [dir]   (default: current directory)
"""
import glob
import json
import math
import os
import sys

# Per-file required keys. Array-shaped files list the keys of every element;
# object-shaped files map each top-level section to its elements' keys. A
# bench absent from this table still gets the generic checks.
ARRAY_SCHEMAS = {
    "BENCH_snapshot.json": {
        "readers", "writers", "seconds", "selects", "updates",
        "select_qps", "update_qps", "total_qps",
        "snapshots_acquired", "live_generations",
    },
    "BENCH_scan.json": {
        "workload", "path", "rows", "seconds", "rows_per_sec", "batches",
        "materialized_rows",
    },
    "BENCH_point_lookup.json": {
        "path", "rows", "seconds", "lookups", "qps", "speedup_vs_scan",
        "stripes_skipped", "stripes_skipped_bloom", "files_skipped",
        "cache_hits", "cache_misses", "cache_hit_rate",
        "index_lookups", "index_stale_dropped",
    },
    "BENCH_parallel_scan.json": {
        "workload", "workers", "rows", "seconds", "scan_bytes",
        "modeled_seconds", "wall_speedup", "modeled_speedup",
    },
    "BENCH_attached_scan.json": {
        "layout", "level", "cells", "records", "sstables", "seconds", "ns_per_cell",
    },
    "BENCH_observability.json": {
        "workload", "scan", "rows", "rows_per_sec_on", "rows_per_sec_off",
        "overhead_pct", "cost_audit_records",
        "hist_observe_ns", "hist_rotate_ns", "recorder_samples",
    },
}
OBJECT_SCHEMAS = {
    "BENCH_incremental_compact.json": {
        "rounds": {
            "mode", "round", "read_modeled_seconds", "read_wall_seconds",
            "maintenance_modeled_seconds", "read_overlay_rows",
            "rows_rewritten", "attached_bytes", "compacted",
        },
        "summary": {
            "mode", "read_p50", "read_p99", "read_p99_over_p50",
            "maintenance_modeled_total", "rows_rewritten_total",
        },
        "calibration": {
            "gain", "statements", "first_half_mean_error",
            "second_half_mean_error", "edit_cost_scale", "overwrite_cost_scale",
        },
    },
    "BENCH_orc_codec.json": {
        "columns": {
            "dataset", "type", "columns", "values", "encoded_bytes",
            "encode_ns_per_value", "decode_ns_per_value",
        },
        "rows": {
            "dataset", "rows", "columns", "file_bytes",
            "encode_ns_per_row", "decode_ns_per_row",
        },
        "crc": {"path", "bytes", "ns_per_byte", "crc"},
    },
    "BENCH_adaptive_maintenance.json": {
        "rounds": {
            "mode", "round", "burst", "read_modeled_seconds",
            "read_wall_seconds", "maintenance_modeled_seconds", "attached_bytes",
        },
        "summary": {
            "mode", "read_p50", "read_p99", "read_p99_over_p50",
            "maintenance_modeled_total", "rounds", "preview_scans", "skips",
            "incremental_compacts", "triggers_density", "triggers_latency",
            "triggers_bytes",
        },
    },
}


def check_parallel_scan(data, name, errors):
    """BM_ParallelScan aggregates from a cold cache: every sweep point reads
    rows and encoded bytes, and each workload has its one-worker baseline."""
    baselines = set()
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            continue
        if entry.get("rows", 0) <= 0:
            errors.append(f"{name}[{i}]: rows must be positive (nothing aggregated)")
        if entry.get("scan_bytes", 0) <= 0:
            errors.append(f"{name}[{i}]: scan_bytes must be positive (a cold scan "
                          "reads its stripes)")
        if entry.get("workers") == 1:
            baselines.add(entry.get("workload"))
    for workload in {e.get("workload") for e in data if isinstance(e, dict)} - baselines:
        errors.append(f"{name}: workload {workload!r} has no workers=1 baseline")


def check_scan(data, name, errors):
    """BM_RawScan counts one scan into a meter of its own: every entry read
    batches, the row path materialized each row it visited, and the batch
    path materialized none. A scan that stops reaching its meter fails."""
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            continue
        if entry.get("batches", 0) <= 0:
            errors.append(f"{name}[{i}]: batches must be positive (the scan was not "
                          "metered)")
        path = entry.get("path")
        materialized = entry.get("materialized_rows")
        if path == "row" and materialized != entry.get("rows"):
            errors.append(f"{name}[{i}]: row path materialized {materialized} of "
                          f"{entry.get('rows')} rows")
        if path == "batch" and materialized != 0:
            errors.append(f"{name}[{i}]: batch path materialized {materialized} rows")


# Value checks beyond the schema, per file.
VALUE_CHECKS = {
    "BENCH_parallel_scan.json": check_parallel_scan,
    "BENCH_scan.json": check_scan,
}


def walk_numbers(node, path, errors):
    if isinstance(node, float) and not math.isfinite(node):
        errors.append(f"{path}: non-finite number {node!r}")
    elif isinstance(node, dict):
        for key, value in node.items():
            walk_numbers(value, f"{path}.{key}", errors)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk_numbers(value, f"{path}[{i}]", errors)


def check_elements(elements, required, path, errors):
    if not elements:
        errors.append(f"{path}: empty — a bench that measured nothing")
        return
    for i, element in enumerate(elements):
        if not isinstance(element, dict):
            errors.append(f"{path}[{i}]: expected an object, got {type(element).__name__}")
            continue
        missing = required - element.keys()
        if missing:
            errors.append(f"{path}[{i}]: missing keys {sorted(missing)}")


def check_file(path):
    name = os.path.basename(path)
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{name}: unreadable or invalid JSON: {exc}"]

    walk_numbers(data, name, errors)

    if name in ARRAY_SCHEMAS:
        if not isinstance(data, list):
            errors.append(f"{name}: expected a top-level array")
        else:
            check_elements(data, ARRAY_SCHEMAS[name], name, errors)
            if name in VALUE_CHECKS:
                VALUE_CHECKS[name](data, name, errors)
    elif name in OBJECT_SCHEMAS:
        if not isinstance(data, dict):
            errors.append(f"{name}: expected a top-level object")
        else:
            for section, required in OBJECT_SCHEMAS[name].items():
                if section not in data:
                    errors.append(f"{name}: missing section {section!r}")
                elif not isinstance(data[section], list):
                    errors.append(f"{name}.{section}: expected an array")
                else:
                    check_elements(data[section], required, f"{name}.{section}", errors)
    elif isinstance(data, (list, dict)) and not data:
        errors.append(f"{name}: empty document")
    return errors


def main():
    directory = sys.argv[1] if len(sys.argv) > 1 else "."
    files = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not files:
        print(f"check_bench_json: no BENCH_*.json under {directory}", file=sys.stderr)
        return 1
    failures = []
    for path in files:
        errors = check_file(path)
        status = "FAIL" if errors else "ok"
        print(f"{status:4s}  {path}")
        failures.extend(errors)
    for error in failures:
        print(f"  {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
