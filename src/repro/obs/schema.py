"""Schema validation for the unified telemetry artifact.

The document produced by :meth:`Telemetry.to_document` /
``--metrics-json`` is validated structurally here (no third-party JSON
Schema dependency — the environment is offline). CI's smoke job runs::

    python -m repro.obs.schema out.json

which exits non-zero with a readable error list if the artifact drifts
from the documented shape (docs/observability.md). The same entry point
recognises the ``bsisa perf`` benchmark artifact (``BENCH_sim.json``,
schema :data:`BENCH_SCHEMA_ID`) by its ``schema`` field and validates
it with :func:`bench_document_errors` instead.
"""

from __future__ import annotations

import json
import sys

from repro.errors import TelemetryError
from repro.obs.events import ALL_EVENT_KINDS
from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM
from repro.obs.telemetry import SCHEMA_ID

_NUMBER = (int, float)

#: Schema id of the ``bsisa perf`` artifact (docs/performance.md).
BENCH_SCHEMA_ID = "repro.bench/v2"

#: Schema id of the ``bsisa verify-paper`` artifact (docs/fidelity.md).
FIDELITY_SCHEMA_ID = "repro.fidelity/v1"

#: Schema id of the ``bsisa analyze`` / ``bsisa run --insight`` artifact
#: (docs/observability.md).
INSIGHT_SCHEMA_ID = "repro.insight/v1"

#: Schema id of the ``bsisa scenarios sweep`` artifact (docs/scenarios.md).
SCENARIO_SCHEMA_ID = "repro.scenario/v1"

#: The cycle-accounting buckets of one :class:`repro.insight.InsightReport`,
#: in display order. Every simulated cycle lands in exactly one bucket:
#: ``sum(buckets) == cycles`` is part of the schema contract.
INSIGHT_CYCLE_BUCKETS = (
    "busy_fetch",
    "icache_stall",
    "redirect_stall",
    "window_stall",
    "squash_recovery",
    "drain",
)


def _check_labels(labels, where: str, errors: list[str]) -> None:
    if not isinstance(labels, dict):
        errors.append(f"{where}: labels must be an object")
        return
    for k, v in labels.items():
        if not isinstance(k, str) or not isinstance(v, str):
            errors.append(f"{where}: label {k!r}={v!r} must be str->str")


def _check_span(span, i: int, errors: list[str]) -> None:
    where = f"spans[{i}]"
    if not isinstance(span, dict):
        errors.append(f"{where}: must be an object")
        return
    if not isinstance(span.get("name"), str) or not span.get("name"):
        errors.append(f"{where}: missing/empty name")
    for field in ("start_s", "duration_s"):
        if not isinstance(span.get(field), _NUMBER):
            errors.append(f"{where}: {field} must be a number")
        elif field == "duration_s" and span[field] < 0:
            errors.append(f"{where}: negative duration")
    if not isinstance(span.get("depth"), int) or span.get("depth", 0) < 0:
        errors.append(f"{where}: depth must be a non-negative int")
    _check_labels(span.get("labels", {}), where, errors)


def _check_metric(metric, i: int, errors: list[str]) -> None:
    where = f"metrics[{i}]"
    if not isinstance(metric, dict):
        errors.append(f"{where}: must be an object")
        return
    name = metric.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{where}: missing/empty name")
    kind = metric.get("kind")
    if kind not in (COUNTER, GAUGE, HISTOGRAM):
        errors.append(f"{where}: bad kind {kind!r}")
        return
    _check_labels(metric.get("labels", {}), where, errors)
    if kind == HISTOGRAM:
        for field in ("count", "sum", "min", "max", "mean"):
            if not isinstance(metric.get(field), _NUMBER):
                errors.append(f"{where}: histogram {field} must be a number")
        buckets = metric.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            errors.append(f"{where}: histogram needs a bucket list")
        else:
            for j, bucket in enumerate(buckets):
                if (
                    not isinstance(bucket, dict)
                    or "le" not in bucket
                    or not isinstance(bucket.get("count"), int)
                ):
                    errors.append(f"{where}: bad bucket [{j}]")
    elif not isinstance(metric.get("value"), _NUMBER):
        errors.append(f"{where}: {kind} value must be a number")


def _check_event(event, i: int, errors: list[str]) -> None:
    where = f"trace.events[{i}]"
    if not isinstance(event, dict):
        errors.append(f"{where}: must be an object")
        return
    if not isinstance(event.get("seq"), int) or event.get("seq", 0) <= 0:
        errors.append(f"{where}: seq must be a positive int")
    if event.get("event") not in ALL_EVENT_KINDS:
        errors.append(f"{where}: unknown event kind {event.get('event')!r}")
    if not isinstance(event.get("cycle"), int) or event.get("cycle", 0) < 0:
        errors.append(f"{where}: cycle must be a non-negative int")


def document_errors(doc) -> list[str]:
    """Every schema violation found in *doc* (empty list == valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    if doc.get("schema") != SCHEMA_ID:
        errors.append(
            f"schema must be {SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("meta"), dict):
        errors.append("meta must be an object")

    spans = doc.get("spans")
    if not isinstance(spans, list):
        errors.append("spans must be a list")
    else:
        for i, span in enumerate(spans):
            _check_span(span, i, errors)

    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        errors.append("metrics must be a list")
    else:
        for i, metric in enumerate(metrics):
            _check_metric(metric, i, errors)

    trace = doc.get("trace")
    if not isinstance(trace, dict):
        errors.append("trace must be an object")
    else:
        for field in ("capacity", "emitted", "dropped"):
            if not isinstance(trace.get(field), int):
                errors.append(f"trace.{field} must be an int")
        events = trace.get("events")
        if not isinstance(events, list):
            errors.append("trace.events must be a list")
        else:
            seqs = []
            for i, event in enumerate(events):
                _check_event(event, i, errors)
                if isinstance(event, dict) and isinstance(
                    event.get("seq"), int
                ):
                    seqs.append(event["seq"])
            if seqs != sorted(seqs):
                errors.append("trace.events seq numbers must be increasing")
    return errors


_BENCH_ENTRY_NUMBERS = (
    "compile_s",
    "capture_s",
    "replay_s",
    "units",
    "ops",
    "trace_bytes",
)
_BENCH_TOTAL_NUMBERS = ("capture_s", "replay_s")
#: Present only when the vectorized replay kernel ran (numpy installed
#: and the kernel not forced to 'python') — validated when present.
_BENCH_ENTRY_VECTOR_NUMBERS = ("vector_s",)
_BENCH_TOTAL_VECTOR_NUMBERS = ("vector_s", "replay_vs_vector")
#: The batched-sweep columns (docs/performance.md, "Sweep-batched
#: replay"). ``bsisa perf`` emits them for every kernel; validated
#: when present.
_BENCH_ENTRY_SWEEP_NUMBERS = ("sweep_s", "sweep_per_config_s", "sweep_points")
_BENCH_TOTAL_SWEEP_NUMBERS = ("sweep_s", "sweep_per_config_s", "speedup_sweep")


def bench_document_errors(doc) -> list[str]:
    """Every schema violation in a ``BENCH_sim.json`` document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    if doc.get("schema") != BENCH_SCHEMA_ID:
        errors.append(
            f"schema must be {BENCH_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("meta"), dict):
        errors.append("meta must be an object")
    entries = doc.get("benchmarks")
    if not isinstance(entries, list) or not entries:
        errors.append("benchmarks must be a non-empty list")
        entries = []
    for i, entry in enumerate(entries):
        where = f"benchmarks[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object")
            continue
        for field in ("benchmark", "isa"):
            if not isinstance(entry.get(field), str) or not entry.get(field):
                errors.append(f"{where}: missing/empty {field}")
        for field in _BENCH_ENTRY_NUMBERS:
            value = entry.get(field)
            if not isinstance(value, _NUMBER) or value < 0:
                errors.append(f"{where}: {field} must be a non-negative number")
        for field in _BENCH_ENTRY_VECTOR_NUMBERS + _BENCH_ENTRY_SWEEP_NUMBERS:
            if field in entry and (
                not isinstance(entry[field], _NUMBER) or entry[field] < 0
            ):
                errors.append(f"{where}: {field} must be a non-negative number")
        for field in ("vector_match", "sweep_match"):
            if field in entry and not isinstance(entry[field], bool):
                errors.append(f"{where}: {field} must be a bool")
        fallbacks = entry.get("vector_fallbacks", 0)
        if type(fallbacks) is not int or fallbacks < 0:
            errors.append(f"{where}: vector_fallbacks must be a non-negative int")
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        errors.append("totals must be an object")
    else:
        for field in _BENCH_TOTAL_NUMBERS:
            if not isinstance(totals.get(field), _NUMBER):
                errors.append(f"totals.{field} must be a number")
        if not isinstance(totals.get("stats_match"), bool):
            errors.append("totals.stats_match must be a bool")
        for field in _BENCH_TOTAL_VECTOR_NUMBERS + _BENCH_TOTAL_SWEEP_NUMBERS:
            if field in totals and not isinstance(totals[field], _NUMBER):
                errors.append(f"totals.{field} must be a number")
    return errors


_FIDELITY_STATUSES = ("pass", "fail", "skip")
_FIDELITY_KINDS = ("numeric", "shape")
_FIDELITY_FIGURES = (
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
)
_FIDELITY_SUMMARY_COUNTS = (
    "checked",
    "passed",
    "failed",
    "skipped",
    "shape_failed",
    "numeric_failed",
)


def _check_fidelity_claim(entry, i: int, errors: list[str]) -> None:
    where = f"claims[{i}]"
    if not isinstance(entry, dict):
        errors.append(f"{where}: must be an object")
        return
    for field in ("id", "figure", "statement"):
        if not isinstance(entry.get(field), str) or not entry.get(field):
            errors.append(f"{where}: missing/empty {field}")
    if entry.get("figure") not in _FIDELITY_FIGURES:
        errors.append(f"{where}: unknown figure {entry.get('figure')!r}")
    kind = entry.get("kind")
    if kind not in _FIDELITY_KINDS:
        errors.append(f"{where}: bad kind {kind!r}")
        return
    if entry.get("status") not in _FIDELITY_STATUSES:
        errors.append(f"{where}: bad status {entry.get('status')!r}")
    if not isinstance(entry.get("detail", ""), str):
        errors.append(f"{where}: detail must be a string")
    if kind == "numeric":
        if not isinstance(entry.get("paper"), _NUMBER):
            errors.append(f"{where}: numeric paper value must be a number")
        band = entry.get("band")
        if not isinstance(band, dict):
            errors.append(f"{where}: numeric claim needs a band object")
        else:
            for side in ("low", "high"):
                value = band.get(side, None)
                if value is not None and not isinstance(value, _NUMBER):
                    errors.append(
                        f"{where}: band.{side} must be a number or null"
                    )
        if entry.get("status") != "skip" and not isinstance(
            entry.get("measured"), _NUMBER
        ):
            errors.append(
                f"{where}: evaluated numeric claim needs a measured number"
            )
    elif entry.get("band") is not None:
        errors.append(f"{where}: shape claims carry no band")


def fidelity_document_errors(doc) -> list[str]:
    """Every schema violation in a ``BENCH_paper.json`` document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    if doc.get("schema") != FIDELITY_SCHEMA_ID:
        errors.append(
            f"schema must be {FIDELITY_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append("meta must be an object")
    else:
        if not isinstance(meta.get("scale"), _NUMBER) or meta["scale"] <= 0:
            errors.append("meta.scale must be a positive number")
        benchmarks = meta.get("benchmarks")
        if not isinstance(benchmarks, list) or not all(
            isinstance(b, str) for b in benchmarks
        ):
            errors.append("meta.benchmarks must be a list of strings")
    claims = doc.get("claims")
    ids = []
    if not isinstance(claims, list) or not claims:
        errors.append("claims must be a non-empty list")
        claims = []
    for i, entry in enumerate(claims):
        _check_fidelity_claim(entry, i, errors)
        if isinstance(entry, dict) and isinstance(entry.get("id"), str):
            ids.append(entry["id"])
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        errors.append(f"duplicate claim ids: {dupes}")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("summary must be an object")
    else:
        for field in _FIDELITY_SUMMARY_COUNTS:
            if not isinstance(summary.get(field), int) or summary[field] < 0:
                errors.append(f"summary.{field} must be a non-negative int")
        if not isinstance(summary.get("ok"), bool):
            errors.append("summary.ok must be a bool")
        if claims and not errors:
            statuses = [c["status"] for c in claims]
            expected = {
                "checked": len(statuses),
                "passed": statuses.count("pass"),
                "failed": statuses.count("fail"),
                "skipped": statuses.count("skip"),
            }
            for field, value in expected.items():
                if summary[field] != value:
                    errors.append(
                        f"summary.{field} is {summary[field]}, claims say "
                        f"{value}"
                    )
            if summary["ok"] != (expected["failed"] == 0):
                errors.append("summary.ok disagrees with the failure count")
    return errors


_INSIGHT_COUNTS = (
    "fetched_units",
    "squashed_units",
    "fetched_ops",
    "retired_ops",
    "squashed_ops",
)


def _check_int_hist(hist, where: str, errors: list[str]) -> dict[int, int]:
    """Validate a ``{str(int): int >= 0}`` histogram; parsed copy back."""
    out: dict[int, int] = {}
    if not isinstance(hist, dict):
        errors.append(f"{where}: must be an object")
        return out
    for key, value in hist.items():
        try:
            bin_ = int(key)
        except (TypeError, ValueError):
            errors.append(f"{where}: non-integer bin {key!r}")
            continue
        if bin_ < 0 or not isinstance(value, int) or value < 0:
            errors.append(f"{where}: bad bin {key!r}={value!r}")
            continue
        out[bin_] = value
    return out


def _check_insight_report(entry, i: int, errors: list[str]) -> None:
    where = f"reports[{i}]"
    if not isinstance(entry, dict):
        errors.append(f"{where}: must be an object")
        return
    if not isinstance(entry.get("benchmark"), str) or not entry["benchmark"]:
        errors.append(f"{where}: missing/empty benchmark")
    if entry.get("isa") not in ("conventional", "block"):
        errors.append(f"{where}: bad isa {entry.get('isa')!r}")
    numbers_ok = True
    for field in ("cycles",) + INSIGHT_CYCLE_BUCKETS + _INSIGHT_COUNTS:
        value = entry.get(field)
        if not isinstance(value, int) or value < 0:
            errors.append(f"{where}: {field} must be a non-negative int")
            numbers_ok = False
    fetch_hist = _check_int_hist(
        entry.get("fetch_hist"), f"{where}.fetch_hist", errors
    )
    unit_fetched = _check_int_hist(
        entry.get("unit_fetched"), f"{where}.unit_fetched", errors
    )
    unit_retired = _check_int_hist(
        entry.get("unit_retired"), f"{where}.unit_retired", errors
    )
    config = entry.get("config")
    if config is not None and not isinstance(config, dict):
        errors.append(f"{where}: config must be an object or null")
    if not numbers_ok:
        return
    # The cycle-accounting identity is part of the schema: CI validating
    # the artifact re-asserts it on the shipped numbers.
    accounted = sum(entry[b] for b in INSIGHT_CYCLE_BUCKETS)
    if accounted != entry["cycles"]:
        errors.append(
            f"{where}: cycle accounting broken — sum(buckets)={accounted} "
            f"!= cycles={entry['cycles']}"
        )
    if entry["retired_ops"] + entry["squashed_ops"] != entry["fetched_ops"]:
        errors.append(
            f"{where}: retired_ops + squashed_ops != fetched_ops"
        )
    mass = sum(fetch_hist.values())
    if mass != entry["busy_fetch"]:
        errors.append(
            f"{where}: fetch_hist mass={mass} != busy_fetch="
            f"{entry['busy_fetch']}"
        )
    op_mass = sum(bin_ * count for bin_, count in fetch_hist.items())
    if op_mass != entry["fetched_ops"]:
        errors.append(
            f"{where}: fetch_hist op mass={op_mass} != fetched_ops="
            f"{entry['fetched_ops']}"
        )
    if sum(unit_fetched.values()) != entry["fetched_units"]:
        errors.append(f"{where}: unit_fetched mass != fetched_units")
    retired_units = entry["fetched_units"] - entry["squashed_units"]
    if sum(unit_retired.values()) != retired_units:
        errors.append(
            f"{where}: unit_retired mass != fetched_units - squashed_units"
        )


def insight_document_errors(doc) -> list[str]:
    """Every schema violation in a ``repro.insight/v1`` document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    if doc.get("schema") != INSIGHT_SCHEMA_ID:
        errors.append(
            f"schema must be {INSIGHT_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("meta"), dict):
        errors.append("meta must be an object")
    reports = doc.get("reports")
    if not isinstance(reports, list) or not reports:
        errors.append("reports must be a non-empty list")
        reports = []
    for i, entry in enumerate(reports):
        _check_insight_report(entry, i, errors)
    return errors


_SCENARIO_WINNERS = ("block", "conventional", "tie")
_SCENARIO_REALIZED_NUMBERS = (
    "mean_bb_ops",
    "mispredict_rate",
    "branch_events",
    "hot_bytes",
    "static_code_bytes",
    "block_code_bytes",
)
_SCENARIO_AXES = ("bb_size", "bias", "hot_bytes", "icache_kb")
_SCENARIO_SUMMARY_COUNTS = (
    "cells",
    "points",
    "block_wins",
    "conventional_wins",
    "ties",
    "crossover_points",
)


def _check_scenario_cell(cell, i: int, errors: list[str]) -> None:
    where = f"cells[{i}]"
    if not isinstance(cell, dict):
        errors.append(f"{where}: must be an object")
        return
    if not isinstance(cell.get("family"), str) or not cell.get(
        "family", ""
    ).startswith("synthetic/"):
        errors.append(
            f"{where}: family must be a 'synthetic/…' name, got "
            f"{cell.get('family')!r}"
        )
    target = cell.get("target")
    if not isinstance(target, dict):
        errors.append(f"{where}: target must be an object")
    else:
        for field in ("bb_size", "bias", "hot_bytes", "seed"):
            if not isinstance(target.get(field), _NUMBER):
                errors.append(f"{where}: target.{field} must be a number")
    realized = cell.get("realized")
    if not isinstance(realized, dict):
        errors.append(f"{where}: realized must be an object")
    else:
        for field in _SCENARIO_REALIZED_NUMBERS:
            value = realized.get(field)
            if not isinstance(value, _NUMBER) or value < 0:
                errors.append(
                    f"{where}: realized.{field} must be a non-negative "
                    f"number"
                )
        hist = realized.get("bb_hist")
        if not isinstance(hist, list) or not all(
            isinstance(b, list)
            and len(b) == 2
            and all(isinstance(v, int) and v > 0 for v in b)
            for b in hist
        ):
            errors.append(
                f"{where}: realized.bb_hist must be a list of "
                f"[size, count] positive-int pairs"
            )
    if not isinstance(cell.get("attempts"), int) or cell["attempts"] < 1:
        errors.append(f"{where}: attempts must be a positive int")
    points = cell.get("results")
    if not isinstance(points, list) or not points:
        errors.append(f"{where}: results must be a non-empty list")
        points = []
    for j, point in enumerate(points):
        pwhere = f"{where}.results[{j}]"
        if not isinstance(point, dict):
            errors.append(f"{pwhere}: must be an object")
            continue
        for field in ("icache_kb", "conventional_cycles", "block_cycles"):
            value = point.get(field)
            if not isinstance(value, _NUMBER) or value <= 0:
                errors.append(f"{pwhere}: {field} must be a positive number")
        speedup = point.get("speedup")
        if not isinstance(speedup, _NUMBER) or speedup <= 0:
            errors.append(f"{pwhere}: speedup must be a positive number")
        elif isinstance(point.get("conventional_cycles"), _NUMBER) and (
            isinstance(point.get("block_cycles"), _NUMBER)
            and point["block_cycles"]
        ):
            ratio = point["conventional_cycles"] / point["block_cycles"]
            if abs(ratio - speedup) > 0.001:
                errors.append(
                    f"{pwhere}: speedup={speedup} disagrees with the "
                    f"cycle ratio {ratio:.4f}"
                )
        if point.get("winner") not in _SCENARIO_WINNERS:
            errors.append(
                f"{pwhere}: winner must be one of {_SCENARIO_WINNERS}"
            )


def scenario_document_errors(doc) -> list[str]:
    """Every schema violation in a ``repro.scenario/v1`` document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    if doc.get("schema") != SCENARIO_SCHEMA_ID:
        errors.append(
            f"schema must be {SCENARIO_SCHEMA_ID!r}, got "
            f"{doc.get('schema')!r}"
        )
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append("meta must be an object")
    else:
        grid = meta.get("grid")
        if not isinstance(grid, dict):
            errors.append("meta.grid must be an object")
        else:
            for axis in ("bb_size", "bias", "hot_kb", "icache_kb"):
                values = grid.get(axis)
                if not isinstance(values, list) or not values or not all(
                    isinstance(v, _NUMBER) for v in values
                ):
                    errors.append(
                        f"meta.grid.{axis} must be a non-empty number list"
                    )
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells must be a non-empty list")
        cells = []
    families = []
    for i, cell in enumerate(cells):
        _check_scenario_cell(cell, i, errors)
        if isinstance(cell, dict) and isinstance(cell.get("family"), str):
            families.append(cell["family"])
    if len(families) != len(set(families)):
        dupes = sorted({f for f in families if families.count(f) > 1})
        errors.append(f"duplicate cell families: {dupes}")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("summary must be an object")
    else:
        for field in _SCENARIO_SUMMARY_COUNTS:
            if not isinstance(summary.get(field), int) or summary[field] < 0:
                errors.append(f"summary.{field} must be a non-negative int")
        axes = summary.get("crossover_axes")
        if not isinstance(axes, list) or not all(
            a in _SCENARIO_AXES for a in axes
        ):
            errors.append(
                f"summary.crossover_axes must be a list drawn from "
                f"{_SCENARIO_AXES}"
            )
        if cells and not errors:
            points = [
                p
                for c in cells
                for p in c["results"]
            ]
            expected = {
                "cells": len(cells),
                "points": len(points),
                "block_wins": sum(
                    1 for p in points if p["winner"] == "block"
                ),
                "conventional_wins": sum(
                    1 for p in points if p["winner"] == "conventional"
                ),
                "ties": sum(1 for p in points if p["winner"] == "tie"),
            }
            for field, value in expected.items():
                if summary[field] != value:
                    errors.append(
                        f"summary.{field} is {summary[field]}, cells say "
                        f"{value}"
                    )
    return errors


def validate_document(doc) -> None:
    """Raise :class:`TelemetryError` listing every violation in *doc*."""
    errors = document_errors(doc)
    if errors:
        raise TelemetryError(
            "invalid telemetry document:\n  " + "\n  ".join(errors)
        )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.schema FILE`` — validate an artifact."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema FILE", file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("schema") == BENCH_SCHEMA_ID:
        errors = bench_document_errors(doc)
    elif isinstance(doc, dict) and doc.get("schema") == FIDELITY_SCHEMA_ID:
        errors = fidelity_document_errors(doc)
    elif isinstance(doc, dict) and doc.get("schema") == INSIGHT_SCHEMA_ID:
        errors = insight_document_errors(doc)
    elif isinstance(doc, dict) and doc.get("schema") == SCENARIO_SCHEMA_ID:
        errors = scenario_document_errors(doc)
    else:
        errors = document_errors(doc)
    if errors:
        print(f"{argv[0]}: INVALID", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    if doc.get("schema") == BENCH_SCHEMA_ID:
        print(
            f"{argv[0]}: ok ({len(doc['benchmarks'])} benchmark entries, "
            f"stats_match={doc['totals']['stats_match']})"
        )
    elif doc.get("schema") == FIDELITY_SCHEMA_ID:
        summary = doc["summary"]
        print(
            f"{argv[0]}: ok ({summary['checked']} claims, "
            f"{summary['failed']} failed, ok={summary['ok']})"
        )
    elif doc.get("schema") == INSIGHT_SCHEMA_ID:
        print(
            f"{argv[0]}: ok ({len(doc['reports'])} insight reports, "
            f"cycle accounting balanced)"
        )
    elif doc.get("schema") == SCENARIO_SCHEMA_ID:
        summary = doc["summary"]
        print(
            f"{argv[0]}: ok ({summary['cells']} cells, "
            f"{summary['points']} points, "
            f"{summary['crossover_points']} crossover pairs on axes "
            f"{summary['crossover_axes']})"
        )
    else:
        print(
            f"{argv[0]}: ok ({len(doc['metrics'])} metric series, "
            f"{len(doc['spans'])} spans, {len(doc['trace']['events'])} "
            f"trace events)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
