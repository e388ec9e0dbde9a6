"""Report documents: JSON bodies, fixed-order CSV, and run-id joins.

Every document embeds the artifact version, the seed, the fully resolved
configuration, and the hardware profile name, so a report is reproducible
from its own header.  The ``created_unix`` timestamp lives in ``meta`` and
is excluded when comparing bodies for determinism.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path
from typing import Any, Iterable

from . import __version__

KINDS = ("cost", "bench", "verify", "train-toy")

#: Fixed column order of the merged comparison table.
MERGED_COLUMNS = [
    "run_id",
    "preset",
    "shape",
    "seed",
    "cost_flop_ratio",
    "cost_total_ops_pie",
    "cost_total_ops_pid",
    "cost_roofline_total_s_pie",
    "cost_roofline_total_s_pid",
    "bench_speedup_single",
    "bench_speedup_batched",
    "bench_measured_flop_ratio",
    "bench_pie_single_median_s",
    "bench_pid_single_median_s",
    "verify_passed",
    "verify_checks_passed",
    "verify_checks_total",
    "train_pid_exact_match",
    "train_pie_exact_match",
    "train_flop_ratio_measured",
    "train_flop_ratio_predicted",
]


def make_document(
    kind: str,
    run_id: str,
    seed: int,
    config: dict[str, Any],
    body: dict[str, Any],
) -> dict:
    if kind not in KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    return {
        "meta": {
            "artifact": "multiprompt",
            "version": __version__,
            "kind": kind,
            "run_id": run_id,
            "created_unix": time.time(),
        },
        "config": dict(config),
        "body": body,
    }


def body_bytes(doc: dict) -> bytes:
    """Canonical serialization of everything except the timestamp."""
    stripped = {
        "meta": {k: v for k, v in doc["meta"].items() if k != "created_unix"},
        "config": doc["config"],
        "body": doc["body"],
    }
    return json.dumps(stripped, sort_keys=True).encode()


def write_json(doc: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def load_document(path: str | Path) -> dict:
    """Read a report document; ``ValueError`` names the path and what it lacks."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    missing = [
        key for key in ("meta", "config", "body")
        if not (isinstance(doc, dict) and isinstance(doc.get(key), dict))
    ]
    if missing:
        raise ValueError(f"{path} is not a report document: no {', '.join(missing)} object")
    meta = doc["meta"]
    if meta.get("kind") not in KINDS:
        raise ValueError(f"{path}: meta.kind {meta.get('kind')!r} is not one of {', '.join(KINDS)}")
    if not isinstance(meta.get("run_id"), str):
        raise ValueError(f"{path}: meta.run_id is missing or not a string")
    return doc


def write_csv(rows: Iterable[dict], columns: list[str], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def _cost_fields(doc: dict) -> dict:
    body = doc["body"]
    out = {"cost_flop_ratio": body.get("flop_ratio")}
    for engine in ("pie", "pid"):
        table = body.get("breakdowns", {}).get(engine, {}).get("table1")
        if table:
            out[f"cost_total_ops_{engine}"] = table["totals"]["ops_symbols"]
        roof = body.get("roofline", {}).get(engine)
        if roof:
            out[f"cost_roofline_total_s_{engine}"] = roof["total_seconds"]
    return out


def _bench_fields(doc: dict) -> dict:
    body = doc["body"]
    out = {
        "bench_speedup_single": body.get("speedup_single"),
        "bench_speedup_batched": body.get("speedup_batched"),
        "bench_measured_flop_ratio": body.get("measured_flop_ratio"),
    }
    for engine in ("pie", "pid"):
        timing = body.get("engines", {}).get(engine)
        if timing:
            out[f"bench_{engine}_single_median_s"] = timing["single_median_s"]
    return out


def _verify_fields(doc: dict) -> dict:
    checks = doc["body"].get("checks", [])
    return {
        "verify_passed": all(c["passed"] for c in checks) if checks else None,
        "verify_checks_passed": sum(1 for c in checks if c["passed"]),
        "verify_checks_total": len(checks),
    }


def _train_fields(doc: dict) -> dict:
    body = doc["body"]
    out = {
        "train_flop_ratio_measured": body.get("measured_epoch_flop_ratio"),
        "train_flop_ratio_predicted": body.get("predicted_epoch_flop_ratio"),
    }
    for layout, run in body.get("layouts", {}).items():
        out[f"train_{layout}_exact_match"] = run.get("exact_match")
    return out


_EXTRACTORS = {
    "cost": _cost_fields,
    "bench": _bench_fields,
    "verify": _verify_fields,
    "train-toy": _train_fields,
}


def merge_documents(docs: list[dict]) -> list[dict]:
    """One merged row per run id; duplicate (kind, run id) pairs are an error."""
    seen: set[tuple[str, str]] = set()
    rows: dict[str, dict] = {}
    for doc in docs:
        kind = doc["meta"]["kind"]
        run_id = doc["meta"]["run_id"]
        key = (kind, run_id)
        if key in seen:
            raise ValueError(f"duplicate run id {run_id!r} for kind {kind!r}")
        seen.add(key)
        row = rows.setdefault(run_id, {"run_id": run_id})
        row.setdefault("preset", doc["config"].get("preset"))
        row.setdefault("shape", doc["config"].get("shape_slug"))
        row.setdefault("seed", doc["config"].get("seed"))
        row.update(_EXTRACTORS[kind](doc))
    return [rows[k] for k in sorted(rows)]


def shape_slug(shape_dict: dict) -> str:
    return "U{U}-b{b}-ns{n_s}-nt{n_t}-np{n_p}-d{d}-h{h}".format(**shape_dict)
