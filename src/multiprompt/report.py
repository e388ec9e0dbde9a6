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
    try:
        _EXTRACTORS[meta["kind"]](doc["body"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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


def _at(body: dict, *path: str | int, required: bool = False) -> Any:
    """The body entry at ``path`` (object keys, list indices), ``None`` where it or an entry
    on the way is absent or null; ``ValueError`` names a missing ``required`` entry."""
    node: Any = body
    for depth, key in enumerate(path):
        if node is None:
            break
        kind = list if isinstance(key, int) else dict
        if not isinstance(node, kind):
            raise ValueError(f"{_field(path[:depth])} is not {'a list' if kind is list else 'an object'}")
        node = node[key] if kind is list else node.get(key)
    if node is None and required:
        raise ValueError(f"{_field(path)} is missing")
    return node


def _field(path: tuple) -> str:
    return "body" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def _cost_fields(body: dict) -> dict:
    out = {"cost_flop_ratio": body.get("flop_ratio")}
    for engine in ("pie", "pid"):
        if _at(body, "breakdowns", engine, "table1") is not None:
            out[f"cost_total_ops_{engine}"] = _at(
                body, "breakdowns", engine, "table1", "totals", "ops_symbols", required=True
            )
        if _at(body, "roofline", engine) is not None:
            out[f"cost_roofline_total_s_{engine}"] = _at(
                body, "roofline", engine, "total_seconds", required=True
            )
    return out


def _bench_fields(body: dict) -> dict:
    out = {
        "bench_speedup_single": body.get("speedup_single"),
        "bench_speedup_batched": body.get("speedup_batched"),
        "bench_measured_flop_ratio": body.get("measured_flop_ratio"),
    }
    for engine in ("pie", "pid"):
        if _at(body, "engines", engine) is not None:
            out[f"bench_{engine}_single_median_s"] = _at(
                body, "engines", engine, "single_median_s", required=True
            )
    return out


def _verify_fields(body: dict) -> dict:
    checks = body.get("checks") or []
    if not isinstance(checks, list):
        raise ValueError("body.checks is not a list")
    passed = [_at(body, "checks", i, "passed", required=True) for i in range(len(checks))]
    return {
        "verify_passed": all(passed) if passed else None,
        "verify_checks_passed": sum(1 for p in passed if p),
        "verify_checks_total": len(passed),
    }


def _train_fields(body: dict) -> dict:
    out = {
        "train_flop_ratio_measured": body.get("measured_epoch_flop_ratio"),
        "train_flop_ratio_predicted": body.get("predicted_epoch_flop_ratio"),
    }
    layouts = body.get("layouts") or {}
    if not isinstance(layouts, dict):
        raise ValueError("body.layouts is not an object")
    for layout in layouts:
        out[f"train_{layout}_exact_match"] = _at(body, "layouts", layout, "exact_match")
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
        row.update(_EXTRACTORS[kind](doc["body"]))
    return [rows[k] for k in sorted(rows)]


def shape_slug(shape_dict: dict) -> str:
    return "U{U}-b{b}-ns{n_s}-nt{n_t}-np{n_p}-d{d}-h{h}".format(**shape_dict)
