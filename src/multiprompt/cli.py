"""Command-line surface: cost tables, benchmarks, verification, toy training.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource guard
tripped.  Report documents are JSON (one object) and CSV with a fixed
column order; the ``MULTIPROMPT_OUT_DIR`` environment variable supplies
the default directory for relative output paths.  With ``--json``,
standard output carries the document alone and a command's table goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import costmodel as cm
from . import report as rep
from .bench import BenchConfig, run_bench
from .engines import ENGINES, PID, PIE
from .errors import ConfigError, LengthError, ResourceLimitError
from .training import ToyTrainingSpec, replay_run, run_toy_training
from .verify import FAULT_CORRUPT_SHARED_KV, run_checks

EXIT_OK, EXIT_CHECK_FAILURE, EXIT_USAGE, EXIT_RESOURCE = 0, 1, 2, 3


def _out_path(raw: str | None) -> Path | None:
    if raw is None:
        return None
    path = Path(raw)
    base = os.environ.get("MULTIPROMPT_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _resolve_workload(parser: argparse.ArgumentParser, args) -> tuple[cm.ShapeParams, str, str]:
    """Returns (shape, model preset name, run-id stem)."""
    if args.shape and args.preset:
        parser.error("give either --preset or --shape, not both")
    if args.shape:
        try:
            shape = cm.parse_shape(args.shape)
        except ConfigError as exc:
            parser.error(str(exc))
        model_name = args.model or "toy"
        stem = rep.shape_slug(asdict(shape))
    else:
        name = args.preset or "toy"
        try:
            preset = cm.resolve_preset(name)
        except ConfigError as exc:
            parser.error(str(exc))
        shape = preset.shape
        model_name = args.model or preset.model
        stem = name
    if model_name not in cm.MODEL_PRESETS:
        parser.error(
            f"unknown model preset {model_name!r}; available: {', '.join(sorted(cm.MODEL_PRESETS))}"
        )
    return shape, model_name, stem


def _load_profile(parser, raw: str | None) -> cm.HardwareProfile:
    if raw is None:
        return cm.BUILTIN_PROFILES["a100-as-printed"]
    if raw in cm.BUILTIN_PROFILES:
        return cm.BUILTIN_PROFILES[raw]
    try:
        return cm.HardwareProfile.from_file(raw)
    except (OSError, ConfigError) as exc:
        parser.error(f"cannot load hardware profile {raw!r}: {exc}")


def _table_stream(args):
    """Where a command prints its table: standard error when ``--json``
    gives standard output to the document alone."""
    return sys.stderr if args.json else sys.stdout


def _emit(doc: dict, args, csv_rows: list[dict]) -> None:
    """Print and write ``doc`` as ``args`` ask; the CSV header is the first row's keys."""
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    out = _out_path(args.out)
    if out:
        rep.write_json(doc, out)
        print(f"wrote {out}", file=sys.stderr)
    csv_out = _out_path(args.csv)
    if csv_out:
        rep.write_csv(csv_rows, list(csv_rows[0]), csv_out)
        print(f"wrote {csv_out}", file=sys.stderr)


# -- cost -----------------------------------------------------------------------


def cmd_cost(parser, args) -> int:
    shape, model_name, stem = _resolve_workload(parser, args)
    profile = _load_profile(parser, args.hw_profile)
    model = cm.MODEL_PRESETS[model_name]
    modes = (cm.TABLE1, cm.APPENDIX_B)
    breakdowns = {e: {m: cm.table1_counts(shape, e, m).to_dict() for m in modes} for e in ENGINES}
    # the flop ratio and the roofline both read one exact replay of each engine's run
    try:
        runs = {e: cm.predict_run_counters(model, shape, e)[1] for e in ENGINES}
    except ConfigError as exc:  # the model's width or heads differ from the shape's
        if args.model:
            parser.error(str(exc))
        runs = {}
    ratio = runs[cm.PID].flops / runs[cm.PIE].flops if runs else None
    roofline = {e: cm.roofline_estimate(run, profile) for e, run in runs.items()} if runs else None
    body = {
        "shape": asdict(shape),
        "model_preset": model_name,
        "note": cm.DECODER_ROW_NOTE,
        "breakdowns": breakdowns,
        "roofline": roofline,
        "flop_ratio": ratio,
        "flops_per_mac": cm.FLOPS_PER_MAC,
        "bytes_per_symbol": cm.BYTES_PER_SYMBOL,
    }
    run_id = f"{stem}-s{args.seed}"
    doc = rep.make_document(
        "cost", run_id, args.seed,
        {
            "preset": args.preset, "shape_slug": rep.shape_slug(asdict(shape)),
            "shape": asdict(shape), "model": model_name, "seed": args.seed,
            "hw_profile": profile.name,
            "workload_note": "synthetic instances of matching shape stand in for corpus data",
        },
        body,
    )

    table = _table_stream(args)
    print(f"workload: {stem}  shape: {rep.shape_slug(asdict(shape))}", file=table)
    print(f"model: {model_name}  hw profile: {profile.name}", file=table)
    print(f"note: {cm.DECODER_ROW_NOTE}", file=table)
    for engine in ENGINES:
        for mode in modes:
            bd = breakdowns[engine][mode]
            print(f"\n[{engine} / {mode}]  (memory in symbols, x4 for bytes)", file=table)
            print(f"  {'component':<22}{'memory':>14}{'operations':>16}", file=table)
            for comp, cell in bd["components"].items():
                print(
                    f"  {comp:<22}{cell['memory_symbols']:>14}{cell['ops_symbols']:>16}",
                    file=table,
                )
        cells = breakdowns[engine][cm.APPENDIX_B]["components"]
        print(f"  inverse intensity ({cm.APPENDIX_B}): " + ", ".join(
            f"{label}={cell['inverse_intensity']:.6g}" for label, cell in cells.items()
        ), file=table)
        if roofline is not None:
            seconds = roofline[engine]["total_seconds"]
            print(f"  whole-run roofline: {seconds:.6g} s ({profile.name})", file=table)
    if ratio is not None:
        print(f"\nwhole-model flop ratio (pid/pie): {ratio:.4f}", file=table)

    csv_rows = [
        {
            "run_id": run_id, "preset": args.preset, "engine": engine, "mode": mode,
            "component": comp, **cell,
        }
        for engine in ENGINES
        for mode in modes
        for comp, cell in breakdowns[engine][mode]["components"].items()
    ]
    _emit(doc, args, csv_rows)
    return EXIT_OK


# -- bench ----------------------------------------------------------------------


def cmd_bench(parser, args) -> int:
    shape, model_name, stem = _resolve_workload(parser, args)
    model = cm.MODEL_PRESETS[model_name]
    try:
        batch_sizes = tuple(int(x) for x in args.batch_sizes.split(","))
    except ValueError:
        parser.error(f"malformed --batch-sizes {args.batch_sizes!r}")
    try:
        if args.max_new is not None:
            shape = replace(shape, n_t=args.max_new)
        config = BenchConfig(
            model=model, shape=shape, seed=args.seed,
            repetitions=args.reps, warmup=args.warmup, batch_sizes=batch_sizes,
            mem_cap_bytes=args.mem_cap,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    try:
        result = run_bench(config)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LengthError as exc:  # the shape does not fit the model's max_len
        parser.error(str(exc))
    run_id = f"{stem}-s{args.seed}"
    doc = rep.make_document(
        "bench", run_id, args.seed,
        {
            "preset": args.preset, "shape_slug": rep.shape_slug(asdict(shape)),
            "shape": asdict(shape), "model": model_name, "seed": args.seed,
            "repetitions": args.reps, "warmup": args.warmup,
            "batch_sizes": list(batch_sizes), "hw_profile": None,
            "workload_note": "synthetic instances of matching shape stand in for corpus data",
        },
        asdict(result),
    )
    table = _table_stream(args)
    for engine, t in sorted(result.engines.items()):
        flag = "  UNSTABLE" if t.unstable else ""
        faults = "n/a" if t.minor_faults_per_op is None else f"{t.minor_faults_per_op:.0f}"
        print(
            f"{engine}: single {t.single_mean_s * 1e3:.2f} ms mean "
            f"(median {t.single_median_s * 1e3:.2f}, std {t.single_std_s * 1e3:.2f}), "
            f"minor faults/op {faults}, traced peak {t.op_peak_bytes / 2**20:.2f} MiB{flag}",
            file=table,
        )
        for b, s in sorted(t.batched_per_instance_s.items()):
            print(f"   batch {b}: {s * 1e3:.2f} ms/instance", file=table)
        print(
            f"   optimal batch {t.optimal_batch}, tokens {t.token_checksum}, "
            f"wasted stream-steps {t.wasted_stream_steps}",
            file=table,
        )
    print(
        f"speedup pid vs pie: single {result.speedup_single:.2f}x, "
        f"batched {result.speedup_batched:.2f}x",
        file=table,
    )
    print(
        f"flop ratio measured {result.measured_flop_ratio:.4f}, "
        f"analytic {result.analytic_flop_ratio:.4f}",
        file=table,
    )
    csv_rows = [
        {
            "run_id": run_id, "preset": args.preset, "engine": engine,
            **{k: v for k, v in asdict(t).items() if k != "batched_per_instance_s"},
            "speedup_single": result.speedup_single,
            "speedup_batched": result.speedup_batched,
            "measured_flop_ratio": result.measured_flop_ratio,
            "analytic_flop_ratio": result.analytic_flop_ratio,
        }
        for engine, t in sorted(result.engines.items())
    ]
    _emit(doc, args, csv_rows)
    return EXIT_OK


# -- verify -----------------------------------------------------------------------


def cmd_verify(parser, args) -> int:
    names = args.checks.split(",") if args.checks else None
    try:
        results = run_checks(
            seed=args.seed, names=names, fault=args.inject_fault, full=args.full,
        )
    except ValueError as exc:
        parser.error(str(exc))
    table = _table_stream(args)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}", file=table)
    passed = all(r.passed for r in results)
    run_id = f"verify-s{args.seed}"
    doc = rep.make_document(
        "verify", run_id, args.seed,
        {
            "preset": None, "shape_slug": None, "seed": args.seed,
            "full": args.full,
            "inject_fault": args.inject_fault, "hw_profile": None,
            "checks": [r.name for r in results],
        },
        {"checks": [asdict(r) for r in results], "all_passed": passed},
    )
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed", file=table)
    csv_rows = [
        {"run_id": run_id, "check": r.name, "passed": r.passed} for r in results
    ]
    _emit(doc, args, csv_rows)
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


# -- train-toy ---------------------------------------------------------------------


def cmd_train_toy(parser, args) -> int:
    try:
        spec = ToyTrainingSpec(
            epochs=args.epochs, learning_rate=args.lr, batch_instances=args.batch,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    runs = run_toy_training(spec, seed=args.seed)
    config, examples = spec.model_config(), list(spec.task().train)
    replayed = {e: replay_run(config, examples, e, spec.batch_instances, 1).flops for e in ENGINES}
    predicted = replayed[PIE] / replayed[PID]
    measured = runs[PIE].flops_per_epoch / runs[PID].flops_per_epoch
    body = {
        "spec": {
            "epochs": spec.epochs, "learning_rate": spec.learning_rate,
            "batch_instances": spec.batch_instances, "n_prompts": spec.n_prompts,
            "n_s": spec.n_s, "vocab_size": spec.vocab_size,
            "n_instances": spec.n_instances, "optimizer": "sgd",
        },
        "layouts": {
            layout: {key: getattr(run, key) for key in ("losses", "exact_match", "flops_per_epoch")}
            for layout, run in runs.items()
        },
        "measured_epoch_flop_ratio": measured,
        "predicted_epoch_flop_ratio": predicted,
    }
    run_id = f"train-toy-s{args.seed}"
    doc = rep.make_document(
        "train-toy", run_id, args.seed,
        {"preset": None, "shape_slug": None, "seed": args.seed,
         "hw_profile": None},
        body,
    )
    table = _table_stream(args)
    for layout, run in runs.items():
        print(
            f"{layout}: loss {run.losses[0]:.3f} -> {run.losses[-1]:.4f}, "
            f"held-out exact match {run.exact_match:.3f}, "
            f"epoch flops {run.flops_per_epoch}",
            file=table,
        )
    print(
        f"epoch flop ratio pie/pid: measured {measured:.3f}, replayed {predicted:.3f}",
        file=table,
    )
    csv_rows = [
        {
            "run_id": run_id, "layout": layout,
            "exact_match": run.exact_match,
            "flops_per_epoch": run.flops_per_epoch,
            "final_loss": run.losses[-1],
        }
        for layout, run in runs.items()
    ]
    _emit(doc, args, csv_rows)
    return EXIT_OK


# -- report ------------------------------------------------------------------------


def cmd_report(parser, args) -> int:
    docs = []
    for raw in args.paths:
        try:
            docs.append(rep.load_document(raw))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read report: {exc}")
    try:
        rows = rep.merge_documents(docs)
    except ValueError as exc:
        parser.error(str(exc))
    for row in rows:
        cells = ", ".join(
            f"{k}={row[k]}" for k in rep.MERGED_COLUMNS if row.get(k) not in (None, "")
        )
        print(cells)
    out_json = _out_path(args.out_json)
    if out_json:
        rep.write_json({"rows": rows, "columns": rep.MERGED_COLUMNS}, out_json)
        print(f"wrote {out_json}", file=sys.stderr)
    out_csv = _out_path(args.out_csv)
    if out_csv:
        rep.write_csv(rows, rep.MERGED_COLUMNS, out_csv)
        print(f"wrote {out_csv}", file=sys.stderr)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, else a usage
    error that names the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiprompt",
        description="Analytic cost model and instrumented benchmarks for "
        "shared-input multi-prompt encoder-decoder inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_workload=True):
        if with_workload:
            p.add_argument("--preset", help="workload preset name")
            p.add_argument("--shape", help="explicit shape, e.g. U=8,b=1,n_s=64,n_t=8,n_p=4,d=64,h=4")
            p.add_argument("--model", help="model preset (toy, t5-base-like, t5-large-like)")
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--json", action="store_true", help="print the JSON document to stdout, and the table to stderr")
        p.add_argument("--out", help="write the JSON document to this path")
        p.add_argument("--csv", help="write the CSV table to this path")

    p_cost = sub.add_parser("cost", help="analytic cost tables, intensity, whole-run roofline")
    common(p_cost)
    p_cost.add_argument("--hw-profile", help="builtin profile name or key=value file")
    p_cost.set_defaults(fn=cmd_cost, parser=p_cost)

    p_bench = sub.add_parser("bench", help="wall-clock latency, single and batched")
    common(p_bench)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--warmup", type=int, default=2)
    p_bench.add_argument("--batch-sizes", default="1,2")
    p_bench.add_argument("--max-new", type=int, default=None)
    p_bench.add_argument(
        "--mem-cap", type=_int_at_least(1), default=1 << 30, help="memory guard in bytes"
    )
    p_bench.set_defaults(fn=cmd_bench, parser=p_bench)

    p_verify = sub.add_parser("verify", help="run the deterministic check suite")
    common(p_verify, with_workload=False)
    p_verify.add_argument("--full", action="store_true", help="also run the training and latency checks")
    p_verify.add_argument("--checks", help="comma-separated checks to run, from every check")
    p_verify.add_argument(
        "--inject-fault", choices=(FAULT_CORRUPT_SHARED_KV,), default=None,
        help="debug fault: corrupt the shared cross-attention cache",
    )
    p_verify.set_defaults(fn=cmd_verify, parser=p_verify)

    p_train = sub.add_parser("train-toy", help="train both layouts on the synthetic task")
    common(p_train, with_workload=False)
    p_train.add_argument("--epochs", type=int, default=ToyTrainingSpec.epochs)
    p_train.add_argument("--lr", type=float, default=ToyTrainingSpec.learning_rate)
    p_train.add_argument("--batch", type=int, default=ToyTrainingSpec.batch_instances)
    p_train.set_defaults(fn=cmd_train_toy, parser=p_train)

    p_report = sub.add_parser("report", help="join cost/bench/verify documents by run id")
    p_report.add_argument("paths", nargs="+")
    p_report.add_argument("--out-json")
    p_report.add_argument("--out-csv")
    p_report.set_defaults(fn=cmd_report, parser=p_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args.parser, args)


if __name__ == "__main__":
    sys.exit(main())
