"""CLI contracts: exit codes, document formats, determinism, joins."""

import json

import pytest

from multiprompt import verify
from multiprompt.cli import main
from multiprompt.report import body_bytes, load_document, merge_documents


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_json(capsys, *argv):
    """Exit code, the document that is all of standard output, and the table
    that ``--json`` sends to standard error."""
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_cost_multiwoz_includes_ratio(capsys):
    code, doc, table = run_cli_json(capsys, "cost", "--preset", "multiwoz")
    assert code == 0
    assert "whole-model flop ratio" in table
    ratio = doc["body"]["flop_ratio"]
    assert 0.05 <= ratio <= 0.2


def test_cost_trivial_shape_rows_identical(capsys):
    code, doc, _ = run_cli_json(capsys, "cost", "--shape", "U=1,b=1,n_s=16,n_t=4,n_p=0,d=16,h=2")
    assert code == 0
    bd = doc["body"]["breakdowns"]
    assert bd["pie"]["table1"]["components"] == bd["pid"]["table1"]["components"]
    # the default toy model does not fit d=16, h=2, so nothing is counted
    assert doc["body"]["flop_ratio"] is None and doc["body"]["roofline"] is None


def test_unknown_preset_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--preset", "definitely-not-a-preset"])
    assert exc.value.code == 2


def test_malformed_shape_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--shape", "U=two"])
    assert exc.value.code == 2


def test_bench_requires_three_repetitions():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--preset", "toy", "--reps", "2"])
    assert exc.value.code == 2


def test_bench_refuses_parallel():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--preset", "toy", "--parallel"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--shape", "U=8,b=1,n_s=256,n_t=16,n_p=4,d=64,h=8", "--model", "toy"],
        ["bench", "--preset", "toy", "--max-new", "0"],
        ["train-toy", "--epochs", "0"],
        ["train-toy", "--batch", "0"],
        # a fault that no selected check applies
        ["verify", "--checks", "encoder_sharing", "--inject-fault", "corrupt-shared-kv"],
        ["train-toy", "--lr", "nan"],
        ["cost", "--shape", "U=2,U=30,b=1,n_s=16,n_t=4,n_p=0,d=64,h=4"],
    ],
)
def test_bad_values_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--preset", "toy", "--seed", "-1"],
        ["bench", "--preset", "toy", "--seed", "-1"],
        ["verify", "--checks", "counter_additivity", "--seed", "-1"],
        ["train-toy", "--epochs", "1", "--seed", "-1"],
        ["bench", "--preset", "toy", "--mem-cap", "0"],
        ["bench", "--preset", "toy", "--mem-cap", "-5"],
    ],
    ids=lambda argv: " ".join([argv[0], *argv[-2:]]),
)
def test_a_negative_seed_or_a_non_positive_memory_cap_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err


def test_a_malformed_hardware_profile_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.profile"
    p.write_text("name = x\npeak_flops_per_s = abc\nmem_bytes_per_s = 2e9\n")
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--preset", "toy", "--hw-profile", str(p)])
    assert exc.value.code == 2
    assert "is not a number" in capsys.readouterr().err


def test_bench_resource_guard_exit_code():
    assert main(["bench", "--preset", "toy", "--mem-cap", "512"]) == 3


def test_bench_tokens_deterministic_across_runs(capsys, tmp_path):
    argv = [
        "bench", "--shape", "U=2,b=1,n_s=16,n_t=3,n_p=0,d=64,h=4", "--model", "toy",
        "--reps", "3", "--warmup", "0", "--batch-sizes", "1", "--seed", "5",
    ]
    code1, doc1, _ = run_cli_json(capsys, *argv)
    code2, doc2, _ = run_cli_json(capsys, *argv)
    assert code1 == code2 == 0
    sums1 = {e: t["token_checksum"] for e, t in doc1["body"]["engines"].items()}
    sums2 = {e: t["token_checksum"] for e, t in doc2["body"]["engines"].items()}
    assert sums1 == sums2


def test_bench_reports_wasted_stream_steps_per_engine(capsys):
    import numpy as np

    from multiprompt.bench import random_workload
    from multiprompt.costmodel import MODEL_PRESETS
    from multiprompt.engines import infer
    from multiprompt.model import init_weights

    # on weights seed 1 two of pid's four streams emit the end token early
    code, doc, table = run_cli_json(
        capsys, "bench", "--shape", "U=4,b=1,n_s=16,n_t=16,n_p=2,d=64,h=4", "--model", "toy",
        "--reps", "3", "--warmup", "0", "--batch-sizes", "1", "--seed", "1",
    )
    assert code == 0
    engines = doc["body"]["engines"]
    toy = MODEL_PRESETS["toy"]
    wl = random_workload(np.random.default_rng(1), toy.vocab_size, 4, 1, 16, 2, 16)
    for engine, timing in engines.items():
        wasted = infer(engine, toy, init_weights(toy, 1), wl).wasted_stream_steps
        assert timing["wasted_stream_steps"] == wasted
        assert f"wasted stream-steps {wasted}" in table
    assert engines["pid"]["wasted_stream_steps"] == 12
    assert engines["pie"]["wasted_stream_steps"] == 0


def test_bench_reports_minor_faults_per_op(capsys, monkeypatch, tmp_path):
    import csv

    from multiprompt import bench

    path = tmp_path / "bench.csv"
    argv = [
        "bench", "--shape", "U=2,b=1,n_s=16,n_t=3,n_p=0,d=64,h=4", "--model", "toy",
        "--reps", "3", "--warmup", "0", "--batch-sizes", "1", "--csv", str(path),
    ]
    code, doc, table = run_cli_json(capsys, *argv)
    assert code == 0
    rows = {row["engine"]: row for row in csv.DictReader(open(path))}
    for engine, timing in doc["body"]["engines"].items():
        faults = timing["minor_faults_per_op"]
        assert isinstance(faults, float) and faults >= 0
        assert f"{engine}: single " in table and f"minor faults/op {faults:.0f}" in table
        assert float(rows[engine]["minor_faults_per_op"]) == faults
    # without the resource module there is no count, and none is made up
    monkeypatch.setattr(bench, "resource", None)
    code, doc, table = run_cli_json(capsys, *argv)
    assert code == 0
    engines = doc["body"]["engines"]
    assert all(timing["minor_faults_per_op"] is None for timing in engines.values())
    assert table.count("minor faults/op n/a") == 2
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 2 and all(row["minor_faults_per_op"] == "" for row in rows)


def test_bench_reports_each_engines_traced_peak(capsys, tmp_path):
    import csv

    path = tmp_path / "bench.csv"
    code, doc, table = run_cli_json(
        capsys, "bench", "--shape", "U=2,b=1,n_s=16,n_t=3,n_p=0,d=64,h=4", "--model", "toy",
        "--reps", "3", "--warmup", "0", "--batch-sizes", "1", "--csv", str(path),
    )
    assert code == 0
    engines = doc["body"]["engines"]
    rows = {row["engine"]: row for row in csv.DictReader(open(path))}
    for engine, timing in engines.items():
        peak = timing["op_peak_bytes"]
        assert isinstance(peak, int) and peak > 0
        assert int(rows[engine]["op_peak_bytes"]) == peak
        assert f"traced peak {peak / 2**20:.2f} MiB" in table
    # pie encodes each of the U = 2 streams' inputs, pid the shared one once
    assert engines["pie"]["op_peak_bytes"] > engines["pid"]["op_peak_bytes"]


def test_run_bench_interleaves_engines_and_reuses_batch1_series(monkeypatch):
    from types import SimpleNamespace

    from multiprompt import bench
    from multiprompt.costmodel import MODEL_PRESETS, ShapeParams

    calls = []

    def fake_time_once(engine, model, weights, wl):
        calls.append((engine, wl.batch_size))
        seconds = len(calls) * (1.0 if engine == "pie" else 0.5)
        result = SimpleNamespace(
            counters=SimpleNamespace(flops=7), flat_outputs=lambda: [[2]], wasted_stream_steps=0,
        )
        return seconds, result

    monkeypatch.setattr(bench, "_time_once", fake_time_once)
    shape = ShapeParams(U=2, b=1, n_s=8, n_t=2, n_p=0, d=64, h=4)
    report = bench.run_bench(bench.BenchConfig(
        model=MODEL_PRESETS["toy"], shape=shape, repetitions=3, warmup=1, batch_sizes=(1, 2),
    ))
    # warm-up, then per rep each batch size once per engine, first engine alternating
    assert calls == [
        ("pie", 1), ("pid", 1),
        ("pie", 1), ("pid", 1), ("pie", 2), ("pid", 2),
        ("pid", 1), ("pie", 1), ("pid", 2), ("pie", 2),
        ("pie", 1), ("pid", 1), ("pie", 2), ("pid", 2),
    ]
    for timing in report.engines.values():
        assert timing.single_median_s == timing.batched_per_instance_s[1]
    # speedups are medians of per-repetition pie/pid ratios, not ratios of
    # medians (8 / 3.5 single and 5 / 2.25 batched here)
    assert report.speedup_single == 11.0 / 6.0
    assert report.speedup_batched == 6.5 / 3.5


def roofline_matches_mirror(roofline, run, profile):
    """Whether a ``cost`` roofline carries ``run``'s counts per component (bytes
    read plus written), each component's seconds are its roofline bound, and
    the total is their sum."""
    counts = run.component_totals()
    comps = roofline["components"]
    return (
        comps.keys() == counts.keys()
        and all(
            c["flops"] == counts[label].flops
            and c["bytes"] == counts[label].bytes_read + counts[label].bytes_written
            and c["seconds"] == max(
                c["flops"] / profile.peak_flops_per_s, c["bytes"] / profile.mem_bytes_per_s
            )
            for label, c in comps.items()
        )
        and roofline["total_seconds"] == sum(c["seconds"] for c in comps.values())
    )


def test_cost_roofline_reads_the_exact_mirror(capsys):
    from multiprompt import costmodel as cm

    profile = cm.BUILTIN_PROFILES["a100-as-printed"]
    for name, preset in cm.SHAPE_PRESETS.items():
        code, doc, _ = run_cli_json(capsys, "cost", "--preset", name)
        assert code == 0
        model = cm.MODEL_PRESETS[preset.model]
        assert doc["body"]["flop_ratio"] == cm.flop_ratio(model, preset.shape)
        for engine in ("pie", "pid"):
            encode, run = cm.predict_run_counters(model, preset.shape, engine)
            roofline = doc["body"]["roofline"][engine]
            assert roofline["profile"] == profile.name
            assert roofline_matches_mirror(roofline, run, profile), (name, engine)
            # negative control: the encode phase alone is not the run
            encode_only = json.loads(json.dumps(cm.roofline_estimate(encode, profile)))
            assert not roofline_matches_mirror(encode_only, run, profile), (name, engine)


#: The CSV column order each command promises; the headers come from the
#: commands' own rows, so this table is where the order is pinned.
CSV_HEADERS = {
    "cost": [
        "run_id", "preset", "engine", "mode", "component",
        "memory_symbols", "ops_symbols", "bytes",
        "inverse_intensity",
    ],
    "bench": [
        "run_id", "preset", "engine",
        "single_mean_s", "single_std_s", "single_median_s",
        "optimal_batch", "optimal_per_instance_s", "total_flops",
        "token_checksum", "wasted_stream_steps", "minor_faults_per_op", "op_peak_bytes",
        "unstable",
        "speedup_single", "speedup_batched",
        "measured_flop_ratio", "analytic_flop_ratio",
    ],
    "verify": ["run_id", "check", "passed"],
    "train-toy": ["run_id", "layout", "exact_match", "flops_per_epoch", "final_loss"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--preset", "toy"],
        [
            "bench", "--shape", "U=2,b=1,n_s=16,n_t=3,n_p=0,d=64,h=4", "--model", "toy",
            "--reps", "3", "--warmup", "0", "--batch-sizes", "1",
        ],
        ["verify", "--checks", "counter_additivity"],
        ["train-toy", "--epochs", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_headers_keep_their_column_order(capsys, tmp_path, argv):
    import csv

    path = tmp_path / "out.csv"
    assert main([*argv, "--csv", str(path)]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == CSV_HEADERS[argv[0]]
    assert rows and all(len(row) == len(header) for row in rows)


def test_verify_subset_deterministic_json(capsys):
    argv = [
        "verify", "--checks", "counter_additivity,intensity_formulas,flop_ratio_presets",
        "--seed", "3",
    ]
    code1, doc1, table = run_cli_json(capsys, *argv)
    code2, doc2, _ = run_cli_json(capsys, *argv)
    assert code1 == code2 == 0
    assert table.splitlines()[-1] == "3/3 checks passed"
    assert body_bytes(doc1) == body_bytes(doc2)


def test_verify_fault_injection_fails_broadcast_check(capsys):
    code, out = run_cli(
        capsys, "verify", "--checks", "broadcast_equivalence",
        "--inject-fault", "corrupt-shared-kv",
    )
    assert code == 1
    assert "FAIL  broadcast_equivalence" in out


def test_verify_exit_zero_on_pass(capsys):
    code, out = run_cli(capsys, "verify", "--checks", "counter_additivity")
    assert code == 0
    assert "PASS  counter_additivity" in out


def test_verify_checks_select_a_full_only_check(capsys, monkeypatch):
    # --checks selects from every check; --full only widens the default set
    monkeypatch.setitem(verify.FULL_ONLY_CHECKS, "train_toy", lambda seed: verify.CheckResult("train_toy", True, {}))
    assert run_cli(capsys, "verify", "--checks", "train_toy") == (0, "PASS  train_toy\n1/1 checks passed\n")


def test_report_join_and_duplicate_error(capsys, tmp_path):
    cost_path = tmp_path / "cost.json"
    verify_path = tmp_path / "verify.json"
    code, _ = run_cli(
        capsys, "cost", "--preset", "toy", "--seed", "9", "--out", str(cost_path)
    )
    assert code == 0
    code, _ = run_cli(
        capsys, "verify", "--checks", "counter_additivity", "--seed", "9",
        "--out", str(verify_path),
    )
    assert code == 0
    merged_csv = tmp_path / "merged.csv"
    code, out = run_cli(
        capsys, "report", str(cost_path), str(verify_path), "--out-csv", str(merged_csv)
    )
    assert code == 0
    lines = merged_csv.read_text().splitlines()
    assert lines[0].startswith("run_id,preset,shape,seed,cost_flop_ratio")
    assert len(lines) == 3  # header plus two disjoint run ids
    with pytest.raises(SystemExit) as exc:
        main(["report", str(cost_path), str(cost_path)])
    assert exc.value.code == 2


def test_report_joins_a_cost_document_without_a_roofline(capsys, tmp_path):
    path = tmp_path / "cost.json"
    assert main(["cost", "--shape", "U=2,b=1,n_s=16,n_t=4,n_p=0,d=512,h=8", "--out", str(path)]) == 0
    (row,) = merge_documents([load_document(path)])
    assert row["cost_flop_ratio"] is None and "cost_roofline_total_s_pie" not in row
    assert row["cost_total_ops_pie"] > row["cost_total_ops_pid"]


@pytest.mark.parametrize(
    "content, missing",
    [
        ("{}", "no meta, config, body object"),
        ("[1, 2]", "no meta, config, body object"),
        (
            '{"meta": {"kind": "nope", "run_id": "r"}, "config": {}, "body": {}}',
            "meta.kind 'nope'",
        ),
        (
            '{"meta": {"kind": "verify", "run_id": "r"}, "config": {}, "body": {"checks": [{}]}}',
            "body.checks[0].passed is missing",
        ),
        (
            '{"meta": {"kind": "cost", "run_id": "r"}, "config": {},'
            ' "body": {"breakdowns": {"pie": {"table1": {"components": {}}}}}}',
            "body.breakdowns.pie.table1.totals.ops_symbols is missing",
        ),
    ],
    ids=["empty_object", "list", "unknown_kind", "verify_check_without_passed", "cost_without_totals"],
)
def test_report_on_a_file_that_is_not_a_report_is_a_usage_error(
    capsys, tmp_path, content, missing
):
    path = tmp_path / "x.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(path) in err and missing in err


def test_out_dir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULTIPROMPT_OUT_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "cost", "--preset", "toy", "--out", "sub/cost.json")
    assert code == 0
    doc = load_document(tmp_path / "sub" / "cost.json")
    assert doc["meta"]["kind"] == "cost"
    assert doc["meta"]["version"]
    assert doc["config"]["hw_profile"] == "a100-as-printed"


def test_bench_rejects_model_shape_mismatch():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--shape", "U=2,b=1,n_s=16,n_t=3,n_p=0,d=16,h=2", "--model", "toy"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "shape,message",
    [
        ("U=1,b=1,n_s=700,n_t=1,n_p=0,d=64,h=4", "encoder block has shape (1, 700); max_len is 640"),
        ("U=1,b=1,n_s=8,n_t=700,n_p=0,d=64,h=4", "decoder needs 700 positions, max_len is 640"),
    ],
    ids=["encoder", "decoder"],
)
def test_bench_on_a_shape_longer_than_max_len_is_a_usage_error(capsys, shape, message):
    # the engines reject the lengths before any kernel runs
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--shape", shape, "--reps", "3", "--warmup", "0"])
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
