"""The benchmark's own checks: its gate can fail, and it reports what it declares.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness

BENCH = Path(harness.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def shared_input():
    bench = harness.make_bench("shared-input", seed=7)
    bench.build_gate()
    return bench


@pytest.fixture(scope="module")
def train_step():
    bench = harness.make_bench("train-step", seed=7)
    bench.build_gate()
    return bench


def one_pair(bench, trace=False):
    """Exactly one pie op and one pid op, both on request 0."""
    return harness.measure(bench, seconds=1e-9, trace=trace)


def test_gate_passes_the_program_as_it_is(shared_input, train_step):
    for bench in (shared_input, train_step):
        m = one_pair(bench)
        assert (m.attempted, m.failed) == (2, 0)
        assert all(len(m.relative[eng]) == len(m.op_s[eng]) == 1 for eng in harness.ENGINES)


def test_perturbed_token_list_is_a_failed_op(shared_input, monkeypatch):
    expected = [[list(seq) for seq in inst] for inst in shared_input.expected_tokens["pie", 0]]
    expected[0][0][-1] += 1
    monkeypatch.setitem(shared_input.expected_tokens, ("pie", 0), expected)
    m = one_pair(shared_input)
    assert (m.attempted, m.failed) == (2, 1)


def test_off_by_one_flop_count_is_a_failed_op(shared_input, monkeypatch):
    monkeypatch.setitem(shared_input.expected_flops, ("pid", 0), shared_input.expected_flops["pid", 0] + 1)
    m = one_pair(shared_input)
    assert (m.attempted, m.failed) == (2, 1)


def test_changed_training_loss_is_a_failed_op(train_step, monkeypatch):
    loss = train_step.expected_loss["pid", 0]
    monkeypatch.setitem(train_step.expected_loss, ("pid", 0), float(np.nextafter(loss, np.inf)))
    m = one_pair(train_step)
    assert (m.attempted, m.failed) == (2, 1)


def test_declared_metrics_match_the_code():
    assert [(e["name"], e["unit"], e["better"]) for e in SPEC["end_to_end"]] == harness.END_TO_END
    assert [(e["name"], e["unit"], e["better"]) for e in SPEC["per_layer"]] == harness.per_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(shared_input, train_step):
    names = {name for name, _, _ in harness.per_layer_metrics()}
    for bench in (shared_input, train_step):
        m = one_pair(bench, trace=True)
        assert m.failed == 0
        assert set(harness.per_layer(m)) == names


def test_traced_counts_are_the_programs_own(shared_input):
    m = one_pair(shared_input, trace=True)
    pie = m.layers["pie"][0]
    s = shared_input.shape
    assert pie["engines.pie.encoder_passes"] == s.U * s.b
    assert pie["engines.pie.stream_steps"] == s.U * s.b * s.n_t
    assert pie["model.pie.decoder_step.calls"] == s.n_t - 1
    flops = sum(pie[f"model.pie.{c}.flops"] for c in harness.COMPONENTS)
    assert flops == shared_input.expected_flops["pie", 0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "shared-input", "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
