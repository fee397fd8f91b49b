"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def ctx():
    context = workloads.Context("expand", seed=1)
    yield context
    context.cleanup()


def _fail_count(ctx, references):
    out = workloads.Outcome()
    out.op("bs K=11", ctx.expand_op, out, "bs", 11, references)
    return out


def test_reference_match_passes(ctx):
    out = _fail_count(ctx, ctx.references)
    assert (out.attempted, out.failed) == (1, 0), out.errors
    assert out.err_tol_frac <= 1.0


def test_perturbed_reference_counts_as_failed_op(ctx):
    perturbed = copy.deepcopy(ctx.references)
    perturbed["bs_K11"][5] *= 1 + 1e-6  # 100x the settle tolerance
    out = _fail_count(ctx, perturbed)
    assert (out.attempted, out.failed) == (1, 1)
    assert "c_5" in out.errors[0]
    fake_run = {"passes": {"wall": [1.0], "cpu": [1.0]}, "peak_rss_mb": 1.0,
                "attempted": out.attempted, "failed": out.failed}
    line = run.result_line(fake_run, run.end_to_end_metrics([0.1], fake_run),
                           run.END_TO_END)
    assert line["correct"] is False
    assert line["metrics"]["ok_ratio"]["value"] == 0.0


def test_tracer_self_time_and_restore(ctx):
    hmpx = ctx.hmpx
    original = hmpx.block_entropy
    model = ctx.models["bs"]
    with Tracer() as tracer:
        assert hmpx.block_entropy is not original
        hmpx.block_entropy(model, 4, hmpx.UniJet.variable(5))
    assert hmpx.block_entropy is original
    assert hmpx.UniJet.__mul__.__name__ == "__mul__"
    (span,) = tracer.spans
    jets = sum(took for _, took in span.jets.values())
    assert span.jets["jets.uni.log"][0] == 2 ** 4
    assert span.self_time == pytest.approx(span.duration - jets)
    assert 0.0 < span.self_time < span.duration


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify", "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {name: unit for name, (unit, _) in table.items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    assert printed == {m["name"]: m["unit"] for m in declared[key]}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "expand",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
