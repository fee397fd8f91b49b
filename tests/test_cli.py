import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hmpx.cli
import hmpx.engine
from hmpx import (
    block_entropy,
    conditional_bounds,
    conditional_entropy,
    entropy_rate_series,
    load_model,
    settling_table,
)
from hmpx.cli import main

BS_DOC = {"transition": [[0.7, 0.3], [0.3, 0.7]], "noise": [[-1, 1], [1, -1]]}
# p = 1e-8: the order-19 coefficient of every row of the table overflows
P8_DOC = {**BS_DOC, "transition": [[1 - 1e-8, 1e-8], [1e-8, 1 - 1e-8]]}
T3_DOC = {"transition": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
          "noise": [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_json(text):
    return json.loads(text, parse_constant=_refuse_constant)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, strict_json(out)


def count_walks(monkeypatch):
    """Record the start of every exact forward walk (trellis pass or path)."""
    walks = []
    root = hmpx.engine._root

    def spy(start, space):
        walks.append(tuple(start))
        return root(start, space)

    monkeypatch.setattr(hmpx.engine, "_root", spy)
    return walks


class TestExpand:
    def test_order_zero_value(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["expand", "--model", path, "--order", "0"])
        assert rc == 0
        expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert doc["coefficients"][0] == pytest.approx(expected, abs=1e-12)

    def test_matches_library_exactly(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["expand", "--model", path, "--order", "5"])
        res = entropy_rate_series(load_model(path), 5)
        assert doc["coefficients"] == list(res.coefficients)
        assert doc["thresholds"] == list(res.thresholds)

    def test_json_round_trip_bit_exact(self, capsys, model_file, tmp_path):
        path = model_file(BS_DOC)
        out = tmp_path / "series.json"
        rc = main(["expand", "--model", path, "--order", "7", "--out", str(out)])
        assert rc == 0
        doc = strict_json(out.read_text(encoding="utf-8"))
        rewritten = strict_json(json.dumps(doc))
        assert rewritten["coefficients"] == doc["coefficients"]
        assert rewritten == doc

    def test_log_base_2_is_exact_division(self, capsys, model_file):
        path = model_file(BS_DOC)
        _, nat = run_json(capsys, ["expand", "--model", path, "--order", "4"])
        _, base2 = run_json(capsys, ["expand", "--model", path, "--order", "4",
                                     "--log-base", "2"])
        ln2 = math.log(2)
        assert base2["coefficients"] == [c / ln2 for c in nat["coefficients"]]
        assert base2["settle_residuals"] == [r / ln2 for r in nat["settle_residuals"]]

    def test_order_eleven_settles(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["expand", "--model", path, "--order", "11"])
        assert rc == 0
        assert len(doc["coefficients"]) == 12
        for c, r in zip(doc["coefficients"], doc["settle_residuals"]):
            assert r <= 1e-8 * max(1.0, abs(c))

    def test_config_embedded(self, capsys, model_file):
        path = model_file(BS_DOC)
        _, doc = run_json(capsys, ["expand", "--model", path, "--order", "1"])
        assert doc["config"]["order"] == 1
        assert doc["config"]["model"] == path
        assert doc["config"]["engine"].startswith("hmpx ")

    def test_settling_violation_exit_code(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc = main(["expand", "--model", path, "--order", "3",
                   "--settle-tol", "0"])
        assert rc == 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_settle_tol_is_validation_error(self, capsys, model_file, tol):
        path = model_file(BS_DOC)
        assert main(["expand", "--model", path, "--order", "3",
                     "--settle-tol", tol]) == 2
        assert "settle_tol" in capsys.readouterr().err


class TestTable:
    def test_csv_schema(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc = main(["table", "--model", path, "--order", "2", "--n-max", "4",
                   "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        assert lines[1] == "N,k,coefficient,settled"
        body = lines[2:]
        assert len(body) == 3 * 3  # N in 2..4, k in 0..2
        first = body[0].split(",")
        assert first[0] == "2" and first[1] == "0"
        assert first[3] in ("true", "false")

    def test_csv_floats_round_trip(self, capsys, model_file):
        path = model_file(BS_DOC)
        main(["table", "--model", path, "--order", "3", "--n-max", "5",
              "--format", "csv"])
        out = capsys.readouterr().out
        _, json_doc = run_json(capsys, ["table", "--model", path, "--order", "3",
                                        "--n-max", "5"])
        csv_cells = {}
        for line in out.strip().split("\n")[2:]:
            n, k, coeff, settled = line.split(",")
            csv_cells[(int(n), int(k))] = float(coeff)
        for cell in json_doc["cells"]:
            assert csv_cells[(cell["N"], cell["k"])] == cell["coefficient"]


class TestEntropyCommand:
    def test_values(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["entropy", "--model", path, "--n", "3",
                                    "--epsilon", "0.05"])
        assert rc == 0
        assert doc["block_entropy"] == pytest.approx(1.9721701863929146, abs=1e-12)
        assert doc["conditional_entropy"] == pytest.approx(0.6393230375543921,
                                                           abs=1e-12)

    def test_n1_has_no_conditional(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["entropy", "--model", path, "--n", "1",
                                    "--epsilon", "0.1"])
        assert rc == 0
        assert doc["conditional_entropy"] is None

    def test_epsilon_out_of_range_is_validation_error(self, capsys, model_file):
        path = model_file(BS_DOC)
        assert main(["entropy", "--model", path, "--n", "2",
                     "--epsilon", "1.5"]) == 2

    @pytest.mark.parametrize("doc", [BS_DOC, T3_DOC])
    def test_bit_identical_to_library_from_one_pass(self, capsys, model_file,
                                                    monkeypatch, doc):
        path = model_file(doc)
        walks = count_walks(monkeypatch)
        rc, out = run_json(capsys, ["entropy", "--model", path, "--n", "6",
                                    "--epsilon", "0.05"])
        assert rc == 0 and len(walks) == 1
        model = load_model(path)
        assert out["block_entropy"] == block_entropy(model, 6, 0.05)
        assert out["conditional_entropy"] == conditional_entropy(model, 6, 0.05)


class TestVerifyCommand:
    def test_passes(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["verify", "--model", path, "--trials", "3",
                                    "--seed", "1"])
        assert rc == 0
        assert doc["failures"] == 0
        assert len(doc["reports"]) == 9

    def test_single_lemma(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["verify", "--model", path, "--lemma", "2",
                                    "--trials", "4"])
        assert rc == 0
        assert {r["lemma"] for r in doc["reports"]} == {2}

    def test_zero_tolerance_fails_with_exit_4(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["verify", "--model", path, "--trials", "2",
                                    "--tolerance", "0"])
        assert rc == 4
        assert doc["failures"] > 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_validation_error(self, capsys, model_file, tol):
        path = model_file(BS_DOC)
        assert main(["verify", "--model", path, "--trials", "2",
                     "--tolerance", tol]) == 2
        assert "tol" in capsys.readouterr().err

    def test_one_parser_keeps_no_state_between_calls(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, first = run_json(capsys, ["verify", "--model", path, "--lemma", "2",
                                      "--trials", "1", "--budget", "100"])
        rc2, second = run_json(capsys, ["verify", "--model", path, "--trials", "1"])
        assert rc == rc2 == 0
        assert {r["lemma"] for r in first["reports"]} == {2}
        assert {r["lemma"] for r in second["reports"]} == {1, 2, 3}
        assert second["config"]["budget"] is None
        assert hmpx.cli._parser() is hmpx.cli._parser()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_validation_error(self, capsys, model_file, trials):
        path = model_file(BS_DOC)
        assert main(["verify", "--model", path, "--trials", trials]) == 2
        assert "--trials" in capsys.readouterr().err


class TestMcCommand:
    def test_with_series_comparison(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["mc", "--model", path, "--epsilon", "0.05",
                                    "--length", "20000", "--seed", "7",
                                    "--order", "5"])
        assert rc == 0
        assert doc["sigma_distance"] <= 4
        assert doc["batches"] == 30
        assert "PCG64" in doc["generator"]

    def test_rounding_is_not_a_sigma_distance(self, capsys, model_file):
        # every symbol has probability exactly 1/2, so the standard error is
        # rounding alone and both values are ln 2 to an ulp
        path = model_file({"transition": [[0.5, 0.5], [0.5, 0.5]],
                           "noise": [[0, 0], [0, 0]]})
        rc, doc = run_json(capsys, ["mc", "--model", path, "--epsilon", "0.1",
                                    "--length", "12000", "--order", "3"])
        assert rc == 0
        assert doc["standard_error"] < 1e-15
        assert doc["estimate"] == pytest.approx(math.log(2), rel=1e-15)
        assert doc["series_value"] == pytest.approx(math.log(2), rel=1e-15)
        assert doc["sigma_distance"] <= 1

    @pytest.mark.parametrize("order, budget, code", [("-1", [], 2),
                                                     ("11", ["--budget", "64"], 3)])
    def test_bad_order_fails_before_sampling(self, capsys, model_file, monkeypatch,
                                             order, budget, code):
        def never(*args, **kwargs):
            raise AssertionError("mc_entropy_rate must not run")

        monkeypatch.setattr("hmpx.cli.mc_entropy_rate", never)
        path = model_file(BS_DOC)
        assert main(["mc", "--model", path, "--epsilon", "0.05", "--length",
                     "1000000", "--order", order] + budget) == code

    def test_more_batches_than_length_is_validation_error(self, capsys, model_file):
        path = model_file(BS_DOC)
        assert main(["mc", "--model", path, "--epsilon", "0.05", "--length",
                     "10000", "--batches", "20000"]) == 2
        assert "batches <= length" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "1", "--seed", "-1"],
    ["mc", "--epsilon", "0.05", "--length", "1000", "--seed", "-2"],
])
def test_negative_seed_is_validation_error_naming_the_flag(capsys, model_file, argv):
    path = model_file(BS_DOC)
    assert main(argv[:1] + ["--model", path] + argv[1:]) == 2
    assert "--seed" in capsys.readouterr().err


class TestBoundsCommand:
    def test_rows(self, capsys, model_file):
        path = model_file(BS_DOC)
        rc, doc = run_json(capsys, ["bounds", "--model", path, "--epsilon", "0.05",
                                    "--n-max", "4"])
        assert rc == 0
        assert [row["N"] for row in doc["bounds"]] == [2, 3, 4]
        for row in doc["bounds"]:
            assert row["lower"] <= row["upper"]

    def test_n_max_below_two_is_validation_error(self, capsys, model_file):
        path = model_file(BS_DOC)
        assert main(["bounds", "--model", path, "--epsilon", "0.05",
                     "--n-max", "1"]) == 2
        assert "n_max >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, n_max", [(BS_DOC, 14), (T3_DOC, 8)])
    def test_two_stationary_passes_bit_identical_to_library(self, capsys, model_file,
                                                            monkeypatch, doc, n_max):
        path = model_file(doc)
        walks = count_walks(monkeypatch)
        rc, out = run_json(capsys, ["bounds", "--model", path, "--epsilon", "0.05",
                                    "--n-max", str(n_max)])
        assert rc == 0
        model = load_model(path)
        # one pass per column, whatever s: noisy, then noiseless-first-site
        stationary = tuple(hmpx.engine._symmetric_start(model, None)[0])
        assert walks == [stationary, stationary]
        assert [row["N"] for row in out["bounds"]] == list(range(2, n_max + 1))
        for row in out["bounds"]:
            upper, lower = conditional_bounds(model, 0.05, row["N"])
            assert (row["upper"], row["lower"]) == (upper, lower)

    def test_budget_is_checked_before_any_pass(self, capsys, model_file,
                                               monkeypatch):
        path = model_file(BS_DOC)
        walks = count_walks(monkeypatch)
        rc = main(["bounds", "--model", path, "--epsilon", "0.05", "--n-max", "12",
                   "--budget", "1000"])
        assert rc == 3
        assert "2**12" in capsys.readouterr().err
        assert walks == []


@pytest.mark.parametrize("argv", [["table", "--order", "3", "--n-max", "1"],
                                  ["bounds", "--epsilon", "0.05", "--n-max", "1"]])
def test_n_max_is_checked_before_the_model_is_read(capsys, tmp_path, argv):
    # exit 2 naming n_max, not exit 5 for the missing file
    missing = str(tmp_path / "missing.json")
    assert main([argv[0], "--model", missing, *argv[1:]]) == 2
    assert "n_max >= 2" in capsys.readouterr().err


class TestNonFinite:
    """No NaN or Infinity on the wire and no numpy warning on stderr."""

    TABLE = ["table", "--order", "19", "--n-max", "12"]

    def test_table_writes_null_where_a_coefficient_is_not_finite(self, capsys,
                                                                 model_file):
        path = model_file(P8_DOC)
        rc, doc = run_json(capsys, [self.TABLE[0], "--model", path, *self.TABLE[1:]])
        assert rc == 0
        table = settling_table(load_model(path), 19, 12)
        bad = ~np.isfinite(table.coefficients)
        assert bad.any() and not bad.all()
        assert [c["coefficient"] is None for c in doc["cells"]] == bad.ravel().tolist()
        assert doc["non_finite"] == [{"N": table.n_values[i], "k": int(k)}
                                     for i, k in zip(*np.nonzero(bad))]
        assert [d is None for d in doc["column_disagreement"]] == [
            not math.isfinite(d) for d in table.column_disagreement]

    def test_csv_names_the_non_finite_cells(self, capsys, model_file):
        path = model_file(P8_DOC)
        _, doc = run_json(capsys, [self.TABLE[0], "--model", path, *self.TABLE[1:]])
        assert main([self.TABLE[0], "--model", path, *self.TABLE[1:],
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "# non-finite: " + json.dumps(doc["non_finite"])
        assert lines[2] == "N,k,coefficient,settled"
        empty = [line.split(",")[2] == "" for line in lines[3:]]
        assert empty == [c["coefficient"] is None for c in doc["cells"]]

    def test_zero_noise_writes_epsilon_max_as_null(self, capsys, model_file):
        # T = 0 admits every eps, so epsilon_max is inf
        doc = {"transition": [[0.7, 0.3], [0.3, 0.7]], "noise": [[0, 0], [0, 0]]}
        path = model_file(doc)
        assert load_model(path).epsilon_max == math.inf
        rc, out = run_json(capsys, ["expand", "--model", path, "--order", "3"])
        assert rc == 0
        assert out["epsilon_max"] is None
        res = entropy_rate_series(load_model(path), 3)
        assert out["coefficients"] == list(res.coefficients)
        assert main(["expand", "--model", path, "--order", "3",
                     "--format", "csv"]) == 0
        assert "inf" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["table", "--order", "19", "--n-max", "12"], 0),
        (["expand", "--order", "19"], 4),
        (["mc", "--epsilon", "1e-9", "--length", "10000", "--order", "19"], 4),
        (["verify", "--trials", "3"], 4),
        (["bounds", "--epsilon", "0.001", "--n-max", "8"], 0),
        (["entropy", "--n", "8", "--epsilon", "0.001"], 0),
    ], ids=["table", "expand", "mc", "verify", "bounds", "entropy"])
    def test_no_runtime_warning(self, capsys, model_file, argv, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([argv[0], "--model", model_file(P8_DOC), *argv[1:]])
        captured = capsys.readouterr()
        assert rc == code
        assert "RuntimeWarning" not in captured.err
        if code == 0:
            strict_json(captured.out)


class TestExitCodes:
    def test_budget_exceeded(self, capsys, model_file):
        path = model_file(T3_DOC)
        rc = main(["expand", "--model", path, "--order", "30"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "N = 18" in err and "3**18" in err

    @pytest.mark.parametrize("argv", [
        ["entropy", "--n", "1000000", "--epsilon", "0.05"],
        ["table", "--order", "3", "--n-max", "1000000"],
        ["bounds", "--epsilon", "0.05", "--n-max", "1000000"],
    ], ids=["entropy", "table", "bounds"])
    def test_budget_exceeded_at_any_depth(self, capsys, model_file, argv):
        rc = main([argv[0], "--model", model_file(BS_DOC), *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 3
        assert "2**1000000 sequences, over the budget of 16777216" in err

    def test_refused_allocation_is_exit_3(self, capsys, model_file):
        # 10**18 uint8 symbols is 888 PiB, beyond any 64-bit address space
        rc = main(["mc", "--model", model_file(BS_DOC), "--epsilon", "0.05",
                   "--length", str(10 ** 18)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["expand", "--order", "19"],
                                      ["mc", "--epsilon", "1e-9", "--length", "10000",
                                       "--order", "19"]], ids=["expand", "mc"])
    def test_non_finite_expansion_is_exit_4(self, capsys, model_file, argv):
        p = 1e-8
        path = model_file({**BS_DOC, "transition": [[1 - p, p], [p, 1 - p]]})
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([argv[0], "--model", path, *argv[1:]])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert "disagree by nan" in captured.err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        rc = main(["expand", "--model", str(tmp_path / "nope.json"), "--order", "1"])
        assert rc == 5

    def test_unknown_key_is_validation_error(self, capsys, model_file):
        path = model_file({**BS_DOC, "extra": 1})
        assert main(["expand", "--model", path, "--order", "1"]) == 2

    def test_invalid_matrix_is_validation_error(self, capsys, model_file):
        doc = {"transition": [[0.9, 0.2], [0.3, 0.7]], "noise": [[-1, 1], [1, -1]]}
        path = model_file(doc)
        assert main(["expand", "--model", path, "--order", "1"]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({**BS_DOC, "transition": [[0.9, 0.2], [0.3, 0.7]]},
         "error: transition row 0 sums to 1.1, expected 1\n"),
        ({**BS_DOC, "transition": [[1.0, 0.0], [0.3, 0.7]]},
         "error: transition entry (0,1) = 0.0 must be > 0\n"),
    ])
    def test_invalid_matrix_message_prints_plain_floats(self, capsys, model_file,
                                                        doc, message):
        assert main(["expand", "--model", model_file(doc), "--order", "1"]) == 2
        assert capsys.readouterr().err == message

    def test_budget_env_override(self, capsys, model_file, monkeypatch):
        path = model_file(BS_DOC)
        monkeypatch.setenv("HMPX_BUDGET", "4")
        assert main(["expand", "--model", path, "--order", "1"]) == 3
        # explicit flag wins over the environment
        capsys.readouterr()
        assert main(["expand", "--model", path, "--order", "1",
                     "--budget", "1000"]) == 0

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_validation_error(self, capsys, model_file, budget):
        path = model_file(BS_DOC)
        assert main(["expand", "--model", path, "--order", "1",
                     "--budget", budget]) == 2
        assert "--budget must be >= 1" in capsys.readouterr().err

    def test_non_integer_budget_env_names_the_variable(self, capsys, model_file,
                                                       monkeypatch):
        path = model_file(BS_DOC)
        monkeypatch.setenv("HMPX_BUDGET", "abc")
        assert main(["expand", "--model", path, "--order", "1"]) == 2
        assert "HMPX_BUDGET" in capsys.readouterr().err


class TestOutputFile:
    def test_out_file_lf_only(self, model_file, tmp_path):
        path = model_file(BS_DOC)
        out = tmp_path / "t.csv"
        rc = main(["table", "--model", path, "--order", "1", "--n-max", "3",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").startswith("# config:")

    def test_workers_flag(self, capsys, model_file):
        path = model_file(BS_DOC)
        with pytest.warns(DeprecationWarning, match="workers is deprecated"):
            rc, doc = run_json(capsys, ["expand", "--model", path, "--order", "2",
                                        "--workers", "2"])
        _, doc1 = run_json(capsys, ["expand", "--model", path, "--order", "2"])
        assert rc == 0
        for a, b in zip(doc["coefficients"], doc1["coefficients"]):
            assert a == pytest.approx(b, abs=1e-12)


def test_huge_order_is_refused_at_once(model_file):
    # the order is refused before a coefficient of it is allocated or counted
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-m", "hmpx.cli", "expand", "--model",
                          model_file(BS_DOC), "--order", "1000000"],
                         env=env, capture_output=True, text=True, timeout=30)
    assert run.returncode == 2
    assert "1000001 members, over the limit of 4096" in run.stderr


def test_workers_notice_shows_on_stderr_by_default(model_file):
    # a fresh interpreter with Python's default warning filters: no -W flag,
    # no PYTHONWARNINGS
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["expand", "--model", model_file(BS_DOC), "--order", "2"]
    stderr = []
    for extra in (["--workers", "2"], []):
        code = f"import sys; from hmpx.cli import main; sys.exit(main({argv + extra!r}))"
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        stderr.append(run.stderr)
    assert "workers is deprecated" in stderr[0]
    assert stderr[1] == ""


# argv after the command's --model, JSON keys in order, CSV header row
PIPELINE = {
    "expand": (["--order", "2"],
               ["order", "coefficients", "thresholds", "settle_residuals",
                "epsilon_max"],
               "k,coefficient,threshold_N,settle_residual"),
    "table": (["--order", "2", "--n-max", "3"],
              ["order", "n_values", "thresholds", "column_disagreement", "cells"],
              "N,k,coefficient,settled"),
    "entropy": (["--n", "3", "--epsilon", "0.05"],
                ["N", "epsilon", "block_entropy", "conditional_entropy"],
                "N,epsilon,block_entropy,conditional_entropy"),
    "verify": (["--trials", "1"],
               ["trials_per_lemma", "failures", "max_residual", "reports"],
               "lemma,instance,residual,tolerance,passed"),
    "mc": (["--epsilon", "0.05", "--length", "10000"],
           ["estimate", "standard_error", "batches", "batch_size", "generator"],
           "epsilon,length,seed,estimate,standard_error"),
    "mc-order": (["--epsilon", "0.05", "--length", "10000", "--order", "3"],
                 ["estimate", "standard_error", "batches", "batch_size", "generator",
                  "series_value", "abs_difference", "sigma_distance"],
                 "epsilon,length,seed,estimate,standard_error,"
                 "series_value,abs_difference,sigma_distance"),
    "bounds": (["--epsilon", "0.05", "--n-max", "3"],
               ["epsilon", "bounds"],
               "N,upper,lower"),
}


class TestPipeline:
    """Every command runs through one pipeline: same head, its own fields."""

    @staticmethod
    def _argv(name, path, *extra):
        tail = PIPELINE[name][0]
        return [name.split("-")[0], "--model", path] + tail + list(extra)

    @pytest.mark.parametrize("name", PIPELINE)
    def test_json_keys_in_order(self, capsys, model_file, name):
        rc, doc = run_json(capsys, self._argv(name, model_file(BS_DOC)))
        assert rc == 0
        assert list(doc) == ["command", "config", "log_base"] + PIPELINE[name][1]
        assert doc["command"] == name.split("-")[0]
        assert doc["log_base"] == "e"

    @pytest.mark.parametrize("name", PIPELINE)
    def test_csv_header(self, capsys, model_file, name):
        rc = main(self._argv(name, model_file(BS_DOC), "--format", "csv"))
        lines = capsys.readouterr().out.split("\n")
        assert rc == 0
        assert lines[0].startswith("# config: ")
        assert lines[1] == PIPELINE[name][2]

    @pytest.mark.parametrize("name", PIPELINE)
    def test_workers_warns_exactly_once(self, capsys, model_file, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(self._argv(name, model_file(BS_DOC), "--workers", "2"))
        assert rc == 0
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "workers is deprecated" in str(deprecations[0].message)
