import json
import math

import pytest

import hmpx.engine
from hmpx import (
    block_entropy,
    conditional_bounds,
    conditional_entropy,
    entropy_rate_series,
    load_model,
)
from hmpx.cli import main

BS_DOC = {"transition": [[0.7, 0.3], [0.3, 0.7]], "noise": [[-1, 1], [1, -1]]}
T3_DOC = {"transition": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
          "noise": [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]}


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


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
        doc = json.loads(out.read_text(encoding="utf-8"))
        rewritten = json.loads(json.dumps(doc))
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
    def test_one_pass_per_start_bit_identical_to_library(self, capsys, model_file,
                                                         monkeypatch, doc, n_max):
        path = model_file(doc)
        walks = count_walks(monkeypatch)
        rc, out = run_json(capsys, ["bounds", "--model", path, "--epsilon", "0.05",
                                    "--n-max", str(n_max)])
        assert rc == 0
        model = load_model(path)
        assert len(walks) == model.size + 1  # stationary start + a point mass each
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


class TestExitCodes:
    def test_budget_exceeded(self, capsys, model_file):
        path = model_file(T3_DOC)
        rc = main(["expand", "--model", path, "--order", "30"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "N = 18" in err and "3**18" in err

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
