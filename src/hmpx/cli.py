"""Command-line driver: one pipeline for every command.

_run checks the flags that need no file, warns once on --workers,
resolves the budget, loads the model and calls the command's handler.
A handler only computes: given (args, model, budget, div) it returns the
document's fields, which follow the command/config/log_base head, the CSV
header and rows, and the exit code; _emit writes them as JSON or CSV.
Everything internal is in nats; an optional --log-base 2 divides the
emitted entropies and coefficients by div = ln 2 exactly once, in the
handler.  Every output document embeds the resolved run configuration.
JSON is strict, with no NaN or Infinity: _emit writes every non-finite
number as null in JSON and as an empty field in CSV, and table lists the
cells whose coefficient is non-finite under non_finite (a null
column_disagreement entry is the same overflow, and is not listed).
Exit codes: 0 success, 2 validation, 3 budget or a refused allocation,
4 settling or lemma failure, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from functools import lru_cache

from . import __version__
from .errors import BudgetExceeded, HmpxError, SettlingViolation
from .estimation import bounds_by_n, mc_entropy_rate
from .model import load_model
from .engine import block_entropies, warn_workers
from .series import (
    entropy_rate_series,
    evaluate_series,
    run_lemma_battery,
    settling_table,
)

LN2 = math.log(2)


@lru_cache(maxsize=None)
def _parser():
    # parse_args keeps no state in the parser, so one per process serves
    # every main() call
    parser = argparse.ArgumentParser(
        prog="hmpx",
        description="Entropy-rate noise expansion of a hidden Markov process "
                    "and numerical checks of the finite-system settling it rests on.",
    )
    parser.add_argument("--version", action="version", version=f"hmpx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, log_base=True):
        p.add_argument("--model", required=True, help="path to a model JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--budget", type=int, default=None,
                       help="max sequences to enumerate (default 2**24; "
                            "env HMPX_BUDGET overrides the default, the flag wins)")
        p.add_argument("--workers", type=int, default=1,
                       help="deprecated and ignored; removed after 2026-12-31")
        if log_base:
            p.add_argument("--log-base", choices=("e", "2"), default="e")

    p = sub.add_parser("expand", help="entropy-rate Taylor coefficients")
    common(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--settle-tol", type=float, default=1e-8)

    p = sub.add_parser("table", help="settling table of finite-system coefficients")
    common(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("entropy", help="block and conditional entropy at fixed noise")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("verify", help="randomized checks of the three identities")
    common(p, log_base=False)
    p.add_argument("--lemma", choices=("1", "2", "3", "all"), default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)

    p = sub.add_parser("mc", help="Monte Carlo entropy-rate estimate")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=30)
    p.add_argument("--order", type=int, default=None,
                   help="also expand to this order and compare")

    p = sub.add_parser("bounds", help="upper/lower entropy-rate bounds vs N")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)

    return parser


def _resolved_budget(args):
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get("HMPX_BUDGET")
        if not env:
            return None
        try:
            budget, source = int(env), "HMPX_BUDGET"
        except ValueError:
            raise ValueError(f"HMPX_BUDGET must be an integer, got {env!r}") from None
    if budget < 1:
        raise ValueError(f"{source} must be >= 1, got {budget}")
    return budget


def _config_dict(args, budget):
    cfg = {k.replace("_", "-"): v for k, v in sorted(vars(args).items())}
    cfg["resolved-budget"] = budget
    cfg["engine"] = f"hmpx {__version__}"
    return cfg


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _strict(value):
    # JSON has no NaN or Infinity: a non-finite number is written as null
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(args, doc, header, rows):
    doc, rows = _strict(doc), _strict(rows)
    if args.format == "json":
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        lines = ["# config: " + json.dumps(doc["config"], sort_keys=True)]
        if "non_finite" in doc:
            lines.append("# non-finite: " + json.dumps(doc["non_finite"]))
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_flags(args):
    # checks that name their flag, made before any file is read
    if getattr(args, "trials", 1) < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.command in ("bounds", "table") and args.n_max < 2:
        raise ValueError("need n_max >= 2")


def _cmd_expand(args, model, budget, div):
    result = entropy_rate_series(model, args.order, budget=budget,
                                 settle_tol=args.settle_tol)
    coeffs = [c / div for c in result.coefficients]
    residuals = [r / div for r in result.settle_residuals]
    fields = {
        "order": result.order,
        "coefficients": coeffs,
        "thresholds": list(result.thresholds),
        "settle_residuals": residuals,
        "epsilon_max": result.epsilon_max,
    }
    rows = list(zip(range(result.order + 1), coeffs, result.thresholds, residuals))
    return fields, ("k", "coefficient", "threshold_N", "settle_residual"), rows, 0


def _cmd_table(args, model, budget, div):
    table = settling_table(model, args.order, args.n_max, budget=budget)
    cells = [(n, k, c / div, settled) for n, k, c, settled in table.rows()]
    fields = {
        "order": table.order,
        "n_values": list(table.n_values),
        "thresholds": list(table.thresholds),
        "column_disagreement": [d / div for d in table.column_disagreement],
        "cells": [
            {"N": n, "k": k, "coefficient": c, "settled": settled}
            for n, k, c, settled in cells
        ],
    }
    non_finite = [{"N": n, "k": k} for n, k, c, _ in cells if not math.isfinite(c)]
    if non_finite:
        fields["non_finite"] = non_finite
    return fields, ("N", "k", "coefficient", "settled"), cells, 0


def _cmd_entropy(args, model, budget, div):
    h = block_entropies(model, args.n, args.epsilon, budget=budget)
    h_n = h[-1] / div
    c_n = (h[-1] - h[-2]) / div if args.n >= 2 else None
    fields = {
        "N": args.n,
        "epsilon": args.epsilon,
        "block_entropy": h_n,
        "conditional_entropy": c_n,
    }
    rows = [(args.n, args.epsilon, h_n, c_n)]
    return fields, ("N", "epsilon", "block_entropy", "conditional_entropy"), rows, 0


def _cmd_verify(args, model, budget, div):
    lemmas = (1, 2, 3) if args.lemma == "all" else (int(args.lemma),)
    reports = []
    for lemma in lemmas:
        reports.extend(run_lemma_battery(lemma, args.trials, seed=args.seed,
                                         tol=args.tolerance, model=model,
                                         budget=budget))
    failed = [r for r in reports if not r.passed]
    fields = {
        "trials_per_lemma": args.trials,
        "failures": len(failed),
        "max_residual": max(r.residual for r in reports),
        "reports": [
            {"lemma": r.lemma, "instance": r.instance, "residual": r.residual,
             "tolerance": r.tolerance, "passed": r.passed}
            for r in reports
        ],
    }
    header = ("lemma", "instance", "residual", "tolerance", "passed")
    rows = [(r.lemma, r.instance.replace(",", ";"), r.residual, r.tolerance, r.passed)
            for r in reports]
    return fields, header, rows, 4 if failed else 0


_ROUNDING_ULPS = 4


def _sigma_distance(estimate, value, standard_error):
    """|estimate - value| over the larger of the standard error and the two
    values' rounding, ``_ROUNDING_ULPS`` ulps of each.

    A path of symbols that each have probability exactly 1/s has a standard
    error of rounding alone (6e-17 nats on a fair coin), and values that
    agree to rounding must not read as several standard errors apart.  The
    floor is never zero, so the distance is always finite.
    """
    floor = _ROUNDING_ULPS * (math.ulp(estimate) + math.ulp(value))
    return abs(estimate - value) / max(standard_error, floor)


def _cmd_mc(args, model, budget, div):
    # Expand first, so a bad --order or budget fails before the costly MC run.
    series = (None if args.order is None else
              entropy_rate_series(model, args.order, budget=budget))
    est = mc_entropy_rate(model, args.epsilon, args.length, args.seed,
                          batches=args.batches)
    fields = {
        "estimate": est.estimate / div,
        "standard_error": est.standard_error / div,
        "batches": est.batches,
        "batch_size": est.batch_size,
        "generator": est.generator,
    }
    header = ["epsilon", "length", "seed", "estimate", "standard_error"]
    row = [args.epsilon, args.length, args.seed, fields["estimate"],
           fields["standard_error"]]
    if series is not None:
        value = evaluate_series(series, args.epsilon).value / div
        diff = abs(fields["estimate"] - value)
        fields["series_value"] = value
        fields["abs_difference"] = diff
        fields["sigma_distance"] = _sigma_distance(fields["estimate"], value,
                                                   fields["standard_error"])
        header += ["series_value", "abs_difference", "sigma_distance"]
        row += [value, diff, fields["sigma_distance"]]
    return fields, header, [row], 0


def _cmd_bounds(args, model, budget, div):
    rows = [(n, upper / div, lower / div) for n, upper, lower
            in bounds_by_n(model, args.epsilon, args.n_max, budget=budget)]
    fields = {
        "epsilon": args.epsilon,
        "bounds": [{"N": n, "upper": u, "lower": lo} for n, u, lo in rows],
    }
    return fields, ("N", "upper", "lower"), rows, 0


_HANDLERS = {
    "expand": _cmd_expand,
    "table": _cmd_table,
    "entropy": _cmd_entropy,
    "verify": _cmd_verify,
    "mc": _cmd_mc,
    "bounds": _cmd_bounds,
}


def _run(args):
    _check_flags(args)
    warn_workers(args.workers)
    budget = _resolved_budget(args)
    model = load_model(args.model)
    log_base = getattr(args, "log_base", "e")  # verify reports in nats
    fields, header, rows, code = _HANDLERS[args.command](
        args, model, budget, LN2 if log_base == "2" else 1.0)
    doc = {"command": args.command, "config": _config_dict(args, budget),
           "log_base": log_base, **fields}
    _emit(args, doc, header, rows)
    return code


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # the default filters hide a DeprecationWarning raised outside
            # __main__; show the --workers notice, and only that one
            warnings.filterwarnings("default", message="workers is deprecated",
                                    category=DeprecationWarning)
            return _run(args)
    except (BudgetExceeded, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SettlingViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (HmpxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
