"""Command-line driver: model loading, the computations, CSV/JSON output.

Everything internal is in nats; an optional --log-base 2 divides the
emitted entropies and coefficients by ln 2 exactly once, at
serialization.  Every output document embeds the resolved run
configuration.  Exit codes: 0 success, 2 validation, 3 budget,
4 settling or lemma failure, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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


def build_parser():
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
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(args, doc, header, rows):
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = ["# config: " + json.dumps(doc["config"], sort_keys=True)]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _log_div(args):
    return LN2 if getattr(args, "log_base", "e") == "2" else 1.0


def _check_seed(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def _cmd_expand(args):
    budget = _resolved_budget(args)
    model = load_model(args.model)
    result = entropy_rate_series(model, args.order, budget=budget,
                                 workers=args.workers, settle_tol=args.settle_tol)
    div = _log_div(args)
    coeffs = [c / div for c in result.coefficients]
    residuals = [r / div for r in result.settle_residuals]
    doc = {
        "command": "expand",
        "config": _config_dict(args, budget),
        "log_base": args.log_base,
        "order": result.order,
        "coefficients": coeffs,
        "thresholds": list(result.thresholds),
        "settle_residuals": residuals,
        "epsilon_max": result.epsilon_max,
    }
    header = ("k", "coefficient", "threshold_N", "settle_residual")
    rows = [(k, coeffs[k], result.thresholds[k], residuals[k])
            for k in range(result.order + 1)]
    _emit(args, doc, header, rows)
    return 0


def _cmd_table(args):
    budget = _resolved_budget(args)
    model = load_model(args.model)
    table = settling_table(model, args.order, args.n_max, budget=budget,
                           workers=args.workers)
    div = _log_div(args)
    cells = [(n, k, c / div, settled) for n, k, c, settled in table.rows()]
    doc = {
        "command": "table",
        "config": _config_dict(args, budget),
        "log_base": args.log_base,
        "order": table.order,
        "n_values": list(table.n_values),
        "thresholds": list(table.thresholds),
        "column_disagreement": [d / div for d in table.column_disagreement],
        "cells": [
            {"N": n, "k": k, "coefficient": c, "settled": settled}
            for n, k, c, settled in cells
        ],
    }
    _emit(args, doc, ("N", "k", "coefficient", "settled"), cells)
    return 0


def _cmd_entropy(args):
    budget = _resolved_budget(args)
    model = load_model(args.model)
    warn_workers(args.workers)
    h = block_entropies(model, args.n, args.epsilon, budget=budget)
    h_n = h[-1]
    c_n = h[-1] - h[-2] if args.n >= 2 else None
    div = _log_div(args)
    doc = {
        "command": "entropy",
        "config": _config_dict(args, budget),
        "log_base": args.log_base,
        "N": args.n,
        "epsilon": args.epsilon,
        "block_entropy": h_n / div,
        "conditional_entropy": None if c_n is None else c_n / div,
    }
    header = ("N", "epsilon", "block_entropy", "conditional_entropy")
    rows = [(args.n, args.epsilon, doc["block_entropy"],
             "" if c_n is None else doc["conditional_entropy"])]
    _emit(args, doc, header, rows)
    return 0


def _cmd_verify(args):
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    _check_seed(args)
    budget = _resolved_budget(args)
    model = load_model(args.model)
    lemmas = (1, 2, 3) if args.lemma == "all" else (int(args.lemma),)
    reports = []
    for lemma in lemmas:
        reports.extend(run_lemma_battery(lemma, args.trials, seed=args.seed,
                                         tol=args.tolerance, model=model,
                                         budget=budget))
    failed = [r for r in reports if not r.passed]
    doc = {
        "command": "verify",
        "config": _config_dict(args, budget),
        "log_base": "e",
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
    _emit(args, doc, header, rows)
    return 4 if failed else 0


def _cmd_mc(args):
    _check_seed(args)
    budget = _resolved_budget(args)
    model = load_model(args.model)
    # Expand first, so a bad --order or budget fails before the costly MC run.
    series = (None if args.order is None else
              entropy_rate_series(model, args.order, budget=budget,
                                  workers=args.workers))
    est = mc_entropy_rate(model, args.epsilon, args.length, args.seed,
                          batches=args.batches)
    div = _log_div(args)
    doc = {
        "command": "mc",
        "config": _config_dict(args, budget),
        "log_base": args.log_base,
        "estimate": est.estimate / div,
        "standard_error": est.standard_error / div,
        "batches": est.batches,
        "batch_size": est.batch_size,
        "generator": est.generator,
    }
    header = ["epsilon", "length", "seed", "estimate", "standard_error"]
    row = [args.epsilon, args.length, args.seed, doc["estimate"],
           doc["standard_error"]]
    if series is not None:
        value = evaluate_series(series, args.epsilon).value / div
        diff = abs(doc["estimate"] - value)
        doc["series_value"] = value
        doc["abs_difference"] = diff
        doc["sigma_distance"] = (diff / doc["standard_error"]
                                 if doc["standard_error"] > 0 else math.inf)
        header += ["series_value", "abs_difference", "sigma_distance"]
        row += [value, diff, doc["sigma_distance"]]
    _emit(args, doc, tuple(header), [tuple(row)])
    return 0


def _cmd_bounds(args):
    if args.n_max < 2:
        raise ValueError("need n_max >= 2")
    budget = _resolved_budget(args)
    model = load_model(args.model)
    div = _log_div(args)
    warn_workers(args.workers)
    rows = [(n, upper / div, lower / div) for n, upper, lower
            in bounds_by_n(model, args.epsilon, args.n_max, budget=budget)]
    doc = {
        "command": "bounds",
        "config": _config_dict(args, budget),
        "log_base": args.log_base,
        "epsilon": args.epsilon,
        "bounds": [{"N": n, "upper": u, "lower": lo} for n, u, lo in rows],
    }
    _emit(args, doc, ("N", "upper", "lower"), rows)
    return 0


_HANDLERS = {
    "expand": _cmd_expand,
    "table": _cmd_table,
    "entropy": _cmd_entropy,
    "verify": _cmd_verify,
    "mc": _cmd_mc,
    "bounds": _cmd_bounds,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceeded as exc:
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
