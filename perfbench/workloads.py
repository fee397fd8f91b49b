"""Benchmark worker: set up one workload, run it in a closed loop, check every output.

Started by ``run.py``, once per set-up sample and once for the measured
run; prints one JSON object on its last line.  One caller, closed loop:
a pass (the workload's fixed set of ops) starts when the previous one
returns.  Passes repeat until the next one would end after ``--seconds``,
and always at least once.

An op is one expansion, one lemma instance or one CLI command.  It fails
if it raises, returns a non-zero exit code or fails its output check;
failures are counted, never fatal, so a fast but wrong program shows up
as failed ops rather than as a gain.

With ``--trace 1`` the first half of the time runs untraced and the second
half under ``tracer.Tracer``; per-layer numbers come from the traced half
and ``trace.overhead_frac`` compares the two halves' median pass times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("expand", "expand-par", "verify", "crosscheck")

BS_P = 0.3
EXPAND_ORDERS = (("bs", 11), ("bs", 19), ("t3", 11))
PAR_WORKERS = 2
SETTLE_TOL = 1e-8           # entropy_rate_series default
C0_TOL = 1e-12              # c_0 against the closed-form Markov entropy rate
# Lemma instances per pass.  Instance shapes (N, kvec, j, r) come from the
# fixed battery seeds 0..trials-1 and the alphabet size alternates 2, 3, so
# every benchmark seed does the same work; the seed draws the models.
LEMMA_TRIALS = {1: 30, 2: 10, 3: 10}
LEMMA_N_MAX = 6
LEMMA_WEIGHT_MAX = 6
MC_EPS = 0.05
MC_LENGTH = 1_000_000
MC_ORDER = 11
MC_SIGMA_MAX = 4.0
BOUNDS_N_MAX = 14
SANDWICH_SLACK = 1e-6
# Rounding slack for bound monotonicity; the seed code's lower bound drops
# by 9e-16 between N=11 and N=12.
MONOTONE_SLACK = 1e-12


class Outcome:
    """Op accounting plus the output-derived values the metrics report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []           # first few failure messages
        self.err_tol_frac = 0.0    # max |output - reference| / tolerance
        self.lemma_ratio_max = 0.0
        self.mc_se = []
        self.mc_sigma = []

    def tolerance(self, value, reference, tol):
        frac = abs(value - reference) / tol
        self.err_tol_frac = max(self.err_tol_frac, frac)
        return frac <= 1.0

    def op(self, name, fn, *args):
        """Run one op; fn returns None when its output checks pass, else a reason."""
        self.attempted += 1
        try:
            reason = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, and the loop goes on
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {reason}")


class Context:
    """Everything set-up produces: the package, models, paths and references."""

    def __init__(self, workload, seed):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy as np
        import hmpx
        import hmpx.cli

        src = (ROOT / "src").resolve()
        if src not in Path(hmpx.__file__).resolve().parents:
            raise RuntimeError(f"imported hmpx from {hmpx.__file__}, not from {src}")
        self.np = np
        self.hmpx = hmpx
        self.workload = workload
        self.seed = seed
        self.workers = PAR_WORKERS if workload == "expand-par" else 1
        self.references = json.loads(REFERENCE.read_text(encoding="utf-8"))
        OUT_DIR.mkdir(exist_ok=True)
        tag = f"{workload}-{seed}-{os.getpid()}"
        self.bs_path = OUT_DIR / f"bs-{tag}.json"
        self.t3_path = OUT_DIR / f"t3-{tag}.json"
        self.mc_out = OUT_DIR / f"mc-{tag}.json"
        self.bounds_out = OUT_DIR / f"bounds-{tag}.json"
        bs_doc = {"transition": [[1 - BS_P, BS_P], [BS_P, 1 - BS_P]],
                  "noise": [[-1, 1], [1, -1]]}
        t3 = hmpx.random_model(np.random.default_rng(seed), 3)
        t3_doc = {"transition": t3.transition.matrix.tolist(),
                  "noise": t3.noise.matrix.tolist()}
        self.bs_path.write_text(json.dumps(bs_doc), encoding="utf-8")
        self.t3_path.write_text(json.dumps(t3_doc), encoding="utf-8")
        self.models = {"bs": hmpx.load_model(self.bs_path),
                       "t3": hmpx.load_model(self.t3_path)}
        self.lemma_rng = np.random.default_rng([seed, 1])
        self.series_value = None

    def cleanup(self):
        for path in (self.bs_path, self.t3_path, self.mc_out, self.bounds_out):
            path.unlink(missing_ok=True)

    def markov_rate(self, model):
        m = model.transition.matrix
        pi = model.transition.stationary
        return float(-self.np.sum(pi[:, None] * m * self.np.log(m)))

    # -- ops ---------------------------------------------------------------

    def expand_op(self, out, name, order, references):
        model = self.models[name]
        result = self.hmpx.entropy_rate_series(model, order, workers=self.workers,
                                               settle_tol=SETTLE_TOL)
        if not out.tolerance(result.coefficients[0], self.markov_rate(model), C0_TOL):
            return f"c_0 = {result.coefficients[0]!r} is not the Markov entropy rate"
        ref = references.get(f"{name}_K{order}")
        if ref is None:
            return None
        if len(ref) != len(result.coefficients):
            return f"{len(result.coefficients)} coefficients, reference has {len(ref)}"
        for k, (c, r) in enumerate(zip(result.coefficients, ref)):
            if not out.tolerance(c, r, SETTLE_TOL * max(1.0, abs(c))):
                return f"c_{k} = {c!r} differs from the reference {r!r}"
        return None

    def lemma_op(self, out, lemma, trial):
        model = self.hmpx.random_model(self.lemma_rng, 2 + trial % 2)
        reports = self.hmpx.run_lemma_battery(
            lemma, 1, trial, model=model, n_max=LEMMA_N_MAX,
            weight_max=LEMMA_WEIGHT_MAX)
        if len(reports) != 1:
            return f"{len(reports)} reports for one trial"
        rep = reports[0]
        out.lemma_ratio_max = max(out.lemma_ratio_max, rep.residual / rep.tolerance)
        if not out.tolerance(rep.residual, 0.0, rep.tolerance):
            return f"lemma {lemma} {rep.instance}: residual {rep.residual!r}"
        return None

    def mc_op(self, out):
        self.series_value = None
        code = self.hmpx.cli.main([
            "mc", "--model", str(self.bs_path), "--epsilon", str(MC_EPS),
            "--length", str(MC_LENGTH), "--seed", str(self.seed),
            "--order", str(MC_ORDER), "--out", str(self.mc_out)])
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(self.mc_out.read_text(encoding="utf-8"))
        out.mc_se.append(doc["standard_error"])
        out.mc_sigma.append(doc["sigma_distance"])
        self.series_value = doc["series_value"]
        if not doc["sigma_distance"] <= MC_SIGMA_MAX:
            return f"sigma_distance {doc['sigma_distance']!r} > {MC_SIGMA_MAX}"
        return None

    def bounds_op(self, out):
        code = self.hmpx.cli.main([
            "bounds", "--model", str(self.bs_path), "--epsilon", str(MC_EPS),
            "--n-max", str(BOUNDS_N_MAX), "--out", str(self.bounds_out)])
        if code != 0:
            return f"exit code {code}"
        rows = json.loads(self.bounds_out.read_text(encoding="utf-8"))["bounds"]
        if [r["N"] for r in rows] != list(range(2, BOUNDS_N_MAX + 1)):
            return "bounds rows do not cover N = 2..n_max"
        for r in rows:
            if not r["upper"] >= r["lower"]:
                return f"N={r['N']}: upper {r['upper']!r} < lower {r['lower']!r}"
        for a, b in zip(rows, rows[1:]):
            if not out.tolerance(max(0.0, b["upper"] - a["upper"]), 0.0, MONOTONE_SLACK):
                return f"upper bound rises from N={a['N']} to N={b['N']}"
            if not out.tolerance(max(0.0, a["lower"] - b["lower"]), 0.0, MONOTONE_SLACK):
                return f"lower bound falls from N={a['N']} to N={b['N']}"
        if self.series_value is None:
            return "no series value from the mc op to check against the bounds"
        last = rows[-1]
        outside = max(0.0, last["lower"] - self.series_value,
                      self.series_value - last["upper"])
        if not out.tolerance(outside, 0.0, SANDWICH_SLACK):
            return (f"series value {self.series_value!r} outside "
                    f"[{last['lower']!r}, {last['upper']!r}]")
        return None

    def pass_ops(self):
        """The ops of one pass, in order: (name, method, extra args)."""
        if self.workload in ("expand", "expand-par"):
            return [(f"{name} K={order}", self.expand_op, (name, order, self.references))
                    for name, order in EXPAND_ORDERS]
        if self.workload == "verify":
            return [(f"lemma {lemma} trial {trial}", self.lemma_op, (lemma, trial))
                    for lemma, trials in LEMMA_TRIALS.items() for trial in range(trials)]
        return [("mc", self.mc_op, ()), ("bounds", self.bounds_op, ())]


# -- measurement -----------------------------------------------------------
#
# On a shared 2-core VM the effective CPU speed was seen to drift by up to
# 1.5x within a minute, CPU time drifting with wall time, so raw times of
# runs made minutes apart are not comparable.  A fixed pure-Python kernel is timed between
# ops, at most every CAL_EVERY seconds and at each pass boundary, and each
# op's time is scaled by CAL_REF over the mean of the kernel times just
# before and just after it: timed metrics are seconds at the speed where
# the kernel takes CAL_REF seconds.  hmpx's hot loops are interpreter-bound
# like the kernel, so the ratio tracks it; raw times are kept in the run
# record.

CAL_REF = 0.025
CAL_EVERY = 0.5


def calibrate():
    """Seconds taken by a fixed interpreter-bound loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


class SpeedClock:
    def __init__(self):
        self.samples = []
        self.last = -float("inf")

    def sample(self, force=False):
        if force or time.perf_counter() - self.last >= CAL_EVERY:
            self.samples.append((calibrate() + calibrate()) / 2)
            self.last = time.perf_counter()

    def scale(self, before):
        """Factor for an op that started after sample ``before`` and ended before the next."""
        return CAL_REF / ((self.samples[before] + self.samples[before + 1]) / 2)


def cpu_seconds():
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Passes:
    """Per-pass times, raw and scaled to the reference speed."""

    def __init__(self):
        self.wall, self.cpu, self.raw_wall, self.raw_cpu = [], [], [], []
        self.child_cpu = 0.0
        self.calibration = []


def run_passes(ctx, out, seconds, tracer=None):
    """Closed loop of passes until the next one would end after ``seconds``."""
    clock = SpeedClock()
    passes = Passes()
    start = time.perf_counter()
    clock.sample(force=True)
    while True:
        ops = []
        for name, fn, args in ctx.pass_ops():
            before = len(clock.samples) - 1
            own0, kids0 = cpu_seconds()
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.op = out.attempted
            out.op(name, fn, out, *args)
            wall = time.perf_counter() - t0
            own1, kids1 = cpu_seconds()
            ops.append((wall, (own1 - own0) + (kids1 - kids0), kids1 - kids0, before))
            clock.sample()
        clock.sample(force=True)
        scales = [clock.scale(before) for *_, before in ops]
        passes.raw_wall.append(sum(op[0] for op in ops))
        passes.raw_cpu.append(sum(op[1] for op in ops))
        passes.wall.append(sum(op[0] * k for op, k in zip(ops, scales)))
        passes.cpu.append(sum(op[1] * k for op, k in zip(ops, scales)))
        passes.child_cpu += sum(op[2] for op in ops)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(passes.raw_wall) > seconds:
            passes.calibration = clock.samples
            return passes


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


# -- per-layer metrics from the traced half ---------------------------------

def _annotations():
    def sequences(n_of):
        # H_n and H_{n-1}, each its own enumeration
        def note(args, kwargs, result):
            s, n = args[0].size, n_of(args)
            return {"sequences": s ** n + s ** (n - 1)}
        return note

    def block(args, kwargs, result):
        model, n, noise = args[0], args[1], args[2]
        info = {"sequences": model.size ** n}
        if hasattr(noise, "order"):
            info["order"] = noise.order
        return info

    def series(args, kwargs, result):
        tol = kwargs.get("settle_tol", SETTLE_TOL)
        ratio = max(r / (tol * max(1.0, abs(c)))
                    for c, r in zip(result.coefficients, result.settle_residuals))
        return {"settle_ratio": ratio}

    def battery(args, kwargs, result):
        return {"lemma": args[0]}

    return {
        "engine.block_entropy": block,
        "engine.conditional_entropy": sequences(lambda a: a[1]),
        "engine.multi_site_F": sequences(lambda a: len(a[1])),
        "series.entropy_rate_series": series,
        "series.run_lemma_battery": battery,
    }


def _order_of(tracer, span):
    while span is not None:
        if span.info and "order" in span.info:
            return span.info["order"]
        span = tracer.spans[span.parent] if span.parent is not None else None
    return None


def layer_metrics(tracer, traced, workers, out, estimation):
    """Per-layer values per traced pass; times at reference speed."""
    tot = tracer.totals()
    passes = len(traced.wall)
    speed = sum(traced.wall) / sum(traced.raw_wall)  # raw seconds -> reference seconds

    def calls(name):
        return tot.get(name, (0, 0.0))[0] / passes

    def self_s(name):
        return tot.get(name, (0, 0.0))[1] * speed / passes

    m = {}
    for kind in ("uni", "multi"):
        for op in ("mul", "add", "log"):
            key = f"jets.{kind}.{op}"
            scalar = f"{key}.scalar"
            m[f"{key}.calls"] = calls(key) + calls(scalar)
            m[f"{key}.self_s"] = self_s(key) + self_s(scalar)
    coef_ops = 0
    for span in tracer.spans:
        jet, scalar = span.jets.get("jets.uni.mul"), span.jets.get("jets.uni.mul.scalar")
        if jet is None and scalar is None:
            continue
        k = _order_of(tracer, span)
        if k is None:
            continue
        coef_ops += (jet[0] if jet else 0) * (k + 1) * (k + 2) // 2
        coef_ops += (scalar[0] if scalar else 0) * (k + 1)
    m["jets.uni.mul.coef_ops"] = coef_ops / passes

    for name in ("block_entropy", "multi_site_F", "mixed_partial_F", "conditional_entropy"):
        m[f"engine.{name}.calls"] = calls(f"engine.{name}")
        m[f"engine.{name}.self_s"] = self_s(f"engine.{name}")
    enumerating = [s for s in tracer.spans if s.info and "sequences" in s.info]
    sequences = sum(s.info["sequences"] for s in enumerating)
    enum_wall = sum(s.duration for s in enumerating)
    m["engine.sequences"] = sequences / passes
    m["engine.sequences_per_s"] = sequences / (enum_wall * speed) if enum_wall else 0.0
    engine_wall = sum(s.duration for s in tracer.outermost("engine."))
    m["engine.children_cpu_s"] = traced.child_cpu * speed / passes
    m["engine.pool_busy_frac"] = (traced.child_cpu / (workers * engine_wall)
                                  if workers > 1 and engine_wall else 0.0)

    m["series.entropy_rate_series.calls"] = calls("series.entropy_rate_series")
    m["series.entropy_rate_series.self_s"] = self_s("series.entropy_rate_series")
    ratios = [s.info["settle_ratio"] for s in tracer.spans
              if s.name == "series.entropy_rate_series" and s.info]
    m["series.settle_ratio_max"] = max(ratios, default=0.0)
    for lemma in (1, 2, 3):
        m[f"series.lemma{lemma}.s"] = sum(
            s.duration for s in tracer.spans
            if s.name == "series.run_lemma_battery" and s.info["lemma"] == lemma
        ) * speed / passes
    m["series.lemma.instances"] = sum(
        1 for s in tracer.spans if s.name.startswith("series.verify_lemma_")) / passes
    m["series.lemma.residual_ratio_max"] = out.lemma_ratio_max

    m["estimation.sample_s"] = estimation.get("sample_s", 0.0)
    m["estimation.likelihood_s"] = estimation.get("likelihood_s", 0.0)
    m["estimation.likelihood.symbols_per_s"] = estimation.get("symbols_per_s", 0.0)
    m["estimation.bounds.calls"] = calls("estimation.conditional_bounds")
    m["estimation.bounds.self_s"] = self_s("estimation.conditional_bounds")
    m["estimation.mc.se"] = statistics.median(out.mc_se) if out.mc_se else 0.0
    m["estimation.mc.sigma"] = statistics.median(out.mc_sigma) if out.mc_sigma else 0.0

    m["model.calls"] = len(tracer.outermost("model.")) / passes
    m["model.self_s"] = sum(s.self_time for s in tracer.spans
                            if s.name.startswith("model.")) * speed / passes
    m["cli.main.self_s"] = self_s("cli.main")
    m["check.err_tol_frac"] = out.err_tol_frac
    return m


def estimation_split(ctx, out):
    """Sampling versus likelihood time of one MC path (no public split exists)."""
    hmpx = ctx.hmpx
    model = ctx.models["bs"]
    clock = SpeedClock()
    clock.sample(force=True)
    t0 = time.perf_counter()
    run = hmpx.sample_paths(model, MC_EPS, MC_LENGTH, ctx.seed)
    t1 = time.perf_counter()
    clock.sample(force=True)
    t2 = time.perf_counter()
    loglik = hmpx.path_log_likelihood(model, MC_EPS, run.observed)
    t3 = time.perf_counter()
    clock.sample(force=True)

    def same_loglik():
        if loglik != run.loglik:
            return f"path_log_likelihood {loglik!r} != sample_paths loglik {run.loglik!r}"
        return None

    out.op("mc likelihood identity", same_loglik)
    sampled, likelihood = (t1 - t0) * clock.scale(0), (t3 - t2) * clock.scale(1)
    return {"sample_s": sampled - likelihood, "likelihood_s": likelihood,
            "symbols_per_s": MC_LENGTH / likelihood}


def measure(ctx, seconds, trace):
    from tracer import Tracer

    out = Outcome()
    if not trace:
        return out, {"passes": vars(run_passes(ctx, out, seconds))}
    plain = run_passes(ctx, out, seconds / 2)
    tracer = Tracer(_annotations())
    with tracer:
        traced = run_passes(ctx, out, seconds / 2, tracer)
    estimation = estimation_split(ctx, out) if ctx.workload == "crosscheck" else {}
    layers = layer_metrics(tracer, traced, ctx.workers, out, estimation)
    layers["trace.overhead_frac"] = (statistics.median(traced.wall)
                                     / statistics.median(plain.wall) - 1)
    tracer.dump(OUT_DIR / f"trace-{ctx.workload}-{ctx.seed}.json")
    return out, {"plain": vars(plain), "traced": vars(traced), "layers": layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ctx = Context(args.workload, args.seed)
    setup_s = time.time() - args.t0
    result = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            out, data = measure(ctx, args.seconds, args.trace)
            result.update(data)
            result.update(attempted=out.attempted, failed=out.failed, errors=out.errors,
                          peak_rss_mb=peak_rss_mb(),
                          numpy=ctx.np.__version__, python=sys.version.split()[0])
    finally:
        ctx.cleanup()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
