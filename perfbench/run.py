"""hmpx benchmark launcher.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 20 --trace 0

Run from the root of an hmpx checkout; the package is imported from its
``src`` directory.  Each measurement runs in a fresh worker process
(``workloads.py``) with BLAS/OpenMP pinned to one thread, so the only
parallelism is the engine's own pool on ``expand-par``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run record (commit, versions, machine, load, seed).  Raw
per-pass data and the spans of traced runs are written under
``.perfbench_out/``.  Without ``src/hmpx`` next to this directory the
launcher exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CAL_REF, WORKLOADS, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "workloads.py"

DEFAULT_SEED = 1
SETUP_SAMPLES = 5           # set-up is timed in this many fresh processes
TIME_LIMIT_S = 170.0        # whole launcher, set-up included
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); the order is the print order.
END_TO_END = {
    # times are scaled to the reference speed, see workloads.calibrate
    "wall_s": ("s", "lower"),        # median wall time of one pass
    "cpu_s": ("s", "lower"),         # median CPU time of one pass, pool workers included
    "setup_s": ("s", "lower"),       # process start until the timed loop, median
    "peak_rss_mb": ("MB", "lower"),  # high-water RSS of the worker plus its largest child
    "ok_ratio": ("1", "higher"),     # 1 - failed / attempted
}

PER_LAYER = {}
for _kind in ("uni", "multi"):
    for _op in ("mul", "add", "log"):
        PER_LAYER[f"jets.{_kind}.{_op}.calls"] = ("count", "lower")
        PER_LAYER[f"jets.{_kind}.{_op}.self_s"] = ("s", "lower")
PER_LAYER["jets.uni.mul.coef_ops"] = ("count", "lower")
for _name in ("block_entropy", "multi_site_F", "mixed_partial_F", "conditional_entropy"):
    PER_LAYER[f"engine.{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"engine.{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "engine.sequences": ("count", "lower"),
    "engine.sequences_per_s": ("1/s", "higher"),
    "engine.children_cpu_s": ("s", "lower"),
    "engine.pool_busy_frac": ("1", "higher"),
    "series.entropy_rate_series.calls": ("count", "lower"),
    "series.entropy_rate_series.self_s": ("s", "lower"),
    "series.settle_ratio_max": ("1", "lower"),
    "series.lemma1.s": ("s", "lower"),
    "series.lemma2.s": ("s", "lower"),
    "series.lemma3.s": ("s", "lower"),
    "series.lemma.instances": ("count", "higher"),
    "series.lemma.residual_ratio_max": ("1", "lower"),
    "estimation.sample_s": ("s", "lower"),
    "estimation.likelihood_s": ("s", "lower"),
    "estimation.likelihood.symbols_per_s": ("1/s", "higher"),
    "estimation.bounds.calls": ("count", "lower"),
    "estimation.bounds.self_s": ("s", "lower"),
    "estimation.mc.se": ("nats", "lower"),
    "estimation.mc.sigma": ("1", "lower"),
    "model.calls": ("count", "lower"),
    "model.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "check.err_tol_frac": ("1", "lower"),
    "trace.overhead_frac": ("1", "lower"),
})


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args, deadline, env, *, setup_only=False):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    # own session, so a timeout also ends the worker's pool processes
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        _kill(proc)
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S:.0f} s") from exc
    except BaseException:
        _kill(proc)
        raise
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode} and no result")
    return json.loads(lines[-1])


def _kill(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hmpx").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end_metrics(setups, run):
    passes = run["passes"]
    return {
        "wall_s": statistics.median(passes["wall"]),
        "cpu_s": statistics.median(passes["cpu"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": 1.0 - run["failed"] / run["attempted"],
    }


def result_line(run, values, table):
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }


def bench(args):
    if not (ROOT / "src" / "hmpx" / "__init__.py").is_file():
        raise BenchError(f"no hmpx package under {ROOT / 'src'}; run from an hmpx checkout")
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **{name: "1" for name in THREAD_PINS})
    env.pop("PYTHONPATH", None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "src_sha256": _source_digest(),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "loadavg_before": _loadavg(), "threads": {n: "1" for n in THREAD_PINS},
    }
    _worker(args, deadline, env, setup_only=True)  # warm-up: bytecode caches
    raw_setups, setups = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        took = _worker(args, deadline, env, setup_only=True)["setup_s"]
        raw_setups.append(took)
        setups.append(took * CAL_REF / ((before + calibrate()) / 2))
    run = _worker(args, deadline, env)
    record.update(loadavg_after=_loadavg(), python=run["python"], numpy=run["numpy"],
                  setup_raw_s=raw_setups)
    if run["errors"]:
        record["errors"] = run["errors"]
    if args.trace:
        result = result_line(run, run["layers"], PER_LAYER)
    else:
        result = result_line(run, end_to_end_metrics(setups, run), END_TO_END)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"record": record, "run": run, "result": result},
                                           indent=1), encoding="utf-8")
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="hmpx benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        record, result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
