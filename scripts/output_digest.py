"""One SHA-256 over the exact bits of a fixed grid of hmpx outputs.

    python3 scripts/output_digest.py            # the digest
    python3 scripts/output_digest.py --items    # one digest per grid item too
    python3 scripts/output_digest.py --values   # one JSON line of values per item too

Run it from the root of a checkout: the package is imported from that
checkout's ``src``.  Two trees whose digests agree computed every value of
the grid with the same bits, so a change meant to keep the outputs (a
performance change, say) is checked against its parent with one command
in each tree.  Bits of floating-point results may differ between
platforms and numpy builds, so compare digests made on one machine only.

The grid: ``entropy_rate_series`` (bs at K = 11, 19, 31; t3 at K = 11,
15; a random 3-state model at K = 11), ``settling_table`` on a zero-noise
model and on bs p = 1e-8 (whose order-19 cells overflow), ``bounds_by_n``,
the residuals of three 30-trial lemma batteries, ``mixed_partial_F`` for
9 kvecs on 4 models, ``multi_site_F`` on a MultiJet profile and on one
that mixes floats with UniJets, ``sequence_probability`` of a UniJet on
five symbols and on none, the bytes of ``sample_paths`` across a sampler
segment end (length 2 * ``_SEGMENT`` + 1, seeds 1-3) on bs, t3 and a
random 9-symbol model, the estimate and standard error of
``mc_entropy_rate`` at L = 10**5 on bs and on t3, on the 9-symbol model
at L = 3 * ``_SEGMENT`` + 7 in 31 replicas (a walk and emission across
three segments, 8 emission edges per state, replicas that straddle
segment ends) and at L = 10 007 in replicas of w = 1, 2, 7 and 8 symbols
(one-symbol rows, and words padded with identity steps), and
``path_log_likelihood`` on t3.  An item that raises hashes its
exception's type and message instead.

``--values`` prints each item as one JSON object, {"item": label,
"values": ...}, the values nested as the item returns them: every float
as its repr, which reads back to the same bits, bytes as "sha256:" and
their SHA-256, and a raised exception as its type and message.  A change
meant to move bits can then report, item by item, the largest
|new - old| / max(1, |old|) against its parent.
"""

import hashlib
import json
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import hmpx  # noqa: E402
from hmpx import MultiJet, UniJet  # noqa: E402
from hmpx.estimation import _SEGMENT, bounds_by_n, path_log_likelihood  # noqa: E402

KVECS = [(1, 1), (3, 2), (1, 0, 1), (2, 0, 2), (0, 3, 3), (1, 2, 1),
         (2, 1, 0, 1), (0, 0, 0, 3, 2), (2, 2, 1, 1, 0, 0)]


def _models():
    rng = np.random.default_rng(2024)
    bs = hmpx.make_model([[0.7, 0.3], [0.3, 0.7]], [[-1, 1], [1, -1]])
    t3 = hmpx.make_model([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
                         [[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    return {
        "bs": bs,
        "t3": t3,
        "r2": hmpx.random_model(rng, 2),
        "r3": hmpx.random_model(rng, 3),
        "r9": hmpx.random_model(rng, 9),
        "zero": hmpx.make_model([[0.7, 0.3], [0.3, 0.7]], [[0, 0], [0, 0]]),
        "p8": hmpx.make_model([[1 - 1e-8, 1e-8], [1e-8, 1 - 1e-8]], [[-1, 1], [1, -1]]),
    }


def _grid(m):
    """(label, thunk) pairs; each thunk returns numbers or bytes, nested in
    sequences."""
    items = [(f"series {name} K={k}",
              lambda name=name, k=k: [
                  (r := hmpx.entropy_rate_series(m[name], k)).coefficients,
                  r.settle_residuals])
             for name, k in (("bs", 11), ("bs", 19), ("bs", 31),
                             ("t3", 11), ("t3", 15), ("r3", 11))]
    items += [(f"table {name}", lambda name=name, k=k, n=n: [
        (t := hmpx.settling_table(m[name], k, n)).coefficients,
        t.column_disagreement]) for name, k, n in (("zero", 7, 8), ("p8", 19, 12))]
    items += [("bounds bs", lambda: bounds_by_n(m["bs"], 0.05, 14)),
              ("bounds t3", lambda: bounds_by_n(m["t3"], 0.1, 8))]
    items += [(f"lemma {lemma}", lambda lemma=lemma: [
        r.residual for r in hmpx.run_lemma_battery(lemma, 30, seed=lemma)])
        for lemma in (1, 2, 3)]
    items += [(f"mixed {name} {kvec}",
               lambda name=name, kvec=kvec: hmpx.mixed_partial_F(m[name], kvec))
              for name in ("bs", "t3", "r2", "r3") for kvec in KVECS]
    items += [("multi_site_F t3", lambda: hmpx.multi_site_F(
        m["t3"], [MultiJet.variable(i, 4, 4) for i in range(4)]).coeffs),
        ("multi_site_F t3 floats and UniJets", lambda: hmpx.multi_site_F(
            m["t3"], [0.0, UniJet.variable(6), 0.05, UniJet.variable(6)]).coeffs),
        ("sequence_probability t3", lambda: hmpx.sequence_probability(
            m["t3"], [0, 1, 2, 1, 0], UniJet.variable(8)).coeffs),
        ("sequence_probability t3 empty", lambda: hmpx.sequence_probability(
            m["t3"], [], UniJet.variable(4)).coeffs)]
    items += [(f"sample_paths {name} seed={seed}", lambda name=name, seed=seed: [
        (run := hmpx.sample_paths(m[name], 0.5 * m[name].epsilon_max,
                                  2 * _SEGMENT + 1, seed)).hidden.tobytes(),
        run.observed.tobytes(), run.loglik])
        for name in ("bs", "t3", "r9") for seed in (1, 2, 3)]
    items += [("mc bs", lambda: [
        (e := hmpx.mc_entropy_rate(m["bs"], 0.05, 10**5, 3)).estimate,
        e.standard_error]),
        ("mc t3", lambda: [
            (e := hmpx.mc_entropy_rate(m["t3"], 0.1, 10**5, 3)).estimate,
            e.standard_error]),
        ("mc r9 across segments in 31 replicas", lambda: [
            (e := hmpx.mc_entropy_rate(m["r9"], 0.5 * m["r9"].epsilon_max,
                                       3 * _SEGMENT + 7, 3, batches=31)).estimate,
            e.standard_error]),
        *((f"mc {name} rows of {w}", lambda name=name, eps=eps, w=w: [
            (e := hmpx.mc_entropy_rate(m[name], eps, 10_007, 3,
                                       batches=10_007 // w)).estimate,
            e.standard_error])
          for name, eps in (("bs", 0.05), ("t3", 0.1)) for w in (1, 2, 7, 8)),
        ("path_log_likelihood t3", lambda: path_log_likelihood(
            m["t3"], 0.1, np.random.default_rng(7).integers(0, 3, 10_001)))]
    return items


def _feed(h, value):
    if isinstance(value, bytes):
        h.update(value)
    elif isinstance(value, (list, tuple, np.ndarray)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    else:
        h.update(struct.pack("<d", float(value)))


def _plain(value):
    """value for --values: floats as their repr, bytes as their SHA-256."""
    if isinstance(value, str):
        return value
    if isinstance(value, bytes):
        return "sha256:" + hashlib.sha256(value).hexdigest()
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    return repr(float(value))


def main(argv):
    total = hashlib.sha256()
    for label, thunk in _grid(_models()):
        h = hashlib.sha256(label.encode())
        try:
            value = thunk()
            _feed(h, value)
        except Exception as exc:  # the refusal is part of the output
            value = f"{type(exc).__name__}: {exc}"
            h.update(value.encode())
        total.update(h.digest())
        if "--items" in argv:
            print(h.hexdigest(), label)
        if "--values" in argv:
            print(json.dumps({"item": label, "values": _plain(value)}))
    print(total.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
