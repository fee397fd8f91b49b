"""Smoke test of scripts/output_digest.py, the bit-identity check a change
meant to keep every output runs against its parent."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEX_DIGEST = re.compile(r"[0-9a-f]{64}")


def _leaves(value):
    if isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _is_plain(leaf):
    """A float's repr, or bytes as "sha256:" and their digest; an item that
    raised holds its exception's type and message, which is neither."""
    if not isinstance(leaf, str):
        return False
    if leaf.startswith("sha256:"):
        return HEX_DIGEST.fullmatch(leaf[len("sha256:"):]) is not None
    try:
        return repr(float(leaf)) == leaf
    except ValueError:
        return False


def test_values_cover_the_grid_without_a_raised_item():
    run = subprocess.run([sys.executable, "scripts/output_digest.py", "--values"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    *lines, digest = run.stdout.splitlines()
    assert HEX_DIGEST.fullmatch(digest)
    items = [json.loads(line) for line in lines]
    labels = [item["item"] for item in items]
    assert labels and len(set(labels)) == len(labels)
    for item in items:
        bad = [leaf for leaf in _leaves(item["values"]) if not _is_plain(leaf)]
        assert not bad, f"{item['item']}: {bad[:3]}"
