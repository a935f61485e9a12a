"""The CLI answers the same under ``python -O``, which strips ``assert``.

A check that lived in an assert would vanish there and could turn a
MISMATCH into "all match"; comparing both runs byte for byte catches that.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcheaps

SRC = str(Path(fcheaps.__file__).resolve().parent.parent)


def _verify(optimize, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "fcheaps.cli", "verify", *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("args", [
    ("--type", "B", "--rank", "4"),
    ("--type", "affC", "--rank", "2", "--max-length", "16"),
])
def test_verify_is_unchanged_under_optimize(args):
    plain = _verify(False, *args)
    optimized = _verify(True, *args)
    assert plain.stdout
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)
