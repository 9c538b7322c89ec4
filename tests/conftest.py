import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bfw
from bfw import (
    OperatorField,
    ProductDual,
    SemidirectDual,
    So3Dual,
    Su2Dual,
    TorusDual,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def su2():
    return Su2Dual()


@pytest.fixture
def t1():
    return TorusDual(1)


@pytest.fixture
def t2():
    return TorusDual(2)


@pytest.fixture
def sd():
    return SemidirectDual()


@pytest.fixture
def so3():
    return So3Dual()


@pytest.fixture
def prod_dual():
    return ProductDual(Su2Dual(), TorusDual(1))


def random_field(dual, radius, rng, n_terms=2, scale=1.0):
    """Random finitely supported field with support inside the given ball."""
    labels = list(dual.ball(radius))
    idx = rng.choice(len(labels), size=min(n_terms, len(labels)), replace=False)
    terms = {}
    for i in idx:
        a = labels[int(i)]
        d = dual.dim(a)
        terms[a] = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return OperatorField.from_terms(dual, terms)


def field_max_abs(f):
    return max((float(np.max(np.abs(M))) for M in f.coeffs.values()), default=0.0)


def fields_close(x, y, tol=1e-10):
    diff = x - y
    return field_max_abs(diff) <= tol


_CLI_CHILD = """
import sys
from bfw.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024)
sys.exit(code)
"""


def cli_child(argv, cwd):
    """Run ``bfw argv`` in a child process in cwd and return the completed
    process.  The last line of its stdout is its peak RSS in MB, read as
    VmHWM: its ru_maxrss would start from the peak of the process that
    started it."""
    src = Path(bfw.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", _CLI_CHILD] + list(argv), capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)})
