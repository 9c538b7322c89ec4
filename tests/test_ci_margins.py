"""Large-cutoff membership margins through ``cli.main`` in a fresh
directory: at cutoff 512 the margin equals its closed form to 1e-12
relative, at the label named, in under a second; a product-group margin,
read from a point file with one point per factor, at cutoff 256 in under a
quarter second."""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

from bfw.cli import main

# (group, weight, point, margin, argmax): |z| or lam beyond the exp base by
# 1.05 or 1.1 on one axis, so the top label of the ball carries the margin
CASES = [
    ("su2", "exp:lambda=2", {"group": "su2", "euler": [0.3, 1.1, 2.0], "lambda": 2.1}, 1.05**512, "pi:512"),
    ("torus:2", "exp:lambda=2", {"group": "torus:2", "z": [[2.1, 0.0], [0.0, 1 / 2.2]]}, 1.1**512, "t:(0,-512)"),
    ("txz2", "exp:lambda=2", {"group": "txz2", "z": [0.0, -1 / 2.1], "flip": True}, 1.05**512, "pi:512"),
]


def membership(group, weight, point, cutoff):
    """The membership block of ``bfw spectrum`` at point, and the seconds it took."""
    Path("p.json").write_text(json.dumps(point))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["spectrum", "--group", group, "--weight", weight, "--membership-point", "p.json",
                     "--cutoff", str(cutoff)])
    elapsed = time.perf_counter() - start
    assert code == 0
    return json.loads(out.getvalue())["result"]["membership"], elapsed


@pytest.mark.parametrize("group,weight,point,margin,argmax", CASES, ids=[c[0] for c in CASES])
def test_cutoff_512_margin_is_the_closed_form(tmp_path, monkeypatch, group, weight, point, margin, argmax):
    monkeypatch.chdir(tmp_path)
    res, elapsed = membership(group, weight, point, 512)
    assert abs(res["margin"] - margin) <= 1e-12 * margin, (res["margin"], margin)
    assert res["argmax"] == argmax and res["certified"]
    assert elapsed < 1.0, elapsed


def test_product_margin_at_cutoff_256_is_the_closed_form(tmp_path, monkeypatch):
    # lam = 2.1 against the exp base 2 on the SU(2) axis, |z| = 1 on the circle:
    # (2.1/2)^n 2^-|m| peaks at pi:256×t:(0)
    monkeypatch.chdir(tmp_path)
    point = {"group": "prod(su2,torus:1)", "factors": [{"group": "su2", "euler": [0, 0, 0], "lambda": 2.1},
                                                       {"group": "torus:1", "z": [[1.0, 0.0]]}]}
    res, elapsed = membership("prod(su2,torus:1)", "exp:lambda=2", point, 256)
    margin = 1.05**256
    assert abs(res["margin"] - margin) <= 1e-12 * margin, (res["margin"], margin)
    assert res["argmax"] == "pi:256×t:(0)" and res["certified"]
    assert elapsed < 0.25, elapsed
