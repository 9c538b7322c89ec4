"""The large-cutoff membership margins that CI runs inline on every
interpreter, each with its assertions as CI states them.  Through
``cli.main`` in a fresh directory: at cutoff 512 the margin equals its
closed form to 1e-12 relative, at the label CI names, in under a second.
Through the library, since the CLI reads no product points: a product-group
margin at cutoff 256 in under a quarter second."""

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from bfw import make_weight
from bfw.cli import main
from bfw.duals import parse_group
from bfw.spectrum import ProductSpectrumPoint, Su2SpectrumPoint, TorusSpectrumPoint, membership

# (group, weight, point, margin, argmax): |z| or lam beyond the exp base by
# 1.05 or 1.1 on one axis, so the top label of the ball carries the margin
CASES = [
    ("su2", "exp:lambda=2", {"group": "su2", "euler": [0.3, 1.1, 2.0], "lambda": 2.1}, 1.05**512, "pi:512"),
    ("torus:2", "exp:lambda=2", {"group": "torus:2", "z": [[2.1, 0.0], [0.0, 1 / 2.2]]}, 1.1**512, "t:(0,-512)"),
    ("txz2", "exp:lambda=2", {"group": "txz2", "z": [0.0, -1 / 2.1], "flip": True}, 1.05**512, "pi:512"),
]


@pytest.mark.parametrize("group,weight,point,margin,argmax", CASES, ids=[c[0] for c in CASES])
def test_cutoff_512_margin_is_the_closed_form(tmp_path, monkeypatch, group, weight, point, margin, argmax):
    monkeypatch.chdir(tmp_path)
    Path("p.json").write_text(json.dumps(point))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["spectrum", "--group", group, "--weight", weight, "--membership-point", "p.json",
                     "--cutoff", "512"])
    elapsed = time.perf_counter() - start
    assert code == 0
    res = json.loads(out.getvalue())["result"]["membership"]
    assert abs(res["margin"] - margin) <= 1e-12 * margin, (res["margin"], margin)
    assert res["argmax"] == argmax and res["certified"]
    assert elapsed < 1.0, elapsed


def test_product_margin_at_cutoff_256_is_the_closed_form():
    # lam = 2.1 against the exp base 2 on the SU(2) axis, |z| = 1 on the circle:
    # (2.1/2)^n 2^-|m| peaks at pi:256×t:(0)
    dual = parse_group("prod(su2,torus:1)")
    theta = ProductSpectrumPoint(Su2SpectrumPoint(np.eye(2), 2.1), TorusSpectrumPoint((1,)))
    w = make_weight(dual, "exp:lambda=2")
    start = time.perf_counter()
    res = membership(dual, theta, w, cutoff=256)
    elapsed = time.perf_counter() - start
    margin = 1.05**256
    assert abs(res.margin - margin) <= 1e-12 * margin, (res.margin, margin)
    assert res.argmax == "pi:256×t:(0)" and res.certified
    assert elapsed < 0.25, elapsed
