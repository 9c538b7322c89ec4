"""The depth-24 weight validations that CI runs inline on every interpreter,
each in a child process with its assertions as CI states them: the fusion
inequality holds, in under 2 s and 150 MB peak a run."""

import json
import time

import pytest

from conftest import cli_child


@pytest.mark.parametrize("group", ["torus:2", "prod(su2,torus:1)"])
def test_depth_24_validation_stays_small(tmp_path, group):
    # one pass over the fusion table of the pairs of ball(24), in blocks of bounded rows
    start = time.perf_counter()
    out = cli_child(["validate-weight", "--group", group, "--weight", "poly:alpha=2", "--depth", "24"], tmp_path)
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    *report, rss_mb = out.stdout.splitlines()
    res = json.loads("\n".join(report))["result"]
    assert res["passed"] and res["max_violation"] == 0.0, res
    assert elapsed < 2.0, elapsed
    assert float(rss_mb) < 150, rss_mb
