"""e^{itu} growth curves through ``bfw expcurve`` on every grid family: the
SU(2) curve to t = 2^14 in a child process that stays small, and to t = 1024
in-process, SO(3) class angles, and the torus FFT on torus:1 and on torus:2
from an element file.  Each curve has its number of lines, and every cell
after the header is a number."""

import contextlib
import csv
import io

import numpy as np
import pytest

from bfw import OperatorField
from bfw.cli import main
from bfw.duals import parse_group
from bfw.serialize import dumps, element_to_json

from conftest import cli_child


def test_su2_expcurve_to_two_to_the_14_stays_small(tmp_path):
    # one length-m FFT per t keeps the class-angle grid O(m), so the child stays small
    out = cli_child(["expcurve", "--group", "su2", "--u", "uchar:1", "--weight", "poly:alpha=1",
                     "--tmax", "16384", "--cutoff-cap", "24000", "--out", "c16k.csv"], tmp_path)
    assert out.returncode == 0, out.stderr
    rss_mb = float(out.stdout.splitlines()[-1])
    lines = (tmp_path / "c16k.csv").read_text().splitlines()
    assert len(lines) == 16, len(lines)
    tails = [float(row["tail"]) for row in csv.DictReader(lines)]
    assert max(tails) <= 1e-12, tails
    assert rss_mb < 200, rss_mb


# (group, u, tmax, cutoff cap or None, lines of the CSV)
CURVES = [
    # growth curves take norms from coefficient vectors: dense fields would need tens of GB here
    ("su2", "uchar:1", "1024", "1400", 12),
    ("so3", "uchar:2", "64", None, 8),
    ("torus:1", "cos:1", "64", "256", 8),
    # u = cos theta_1 + cos theta_2, from an element file
    ("torus:2", "u2.json", "32", "256", 7),
]


@pytest.mark.parametrize("group,u,tmax,cap,lines", CURVES, ids=[c[0] for c in CURVES])
def test_expcurve_lines_are_numbers(tmp_path, monkeypatch, group, u, tmax, cap, lines):
    monkeypatch.chdir(tmp_path)
    if u == "u2.json":
        dual = parse_group(group)
        u2 = OperatorField.from_terms(dual, {a: np.array([[0.5]]) for a in dual.generators()})
        (tmp_path / u).write_text(dumps(element_to_json(u2)))
    argv = ["expcurve", "--group", group, "--u", u, "--weight", "poly:alpha=1", "--tmax", tmax, "--out", "c.csv"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + (["--cutoff-cap", cap] if cap else [])) == 0
    header, *rows = (tmp_path / "c.csv").read_text().splitlines()
    assert len(rows) + 1 == lines, rows
    assert header == "t,norm,bound,cutoff,tail", header
    for row in rows:
        [float(cell) for cell in row.split(",")]
