"""The e^{itu} growth curve to t = 2^14 that CI runs inline on every
interpreter, with its assertions as CI states them, in a child process."""

import csv

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
