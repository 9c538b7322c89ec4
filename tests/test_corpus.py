"""Every invocation of the report corpus (``tests/corpus/``) writes the bytes
it recorded: exit code, stdout, stderr and files.  ``tests/corpus_replay.py``
says how the corpus is laid out and how to rewrite it."""

import json
import subprocess
import sys

import corpus_replay
from corpus_replay import child_env, replay, same_text


def test_corpus_replays():
    # byte for byte on the machine the corpus was recorded on, else to same_text's tolerance
    _, failed = replay()
    assert not failed, failed


def test_corpus_replays_under_other_blas_kernels():
    # OpenBLAS's generic x86 kernels round differently from those of the recording:
    # the comparison for other machines must still pass on the numbers they change
    child = subprocess.run([sys.executable, corpus_replay.__file__, "--check"], capture_output=True, text=True,
                           env=child_env(OPENBLAS_CORETYPE="Prescott"), check=True)
    out = json.loads(child.stdout)
    assert not out["exact"] and not out["failed"], out


def test_same_text_reads_numbers_to_the_scale_of_the_text():
    doc = '{\n  "value": 2.5000000000000004,\n  "label": "pi:3"\n}\n'
    assert same_text(doc, doc.replace("2.5000000000000004", "2.5"))
    assert not same_text(doc, doc.replace("2.5000000000000004", "2.50000000001"))
    assert not same_text(doc, doc.replace("pi:3", "pi:4"))
    assert not same_text(doc, doc.replace('"label"', '"lab"'))
    assert not same_text("0.0,1e-300", "1e-300,0.0")
    assert same_text("t,norm\n1.0,3.0000000000000004e+20\n", "t,norm\n1.0,3e+20\n")
    # a rounding-error entry next to O(1) entries may change by all of itself
    matrix = "[\n  0.7071067811865476,\n  1.3877787807814457e-17,\n  -0.7071067811865475\n]\n"
    assert same_text(matrix, matrix.replace("1.3877787807814457e-17", "-4.163336342344337e-17"))
    assert same_text(matrix, matrix.replace("1.3877787807814457e-17", "0.0"))
    assert not same_text(matrix, matrix.replace("1.3877787807814457e-17", "1e-11"))
    # a residual of 1e-15 beside norms of order 10
    report = '{"norm": 7.866737467353894, "reconstruction_error": 8.899114524108741e-16}'
    assert same_text(report, report.replace("8.899114524108741e-16", "2.220446049250313e-15"))
