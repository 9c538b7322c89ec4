"""The pair loop through ``fuse_oracle``, kept as the reference for :func:`bfw.weights.validate`.

Every pair a <= b of ball(depth) in order, and every component sigma of
a (x) b in label_key order, with the excess w(sigma) / (w(a) w(b)) - 1.0 in
Python floats.  The library takes the same pass over
:meth:`bfw.duals.GroupDual.fusion_table` in arrays.
"""

from bfw.labels import format_label
from bfw.weights import WeightReport

import fuse_oracle


def validate(dual, w, depth=12, tol=1e-9):
    labels = dual.ball(depth)
    worst = 0.0
    witness = None
    witness_vals = None
    for i, a in enumerate(labels):
        wa = w(a)
        for b in labels[i:]:
            bound = wa * w(b)
            for sigma, _ in fuse_oracle.fuse(dual, a, b):
                excess = w(sigma) / bound - 1.0
                if excess > worst:
                    worst = excess
                    witness = (format_label(sigma), format_label(a), format_label(b))
                    witness_vals = (w(sigma), wa, w(b))
    sym = max(abs(w(dual.conjugate(a)) - w(a)) / w(a) for a in labels)
    inf = min(w(a) for a in labels)
    passed = worst <= tol and (not w.symmetric or sym <= 1e-12)
    return WeightReport(passed, worst, witness, witness_vals, sym, inf, depth, tol)
