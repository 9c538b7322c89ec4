"""The SVD membership margin, kept as the reference for :func:`bfw.fields.point_margin`.

Every irrep of the default ball is built at the point (``dual.reps``) and its
operator norm taken by one SVD per label, then divided by the weight.  The
library takes the same sup in closed form from the positive part of the point
(:meth:`bfw.duals.GroupDual.log_norms_at`).
"""

import numpy as np

from bfw.duals import (
    ProductSpectrumPoint,
    SemidirectDual,
    SemidirectSpectrumPoint,
    Su2Dual,
    Su2SpectrumPoint,
    TorusDual,
    TorusSpectrumPoint,
)


def margins(dual, theta, w, cutoff):
    """The labels of ball(cutoff) and ||pi(theta)|| / w(pi) at each of them;
    the margin is their maximum, at the first label attaining it."""
    labels = dual.ball(cutoff)
    vals = [float(np.linalg.norm(R[0], 2)) / w(a) for a, R in zip(labels, dual.reps(labels, [theta]))]
    return labels, np.array(vals)


def spectrum_point(dual, rng):
    """A random point of the complexified group, moduli in [0.4, 2.5]."""
    if isinstance(dual, TorusDual):
        return TorusSpectrumPoint(tuple(rng.uniform(0.4, 2.5, dual.n) * np.exp(2j * np.pi * rng.random(dual.n))))
    if isinstance(dual, Su2Dual):
        return Su2SpectrumPoint(dual.random_point(rng), rng.uniform(0.4, 2.5))
    if isinstance(dual, SemidirectDual):
        return SemidirectSpectrumPoint(rng.uniform(0.4, 2.5) * np.exp(2j * np.pi * rng.random()),
                                       bool(rng.integers(2)))
    return ProductSpectrumPoint(spectrum_point(dual.left, rng), spectrum_point(dual.right, rng))

