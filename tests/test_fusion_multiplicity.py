"""Fusion components of multiplicity 2 through ``multiply`` and the product
intertwiners.

No family of the library has a component of multiplicity above 1, so the
copy loops of ``multiply`` and ``_copy_columns`` would otherwise never run a
second copy.  ``DoubledDual`` is a test-only fusion ring on triv, sgn and a
2-dimensional pi with pi (x) pi = 2 triv + 2 sgn (dimensions 4 = 2 + 2), and
a fixed random unitary of each pair as its intertwiner.  ``multiply`` only
reads the table and W, so it must equal the direct per-copy sum for any
unitary W.
"""

import numpy as np
import pytest

from bfw import OperatorField, ProductDual, ProductLabel, SemidirectLabel, Su2Dual, Su2Spin
from bfw.duals import GroupDual
from bfw.fields import multiply

TRIV, SGN, PI = SemidirectLabel("triv"), SemidirectLabel("sgn"), SemidirectLabel("pi", 1)
LABELS = (TRIV, SGN, PI)


class DoubledDual(GroupDual):
    family = "doubled"

    @property
    def trivial(self):
        return TRIV

    def contains(self, a):
        return a in LABELS

    def dim(self, a):
        self._check(a)
        return 2 if a == PI else 1

    def coords(self, a):
        return (LABELS.index(a),)

    def label_at(self, c):
        return LABELS[c[0]]

    def dims_at(self, c):
        return np.where(c[:, 0] == 2, 2, 1)

    def fusion_table(self, ca, cb):
        rows = []
        for i, (x, y) in enumerate(zip(ca[:, 0].tolist(), cb[:, 0].tolist())):
            if x == y == 2:
                rows += [(i, 0, 2), (i, 1, 2)]
            elif 2 in (x, y):
                rows.append((i, 2, 1))
            else:
                rows.append((i, x ^ y, 1))
        r = np.array(rows, dtype=np.int64)
        return r[:, 0], r[:, 1:2], r[:, 2]

    def _build_intertwiners(self, a, b):
        d = self.dim(a) * self.dim(b)
        rng = np.random.default_rng(7 + 3 * self.coords(a)[0] + self.coords(b)[0])
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return q

    def __repr__(self):
        return "doubled"


def _copy_sum(u, v):
    """(uv)^(sigma) = sum over pairs and over each copy c of sigma in a (x) b of
    (d_a d_b / d_sigma) V_c^H (u^(a) (x) v^(b)) V_c, with V_c the copy's
    columns of W in the order of fuse(a, b)."""
    dual, acc = u.dual, {}
    for a, Ma in u.coeffs.items():
        for b, Mb in v.coeffs.items():
            W, K, col = dual.intertwiners(a, b), np.kron(Ma, Mb), 0
            for sigma, m in dual.fuse(a, b):
                d = dual.dim(sigma)
                for _ in range(m):
                    V = W[:, col:col + d]
                    col += d
                    acc[sigma] = acc.get(sigma, 0) + dual.dim(a) * dual.dim(b) / d * (V.conj().T @ K @ V)
            assert col == W.shape[1]
    return acc


def _random_field(dual, labels, rng):
    return OperatorField.from_terms(dual, {
        a: rng.standard_normal((dual.dim(a),) * 2) + 1j * rng.standard_normal((dual.dim(a),) * 2)
        for a in labels})


def _assert_equal_fields(got, want):
    assert set(got.coeffs) == set(want)
    scale = max(float(np.max(np.abs(M))) for M in want.values())
    for a, M in want.items():
        assert np.max(np.abs(got.coeffs[a] - M)) <= 1e-12 * scale, a


def test_fuse_has_multiplicity_two():
    dual = DoubledDual()
    assert dual.fuse(PI, PI) == ((TRIV, 2), (SGN, 2))
    assert dual.fuse(SGN, PI) == ((PI, 1),)
    assert dual.fuse(SGN, SGN) == ((TRIV, 1),)


@pytest.mark.parametrize("seed", [0, 1])
def test_multiply_sums_every_copy(seed):
    dual, rng = DoubledDual(), np.random.default_rng(seed)
    u, v = _random_field(dual, LABELS, rng), _random_field(dual, LABELS, rng)
    _assert_equal_fields(multiply(u, v), _copy_sum(u, v))


def test_product_intertwiners_gather_every_copy():
    # on prod(doubled, su2), (pi x pi:1) (x) (pi x pi:1) holds each of triv x pi:0,
    # triv x pi:2, sgn x pi:0 and sgn x pi:2 twice
    dual, rng = ProductDual(DoubledDual(), Su2Dual()), np.random.default_rng(3)
    labels = [dual.label_at(c) for c in np.indices((3, 3)).reshape(2, -1).T.tolist()]
    a = ProductLabel(PI, Su2Spin(1))
    assert dual.fuse(a, a) == tuple((ProductLabel(s, Su2Spin(n)), 2) for s in (TRIV, SGN) for n in (0, 2))
    for a in labels:
        for b in labels:
            W = dual.intertwiners(a, b)
            assert np.allclose(W.conj().T @ W, np.eye(len(W)), atol=1e-12)
    u, v = _random_field(dual, labels, rng), _random_field(dual, labels, rng)
    _assert_equal_fields(multiply(u, v), _copy_sum(u, v))


def test_product_of_pure_tensors_is_the_tensor_of_the_factor_products():
    # (u_l (x) u_r)(v_l (x) v_r) = (u_l v_l) (x) (u_r v_r): the copies of each factor
    # component sum on their own, for any unitary W of the factors
    left, right = DoubledDual(), Su2Dual()
    dual, rng = ProductDual(left, right), np.random.default_rng(4)
    ul, vl = _random_field(left, LABELS, rng), _random_field(left, LABELS, rng)
    ur, vr = (_random_field(right, [Su2Spin(0), Su2Spin(1)], rng) for _ in range(2))

    def tensor(f, g):
        return OperatorField.from_terms(dual, {ProductLabel(a, b): np.kron(M, N)
                                               for a, M in f.coeffs.items() for b, N in g.coeffs.items()})

    want = tensor(multiply(ul, vl), multiply(ur, vr))
    _assert_equal_fields(multiply(tensor(ul, ur), tensor(vl, vr)), want.coeffs)
