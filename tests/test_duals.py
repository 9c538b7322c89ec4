"""Fusion rings, word lengths, branching, and group points.

The independent oracle for fusion multiplicities is character arithmetic:
m(sigma, a (x) b) is the Haar integral of chi_a chi_b conj(chi_sigma),
computed on an exact quadrature grid.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfw import (
    ProductDual,
    ProductLabel,
    SemidirectDual,
    SemidirectLabel,
    So3Dual,
    Su2Dual,
    Su2Spin,
    TorusChar,
    TorusDual,
    branch_su2_to_torus,
    so3_lift,
)
from bfw.duals import SemidirectPoint, parse_group
from bfw.errors import FamilyMismatchError
from bfw.labels import label_key, parse_label
import fuse_oracle
from walk_oracle import first_steps, step, supports


def character_fusion_oracle(dual, a, b, sigma):
    """Multiplicity of sigma in a (x) b from the character inner product."""
    degree = dual.word_length(a) + dual.word_length(b) + dual.word_length(sigma)
    pts, wts = dual.haar_grid(degree + 2)
    total = 0.0 + 0.0j
    for p, w in zip(pts, wts):
        val = (
            np.trace(dual.rep(a, p))
            * np.trace(dual.rep(b, p))
            * np.conj(np.trace(dual.rep(sigma, p)))
        )
        total += w * val
    return int(round(float(total.real)))


def fusion_matches_oracle(dual, a, b):
    table = dict(dual.fuse(a, b))
    # check every claimed component, and a few absent neighbours
    for sigma, m in table.items():
        assert character_fusion_oracle(dual, a, b, sigma) == m
    dim_sum = sum(m * dual.dim(s) for s, m in table.items())
    assert dim_sum == dual.dim(a) * dual.dim(b)


def test_su2_fusion_example(su2):
    assert dict(su2.fuse(Su2Spin(2), Su2Spin(3))) == {
        Su2Spin(1): 1,
        Su2Spin(3): 1,
        Su2Spin(5): 1,
    }
    fusion_matches_oracle(su2, Su2Spin(2), Su2Spin(3))


def test_identity_fusion(su2, sd, t2):
    for dual, a in [
        (su2, Su2Spin(4)),
        (sd, SemidirectLabel("pi", 3)),
        (t2, TorusChar((1, -1))),
    ]:
        assert dual.fuse(dual.trivial, a) == ((a, 1),)


def test_semidirect_square_fusion(sd):
    # the two-dimensional square: chi vanishes on flipped elements, so the
    # complement of pi_{2m} is trivial + sign, not trivial twice
    got = dict(sd.fuse(SemidirectLabel("pi", 2), SemidirectLabel("pi", 2)))
    assert got == {
        SemidirectLabel("pi", 4): 1,
        SemidirectLabel("triv"): 1,
        SemidirectLabel("sgn"): 1,
    }
    fusion_matches_oracle(sd, SemidirectLabel("pi", 2), SemidirectLabel("pi", 2))
    assert character_fusion_oracle(sd, SemidirectLabel("pi", 2), SemidirectLabel("pi", 2),
                                   SemidirectLabel("sgn")) == 1


def test_semidirect_fusion_table_oracle(sd):
    labels = sd.ball(4)
    for a in labels:
        for b in labels:
            fusion_matches_oracle(sd, a, b)


def test_family_mismatch(su2, sd):
    with pytest.raises(FamilyMismatchError):
        su2.fuse(Su2Spin(1), SemidirectLabel("pi", 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_su2_dim_consistency(n, m):
    su2 = Su2Dual()
    a, b = Su2Spin(n), Su2Spin(m)
    assert sum(mult * su2.dim(s) for s, mult in su2.fuse(a, b)) == su2.dim(a) * su2.dim(b)
    assert su2.fuse(a, b) == su2.fuse(b, a)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
       st.lists(st.integers(-6, 6), min_size=2, max_size=2))
def test_torus_fusion_group_law(mu, nu):
    t2 = TorusDual(2)
    a, b = TorusChar(tuple(mu)), TorusChar(tuple(nu))
    ((sigma, m),) = t2.fuse(a, b)
    assert m == 1 and sigma == TorusChar((mu[0] + nu[0], mu[1] + nu[1]))


def test_conjugation(su2, sd, t2):
    assert t2.conjugate(TorusChar((3, -2))) == TorusChar((-3, 2))
    assert su2.conjugate(Su2Spin(5)) == Su2Spin(5)
    assert sd.conjugate(SemidirectLabel("pi", 2)) == SemidirectLabel("pi", 2)
    # involution and compatibility with fusion
    a, b = Su2Spin(2), Su2Spin(3)
    lhs = {su2.conjugate(s): m for s, m in su2.fuse(a, b)}
    rhs = dict(su2.fuse(su2.conjugate(a), su2.conjugate(b)))
    assert lhs == rhs


def test_word_length(su2, t2, sd):
    assert su2.word_length(Su2Spin(0)) == 0
    for n in (1, 2, 7):
        assert su2.word_length(Su2Spin(n)) == n
    assert t2.word_length(TorusChar((3, -2))) == 5
    assert sd.word_length(SemidirectLabel("sgn")) == 2
    assert sd.word_length(SemidirectLabel("pi", 4)) == 4


def test_word_length_triangle(su2, sd):
    for dual, pairs in [
        (su2, [(Su2Spin(2), Su2Spin(5)), (Su2Spin(3), Su2Spin(3))]),
        (sd, [(SemidirectLabel("pi", 2), SemidirectLabel("pi", 2))]),
    ]:
        for a, b in pairs:
            for sigma, _ in dual.fuse(a, b):
                assert dual.word_length(sigma) <= dual.word_length(a) + dual.word_length(b)


def test_ball(su2, sd, t2, prod_dual):
    assert su2.ball(3) == tuple(Su2Spin(k) for k in range(4))
    assert len(t2.ball(10)) == 221  # l1 ball of radius 10 in Z^2
    assert SemidirectLabel("sgn") in sd.ball(2)
    assert SemidirectLabel("sgn") not in sd.ball(1)
    ball = prod_dual.ball(2)
    assert ProductLabel(Su2Spin(1), TorusChar((1,))) in ball
    assert ProductLabel(Su2Spin(2), TorusChar((1,))) not in ball


def test_branching(su2, t1):
    got = branch_su2_to_torus(Su2Spin(2))
    assert got == ((TorusChar((2,)), 1), (TorusChar((0,)), 1), (TorusChar((-2,)), 1)) or (
        dict(got) == {TorusChar((k,)): 1 for k in (-2, 0, 2)}
    )
    assert dict(branch_su2_to_torus(Su2Spin(0))) == {TorusChar((0,)): 1}
    assert dict(branch_su2_to_torus(Su2Spin(1))) == {TorusChar((-1,)): 1, TorusChar((1,)): 1}
    # oracle: restrict the character to the diagonal torus and extract modes
    n = 3
    thetas = 2 * np.pi * np.arange(16) / 16
    char = np.array(
        [np.trace(su2.rep(Su2Spin(n), np.diag([np.exp(1j * t), np.exp(-1j * t)]))) for t in thetas]
    )
    for k in range(-n, n + 1):
        mode = np.mean(char * np.exp(-1j * k * thetas))
        expected = 1.0 if (abs(k) <= n and (n - k) % 2 == 0) else 0.0
        assert abs(mode - expected) < 1e-12


def test_quotient_lift():
    assert so3_lift(0) == Su2Spin(0)
    assert so3_lift(1) == Su2Spin(2)
    assert so3_lift(3) == Su2Spin(6)
    # oracle: lifted labels are exactly those trivial on the double-cover kernel
    su2 = Su2Dual()
    minus = -np.eye(2, dtype=complex)
    for n in range(7):
        central = su2.rep(Su2Spin(n), minus)
        trivial_on_center = np.allclose(central, np.eye(n + 1))
        assert trivial_on_center == (n % 2 == 0)


def test_points(su2, sd, t2, rng):
    for dual in (su2, sd, t2):
        e = dual.identity()
        s = dual.random_point(rng)
        t = dual.random_point(rng)
        a = dual.generators()[0]
        assert np.allclose(dual.rep(a, dual.point_mul(s, dual.point_inv(s))),
                           dual.rep(a, e), atol=1e-12)
        assert np.allclose(
            dual.rep(a, dual.point_mul(s, t)), dual.rep(a, s) @ dual.rep(a, t), atol=1e-12
        )
    g = su2.random_point(rng)
    assert abs(np.linalg.det(g) - 1.0) < 1e-12
    assert np.max(np.abs(g @ g.conj().T - np.eye(2))) < 1e-12


def test_semidirect_rep_formulas(sd):
    p = SemidirectPoint(0.7, False)
    q = SemidirectPoint(0.7, True)
    lab = SemidirectLabel("pi", 2)
    z = np.exp(1.4j)
    assert np.allclose(sd.rep(lab, p), np.diag([z, np.conj(z)]))
    assert np.allclose(sd.rep(lab, q), np.array([[0, z], [np.conj(z), 0]]))
    assert np.trace(sd.rep(lab, q)) == 0  # characters vanish off the circle
    assert sd.rep(SemidirectLabel("sgn"), q)[0, 0] == -1


def test_product_dual(prod_dual, rng):
    a = ProductLabel(Su2Spin(1), TorusChar((1,)))
    b = ProductLabel(Su2Spin(1), TorusChar((-2,)))
    assert prod_dual.dim(a) == 2
    table = dict(prod_dual.fuse(a, b))
    assert table == {
        ProductLabel(Su2Spin(0), TorusChar((-1,))): 1,
        ProductLabel(Su2Spin(2), TorusChar((-1,))): 1,
    }
    dim_sum = sum(m * prod_dual.dim(s) for s, m in table.items())
    assert dim_sum == prod_dual.dim(a) * prod_dual.dim(b)
    s = prod_dual.random_point(rng)
    t = prod_dual.random_point(rng)
    assert np.allclose(
        prod_dual.rep(a, prod_dual.point_mul(s, t)),
        prod_dual.rep(a, s) @ prod_dual.rep(a, t),
        atol=1e-12,
    )


# --- coordinate rows against the label-by-label walk (walk_oracle) ----------

# (group, generating set): one or several generators, negative and mixed
# torus characters, every T x| Z2 kind, products of each family
LATTICE_CASES = [
    ("su2", ["pi:1"]),
    ("su2", ["pi:3"]),
    ("su2", ["pi:1", "pi:2"]),
    ("so3", ["pi:2"]),
    ("so3", ["pi:2", "pi:4"]),
    ("torus:1", ["t:(-2)"]),
    ("torus:1", ["t:(1)", "t:(-1)"]),
    ("torus:2", ["t:(1,-2)"]),
    ("torus:2", ["t:(1,-2)", "t:(0,1)"]),
    ("torus:3", ["t:(1,0,-1)", "t:(0,-1,0)"]),
    ("txz2", ["pi:1"]),
    ("txz2", ["pi:3"]),
    ("txz2", ["sgn"]),
    ("txz2", ["pi:2", "sgn"]),
    ("txz2", ["triv", "pi:2"]),
    ("prod(su2,torus:1)", ["pi:1×t:(0)", "pi:0×t:(-1)"]),
    ("prod(txz2,su2)", ["pi:2×pi:1"]),
    ("prod(txz2,su2)", ["sgn×pi:0", "pi:1×pi:2"]),
    ("prod(so3,torus:2)", ["pi:2×t:(1,-1)", "pi:0×t:(0,1)"]),
    ("prod(txz2,txz2)", ["sgn×triv", "triv×sgn"]),
    ("torus:2", ["t:(1,0)", "t:(-1,0)"]),
]


def _case(group, gens):
    dual = parse_group(group)
    return dual, tuple(parse_label(dual, g) for g in gens)


def _word_length_oracle(dual, a, S, cap):
    """The first k <= cap at which a fresh walk over S (walk_oracle.step) reaches
    a, or None: also once a step k > 1 reaches no label the walk had not,
    since then no later step does."""
    if a == dual.trivial:
        return 0
    seen = supp = frozenset([dual.trivial])
    for k in range(1, cap + 1):
        supp = step(dual, supp, S)
        if a in supp:
            return k
        if not supp - seen and k > 1:
            return None
        seen = seen | supp
    return None


def test_lattice_coords_round_trip():
    for group, _ in LATTICE_CASES:
        dual = parse_group(group)
        for a in dual.ball(5):
            assert dual.label_at(dual.coords(a)) == a


@pytest.mark.parametrize("group,gens", LATTICE_CASES)
def test_tensor_power_support_matches_oracle(group, gens):
    # supports stepped as coordinate rows through fusion_table (every row times
    # every generator, then the distinct sigma rows) equal the walk's, 12 steps
    # out: labels beyond the pairs of ball(12) that test_fusion_table_equals_fuse reads
    dual, S = _case(group, gens)
    g = np.array([dual.coords(s) for s in S], dtype=np.int64)
    c = np.array([dual.coords(dual.trivial)], dtype=np.int64)
    for k, want in enumerate(itertools.islice(supports(dual, S), 13)):
        assert {dual.label_at(row) for row in c.tolist()} == want, k
        _, sigma, _ = dual.fusion_table(np.repeat(c, len(g), axis=0), np.tile(g, (len(c), 1)))
        c = np.unique(sigma, axis=0)


@pytest.mark.parametrize("group,gens", LATTICE_CASES)
def test_ball_and_word_length_match_oracle(group, gens):
    # the one-pass walk's word lengths equal a fresh walk per label; labels
    # that S does not generate (e.g. pi:1 over {sgn}) are absent from both
    dual, S = _case(group, gens)
    first = first_steps(dual, S, 16)
    for a in dual.ball(3):
        assert first.get(a) == _word_length_oracle(dual, a, S, 16)


# one generator per case: every period (0, 1, 2), zero characters, mixed
# periods in products, translations on either side and nested products
REACH_CASES = [
    ("su2", "pi:0"), ("su2", "pi:1"), ("su2", "pi:2"), ("su2", "pi:3"),
    ("so3", "pi:2"), ("so3", "pi:6"),
    ("txz2", "pi:1"), ("txz2", "pi:2"), ("txz2", "sgn"), ("txz2", "triv"),
    ("torus:1", "t:(0)"), ("torus:1", "t:(-1)"), ("torus:2", "t:(0,0)"), ("torus:2", "t:(1,-2)"),
    ("torus:3", "t:(0,0,0)"), ("torus:3", "t:(2,-1,1)"),
    ("prod(su2,su2)", "pi:1×pi:2"),
    ("prod(txz2,txz2)", "pi:1×sgn"),
    ("prod(prod(su2,txz2),torus:1)", "(pi:1×pi:2)×t:(1)"),
    ("prod(torus:1,su2)", "t:(-1)×pi:1"),
    ("prod(su2,prod(torus:1,su2))", "pi:1×(t:(1)×pi:2)"),
    ("prod(torus:1,torus:2)", "t:(1)×t:(0,-1)"),
]


@pytest.mark.parametrize("group,probe", REACH_CASES)
def test_reach_table_equals_tensor_power_support(group, probe):
    # a row lies in S_k exactly when k >= first and p | k - first (p >= 1), or k = first (p = 0)
    dual = parse_group(group)
    s = parse_label(dual, probe)
    coords, first, p = dual.reach_table(s, 40, 10**9, 0)
    assert coords.dtype == first.dtype == np.int64 and coords.shape == (len(first), dual.lattice_rank)
    rows = [(f, *c) for f, c in zip(first.tolist(), coords.tolist())]
    assert rows == sorted(set(rows)) and len({r[1:] for r in rows}) == len(rows)
    assert p in (0, 1, 2)
    for k, want in enumerate(itertools.islice(supports(dual, (s,)), 1, 41), start=1):
        at = (k >= first) & ((k - first) % p == 0) if p else first == k
        assert {dual.label_at(c) for c in coords[at].tolist()} == want, k


@pytest.mark.parametrize("group,probe,cap", [
    ("su2", "pi:1000", 5), ("su2", "pi:3", 0), ("so3", "pi:2", 40),
    ("prod(su2,su2)", "pi:1×pi:2", 40), ("prod(su2,torus:1)", "pi:1×t:(1)", 4),
])
def test_reach_table_ends_at_cap(group, probe, cap):
    # however far n is, a table goes at most two steps past the first support
    # of more than cap labels
    dual = parse_group(group)
    s = parse_label(dual, probe)
    k = next(k for k, supp in enumerate(supports(dual, (s,))) if k and len(supp) > cap)
    assert dual.reach_table(s, 10**4, cap, 0)[1].max() <= k + 2


# every family, products in both orders and a nested product, to the largest
# radius (9 on rank-3 lattices)
BALL_CASES = [
    ("su2", 12), ("so3", 12), ("txz2", 12), ("torus:1", 12), ("torus:2", 12), ("torus:3", 9),
    ("prod(su2,torus:1)", 12), ("prod(txz2,so3)", 12), ("prod(so3,txz2)", 12),
    ("prod(prod(su2,txz2),torus:1)", 12),
]


def _box_axes(dual, r):
    """Per coordinate, a range holding that coordinate of every label of ball(r)."""
    if isinstance(dual, ProductDual):
        return _box_axes(dual.left, r) + _box_axes(dual.right, r)
    if isinstance(dual, TorusDual):
        return [range(-r, r + 1)] * dual.n
    if isinstance(dual, So3Dual):
        return [range(2 * r + 1)]  # spin 2m has word length m
    if isinstance(dual, SemidirectDual):
        return [range(r + 2)]  # pi_m at m + 1
    return [range(r + 1)]


@pytest.mark.parametrize("group,radius", BALL_CASES)
def test_ball_equals_sorted_box_labels(group, radius):
    # the oracle is the label sort the lexsort of ball_coords replaced: every
    # label the family contains in a coordinate box with word length <= r,
    # sorted by label_key
    dual = parse_group(group)
    for r in range(radius + 1):
        box = np.array(list(itertools.product(*_box_axes(dual, r))), dtype=np.int64)
        labels = [dual.label_at(c) for c in box.tolist()]
        inside = [dual.contains(a) for a in labels]  # no odd spin on an SO(3) axis
        assert dual.contains_at(box).tolist() == inside
        want = tuple(sorted((a for a, ok in zip(labels, inside) if ok and dual.word_length(a) <= r), key=label_key))
        coords = dual.ball_coords(r)
        assert coords.dtype == np.int64 and coords.shape == (len(want), dual.lattice_rank)
        assert [dual.label_at(c) for c in coords.tolist()] == list(want)
        assert dual.ball(r) == want
    with pytest.raises(ValueError, match="ball radius must be >= 0, got -1"):
        dual.ball_coords(-1)


# every family, products in both orders and one nested product.  torus:3 and
# the nested product pair ball(12) with ball(2) only, in both orders: all
# pairs of their ball(12) take about a minute through the label rules.
FUSION_TABLE_CASES = [
    ("su2", 12), ("so3", 12), ("txz2", 12), ("torus:1", 12), ("torus:2", 12), ("torus:3", 2),
    ("prod(su2,torus:1)", 12), ("prod(torus:1,su2)", 12), ("prod(txz2,so3)", 12), ("prod(so3,txz2)", 12),
    ("prod(prod(su2,txz2),torus:1)", 2),
]


@pytest.mark.parametrize("group,small", FUSION_TABLE_CASES)
def test_fusion_table_equals_fuse(group, small):
    # labels, order and multiplicity of every pair (a, b), a in ball(12) and b in
    # ball(small), against the label rules of fuse_oracle: the whole table, and
    # fuse, its one-pair view, with its Python-int multiplicities
    dual = parse_group(group)
    big, few = dual.ball(12), dual.ball(small)
    pairs = [(a, b) for a in big for b in few]
    if small < 12:
        pairs += [(b, a) for a, b in pairs]
    want = [fuse_oracle.fuse(dual, a, b) for a, b in pairs]
    ca, cb = (np.array([dual.coords(p[k]) for p in pairs], dtype=np.int64) for k in (0, 1))
    pair, sigma, mult = dual.fusion_table(ca, cb)
    assert pair.dtype == sigma.dtype == mult.dtype == np.int64 and sigma.shape == (len(pair), dual.lattice_rank)
    got = list(zip(pair.tolist(), map(dual.label_at, sigma.tolist()), mult.tolist()))
    assert got == [(i, s, m) for i, w in enumerate(want) for s, m in w]
    views = [dual.fuse(a, b) for a, b in pairs]
    assert views == want
    assert all(type(m) is int for view in views for _, m in view)


@pytest.mark.parametrize("group", [group for group, _ in FUSION_TABLE_CASES])
def test_empty_generating_set(group):
    # no generator: a step reaches no label, so only the trivial label has a word length
    dual = parse_group(group)
    assert dual.support_step(frozenset(dual.ball(2)), ()) == frozenset()
    assert first_steps(dual, (), 10) == {dual.trivial: 0}


def test_lattice_foreign_generator(su2, t1):
    with pytest.raises(FamilyMismatchError):
        su2.support_step(frozenset([Su2Spin(1)]), (TorusChar((1,)),))
    with pytest.raises(FamilyMismatchError):
        t1.power_maxima(Su2Spin(1), 4, lambda c: np.zeros(len(c)), 100)


# groups and largest radius of the default-rule checks: every family, products
# in both orders and one nested product
DEFAULT_RULE_CASES = [
    ("su2", 12), ("so3", 12), ("txz2", 12), ("torus:1", 12), ("torus:2", 9), ("torus:3", 9),
    ("prod(su2,torus:1)", 12), ("prod(txz2,so3)", 12), ("prod(so3,txz2)", 12),
    ("prod(torus:1,torus:2)", 9), ("prod(prod(su2,txz2),torus:1)", 12),
]


@pytest.mark.parametrize("group,radius", DEFAULT_RULE_CASES)
def test_default_ball_and_word_length_equal_generator_walk(group, radius):
    # the walk over the generators is the oracle of the per-family rule
    dual = parse_group(group)
    first = first_steps(dual, dual.generators(), radius)
    for r in range(radius + 1):
        assert dual.ball(r) == tuple(sorted((a for a, k in first.items() if k <= r), key=label_key))
    labels = dual.ball(radius)
    walk = [first[a] for a in labels]
    assert [dual.word_length(a) for a in labels] == walk
    assert dual.word_lengths_at(dual.ball_coords(radius)).tolist() == walk


@pytest.mark.parametrize("group", [group for group, _ in DEFAULT_RULE_CASES])
def test_per_label_word_length_reads_no_arrays(group, monkeypatch):
    from bfw import make_weight
    from bfw.duals import GroupDual

    dual = parse_group(group)
    labels = dual.ball(4)

    def no_arrays(self, c):
        raise AssertionError("per-label word length went through word_lengths_at")

    monkeypatch.setattr(GroupDual, "word_lengths_at", no_arrays)
    w = make_weight(dual, "poly:alpha=1")
    for a in labels:
        n = dual.word_length(a)
        assert type(n) is int
        assert w(a) == 1.0 + n


def test_negative_radius_and_coordinate_rejected(su2, sd):
    for dual in (su2, sd, parse_group("prod(su2,torus:1)")):
        with pytest.raises(ValueError, match="radius"):
            dual.ball(-3)
    for c in ([-1], [-5]):
        with pytest.raises(ValueError):
            sd.label_at(c)


def test_product_group_needs_two_factors():
    assert parse_group(" prod(prod(su2,txz2), torus:1) ") == parse_group("prod(prod(su2,txz2),torus:1)")
    for token in ("prod(su2,torus:1,so3)", "prod(su2)", "prod(prod(su2,so3,txz2),su2)"):
        with pytest.raises(ValueError, match="bad product group"):
            parse_group(token)
