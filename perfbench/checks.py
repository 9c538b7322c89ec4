"""Closed forms and independent evaluators that the benchmark checks bfw against.

Nothing here imports bfw.  Representations are rebuilt from the conventions
the bfw README documents (orthonormalized monomial basis for SU(2), diagonal
torus characters, the swap matrix for the flip of T x| Z2), and special
functions come from SciPy.  Every check raises :class:`CheckFailed` with a
message naming the quantity and both values.
"""

from __future__ import annotations

import math

import numpy as np

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class CheckFailed(Exception):
    """An output of the program disagrees with its closed form."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got: float, want: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    """|got - want| <= rel * |want| + abs_tol, with NaN never close."""
    diff = abs(got - want)
    expect(diff <= rel * abs(want) + abs_tol, f"{what}: got {got!r}, want {want!r} (diff {diff:.3e})")


# ---------------------------------------------------------------------------
# labels, word lengths, weights
# ---------------------------------------------------------------------------

def parse(label: str):
    """('su2', n) | ('t', mu) | ('triv',) | ('sgn',) | ('pi', m) | ('x', left, right).

    SU(2)/SO(3) and T x| Z2 share the ``pi:n`` form; the group decides."""
    if "×" in label:
        left, right = label.split("×", 1)
        return ("x", parse(left), parse(right))
    if label.startswith("t:("):
        body = label[3:-1]
        return ("t", tuple(int(x) for x in body.split(",")))
    if label in ("triv", "sgn"):
        return (label,)
    if label.startswith("pi:"):
        return ("pi", int(label[3:]))
    raise ValueError(f"unknown label {label!r}")


def _family(group: str) -> str:
    return "torus" if group.startswith("torus:") else group


def dim(group: str, label: str) -> int:
    p = parse(label)
    if p[0] == "x":
        left, right = _prod_parts(group)
        a, b = label.split("×", 1)
        return dim(left, a) * dim(right, b)
    fam = _family(group)
    if fam in ("su2", "so3"):
        return p[1] + 1
    if fam == "txz2":
        return 2 if p[0] == "pi" else 1
    return 1


def word_length(group: str, label: str) -> int:
    p = parse(label)
    if p[0] == "x":
        left, right = _prod_parts(group)
        a, b = label.split("×", 1)
        return word_length(left, a) + word_length(right, b)
    fam = _family(group)
    if fam == "su2":
        return p[1]
    if fam == "so3":
        return p[1] // 2
    if fam == "txz2":
        return {"triv": 0, "sgn": 2}.get(p[0], p[-1])
    return sum(abs(m) for m in p[1])


def weight(group: str, recipe: str, label: str) -> float:
    """The built-in recipes const:C, dim, poly:alpha=A, exp:lambda=L."""
    wl = word_length(group, label)
    if recipe.startswith("const:"):
        return float(recipe[6:])
    if recipe == "dim":
        return float(dim(group, label))
    if recipe.startswith("poly:alpha="):
        return (1.0 + wl) ** float(recipe[11:])
    if recipe.startswith("exp:lambda="):
        return float(recipe[11:]) ** wl
    raise ValueError(f"no closed form for recipe {recipe!r}")


def _prod_parts(group: str) -> tuple[str, str]:
    inner = group[5:-1]
    depth = 0
    for i, ch in enumerate(inner):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            return inner[:i], inner[i + 1:]
    raise ValueError(group)


# ---------------------------------------------------------------------------
# representations and evaluation
# ---------------------------------------------------------------------------

def su2_rep(n: int, g: np.ndarray) -> np.ndarray:
    """Spin-n/2 matrix at any 2x2 g by expanding (g00 x + g10 y)^(n-l) (g01 x + g11 y)^l.

    Column l holds the monomial coefficients of the image of x^(n-l) y^l,
    rescaled to the orthonormal basis sqrt(C(n,k)) x^(n-k) y^k."""
    g = np.asarray(g, dtype=complex)
    M = np.empty((n + 1, n + 1), dtype=complex)
    for col in range(n + 1):
        p = np.ones(1, dtype=complex)
        for _ in range(n - col):
            p = np.convolve(p, [g[0, 0], g[1, 0]])
        for _ in range(col):
            p = np.convolve(p, [g[0, 1], g[1, 1]])
        M[:, col] = p
    c = np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])
    return M * c[None, :] / c[:, None]


def haar_su2(rng) -> np.ndarray:
    """Haar-random SU(2) element from a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, -c + 1j * d], [c + 1j * d, a - 1j * b]])


def random_point(group: str, rng):
    fam = _family(group)
    if group.startswith("prod("):
        left, right = _prod_parts(group)
        return (random_point(left, rng), random_point(right, rng))
    if fam in ("su2", "so3"):
        return haar_su2(rng)
    if fam == "txz2":
        return (float(rng.uniform(0.0, 2.0 * np.pi)), bool(rng.integers(2)))
    return rng.uniform(0.0, 2.0 * np.pi, size=int(group.split(":")[1]))


def rep(group: str, label: str, point) -> np.ndarray:
    if group.startswith("prod("):
        left, right = _prod_parts(group)
        a, b = label.split("×", 1)
        return np.kron(rep(left, a, point[0]), rep(right, b, point[1]))
    p = parse(label)
    fam = _family(group)
    if fam in ("su2", "so3"):
        return su2_rep(p[1], point)
    if fam == "txz2":
        theta, flip = point
        if p[0] == "triv":
            return np.ones((1, 1), dtype=complex)
        if p[0] == "sgn":
            return np.full((1, 1), -1.0 if flip else 1.0, dtype=complex)
        z = np.exp(1j * p[1] * theta)
        M = np.diag([z, np.conj(z)])
        return M @ SWAP if flip else M
    return np.array([[np.exp(1j * float(np.dot(p[1], point)))]])


def evaluate(group: str, terms: dict, point) -> complex:
    """u(s) = sum d Tr(u^(pi) pi(s)) over terms {label string: matrix}."""
    return sum(
        dim(group, a) * complex(np.trace(np.asarray(M) @ rep(group, a, point)))
        for a, M in terms.items()
    )


def norm_a(group: str, terms: dict, recipe: str) -> float:
    """Weighted trace norm sum ||u^(pi)||_1 d w(pi), singular values from numpy."""
    return float(
        sum(
            np.sum(np.linalg.svd(np.asarray(M), compute_uv=False)) * dim(group, a) * weight(group, recipe, a)
            for a, M in terms.items()
        )
    )


def max_abs_diff(x: dict, y: dict) -> float:
    out = 0.0
    for a in set(x) | set(y):
        Mx, My = x.get(a), y.get(a)
        if Mx is None:
            Mx = np.zeros_like(My)
        if My is None:
            My = np.zeros_like(Mx)
        out = max(out, float(np.max(np.abs(np.asarray(Mx) - np.asarray(My)))))
    return out


def scale_of(terms: dict) -> float:
    return max((float(np.max(np.abs(M))) for M in terms.values()), default=0.0)


def check_product_identity(group: str, u: dict, v: dict, uv: dict, rng, points: int = 4, tol: float = 2e-13) -> None:
    """(uv)(s) = u(s) v(s) at random points, to ``tol`` times ||u||_A ||v||_A.

    The bound dominates |u(s) v(s)|; rounding in the own representations
    stays below 3e-14 of it up to spin 32, and a product off by a factor
    (1 + 1e-9) moves some point by more than the tolerance."""
    bound = norm_a(group, u, "const:1") * norm_a(group, v, "const:1")
    for _ in range(points):
        s = random_point(group, rng)
        lhs = evaluate(group, uv, s)
        rhs = evaluate(group, u, s) * evaluate(group, v, s)
        expect(abs(lhs - rhs) <= tol * bound,
               f"{group} product at a point: {lhs!r} vs u(s)v(s) = {rhs!r} (bound {bound:.3e})")


# ---------------------------------------------------------------------------
# fusion rules
# ---------------------------------------------------------------------------

def su2_character_product(a: int, b: int) -> dict:
    """chi_a chi_b = sum of chi_s over s = |a-b|, |a-b|+2, ..., a+b (Clebsch-Gordan)."""
    return {f"pi:{s}": np.eye(s + 1) / (s + 1) for s in range(abs(a - b), a + b + 1, 2)}


def txz2_character_product(m: int, n: int) -> dict:
    """pi_m (x) pi_n = pi_{m+n} + pi_{|m-n|}, and pi_m (x) pi_m = pi_{2m} + triv + sgn."""
    out = {f"pi:{m + n}": np.eye(2) / 2}
    if m == n:
        out["triv"] = np.ones((1, 1))
        out["sgn"] = np.ones((1, 1))
    else:
        out[f"pi:{abs(m - n)}"] = np.eye(2) / 2
    return out


# ---------------------------------------------------------------------------
# growth, spectrum, derivations, membership
# ---------------------------------------------------------------------------

def poly_slope_radius(n_max: int, alpha: float) -> float:
    """Windowed slope of (1 + k)^alpha between h = n_max // 2 and n_max."""
    h = n_max // 2
    return ((1.0 + n_max) / (1.0 + h)) ** (alpha / (n_max - h))


def poly_running_inf(n_max: int, alpha: float) -> float:
    """inf over k <= n_max of (1 + k)^(alpha / k), attained at k = n_max."""
    return (1.0 + n_max) ** (alpha / n_max)


def derivation_scan(n: int, alpha: float, c: float) -> float:
    """sup_{k <= n} c k / (1 + k)^alpha, which is increasing in k for alpha <= 1."""
    return c * n / (1.0 + n) ** alpha


def membership_margin(lam: float, base: float, cutoff: int) -> tuple[float, int]:
    """max over n <= cutoff of (lam/base)^n: ||pi_n(s diag(lam, 1/lam))|| = lam^n."""
    if lam <= base:
        return 1.0, 0
    return (lam / base) ** cutoff, cutoff


# ---------------------------------------------------------------------------
# e^{itu}
# ---------------------------------------------------------------------------

def su2_exp_traces(t: float, n_max: int) -> np.ndarray:
    """Traces b_n of e^{it chi_1/2} = sum b_n chi_n: 2 i^n (n+1) J_{n+1}(t) / t."""
    from scipy.special import jv

    n = np.arange(n_max + 1)
    return 2.0 * (1j ** n) * (n + 1) * jv(n + 1, t) / t


def torus_exp_coeff(k: int, t: float) -> complex:
    """Jacobi-Anger: e^{2it cos x} = sum_k i^k J_k(2t) e^{ikx}."""
    from scipy.special import jv

    return (1j ** (k % 4)) * float(jv(k, 2.0 * t))


def bump(x, k: int):
    """C^k bump: 0 below 0.2 and above 1.8, 1 on [0.8, 1.2], regularized
    incomplete-beta ramps I_x(k+1, k+1) in between."""
    from scipy.special import betainc

    x = np.asarray(x, dtype=float)
    up = betainc(k + 1, k + 1, np.clip((x - 0.2) / 0.6, 0.0, 1.0))
    down = betainc(k + 1, k + 1, np.clip((1.8 - x) / 0.6, 0.0, 1.0))
    return np.where((x <= 0.2) | (x >= 1.8), 0.0, np.minimum(up, down))


def bump_dropped_mass(k: int, n_modes: int, period: float = 4.0, samples: int = 1 << 16) -> float:
    """l1 mass of the Fourier modes |m| > n_modes of the periodized bump."""
    xs = -period / 2.0 + period * np.arange(samples) / samples
    coefs = np.fft.fft(bump(xs, k)) / samples
    ms = np.fft.fftfreq(samples, 1.0 / samples)
    return float(np.sum(np.abs(coefs[np.abs(ms) > n_modes])))


def su2_central_values(traces: dict, angles: np.ndarray) -> np.ndarray:
    """sum_n tr(M_n) sin((n+1) theta) / sin(theta) for a central field."""
    vals = np.zeros(angles.shape, dtype=complex)
    s = np.sin(angles)
    for n, tr in traces.items():
        vals += tr * np.sin((n + 1) * angles) / s
    return vals
