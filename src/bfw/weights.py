"""Weights on dual objects: construction, validation, and growth analysis.

A weight is a positive function w on the labels with w(sigma) <= w(a) w(b)
whenever sigma occurs in the fusion of a and b.  Built-in recipes:

    const:C          constant C >= 1
    dim              dimension of the label
    poly:alpha=A     (1 + word length)^A, A > 0, over the default generators
    exp:lambda=L     L^(word length); on the torus per-axis L_j^|mu_j|, L >= 1
    prod(R1,R2)      product of two recipes
    pow(R,A)         pointwise power, A >= 1

plus a JSON-only ``table`` recipe that overrides individual labels of a base
recipe (handy for fabricating invalid weights in diagnostics).  Evaluations
are not memoized; each pass over labels evaluates each label once.  All
built-ins are symmetric on the supported families and nondecreasing in the
SU(2) spin index, which the restriction weight uses as its exactness
certificate.

Growth scans read log w on arrays of lattice coordinates
(:meth:`Weight.log_values`).  Each recipe evaluates them in bulk, calling
``math`` once per distinct integer, since NumPy's vectorized ``log`` and
``log1p`` differ from ``math``'s in the last bit on some integers; the rest is
elementwise IEEE arithmetic in the order of the per-label formula.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .duals import _BLOCK_ROWS, GroupDual, So3Dual, Su2Dual, TorusDual, _runs, so3_lift
from .errors import UnsupportedBranchingError, WeightOverflowError, WeightSpecError
from .labels import IrrepLabel, Su2Spin, format_label, parse_label, split_top

__all__ = [
    "Weight",
    "WeightReport",
    "GrowthCertificate",
    "GrowthClassification",
    "make_weight",
    "weight_from_json",
    "weight_to_json",
    "validate",
    "growth_rate",
    "classify_growth",
    "restrict_weight",
    "quotient_weight",
    "EPS_CLASS",
]

EPS_CLASS = 1e-3  # growth-classification threshold on the estimated rate
LABEL_CAP = 200_000  # the largest tensor-power support a growth certificate steps through


@dataclass(frozen=True)
class Weight:
    """Positive evaluable function on the labels of one dual object."""

    dual: GroupDual
    fn: object
    descriptor: str
    symmetric: bool = True
    su2_monotone: bool = False  # nondecreasing in the Su2Spin index
    warnings: tuple[str, ...] = ()
    log_array: object = None  # coords -> log w in bulk; None reads fn label by label
    recipe: dict | None = field(default=None, repr=False, compare=False)  # make_weight's spec

    def __call__(self, a: IrrepLabel) -> float:
        try:
            v = float(self.fn(a))
        except OverflowError:
            v = math.inf
        if math.isinf(v):
            raise WeightOverflowError(f"weight {self.descriptor} overflows at {format_label(a)}")
        if not v > 0.0:
            raise WeightSpecError(f"weight {self.descriptor} is {v} at {format_label(a)}")
        return v

    def log_values(self, coords) -> np.ndarray:
        """log w at the labels whose lattice coordinates (:meth:`GroupDual.coords`)
        are the rows of the (k, r) int64 array coords, as k floats.

        Exponential recipes overflow plain evaluation long before the growth
        scans finish, so scans use this.  A log weight that is not finite
        raises :class:`WeightOverflowError`.
        """
        c = np.asarray(coords, dtype=np.int64).reshape(-1, self.dual.lattice_rank)
        if self.log_array is None:
            return np.array([math.log(self(self.dual.label_at(p))) for p in c.tolist()], dtype=float)
        with np.errstate(over="ignore"):  # an overflow is the inf caught below
            out = self.log_array(c)
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            a = self.dual.label_at(c[bad[0]].tolist())
            raise WeightOverflowError(f"log of weight {self.descriptor} overflows at {format_label(a)}")
        return out

    def log_value(self, a: IrrepLabel) -> float:
        """log w(a): :meth:`log_values` of one label."""
        return float(self.log_values([self.dual.coords(a)])[0])


@dataclass(frozen=True)
class WeightReport:
    passed: bool
    max_violation: float  # worst relative excess of w(sigma) over w(a) w(b)
    witness: tuple[str, str, str] | None
    witness_values: tuple[float, float, float] | None
    symmetry_residual: float
    infimum: float
    depth: int
    tol: float

    def to_json(self):
        return {
            "passed": self.passed,
            "max_violation": self.max_violation,
            "witness": list(self.witness) if self.witness else None,
            "witness_values": list(self.witness_values) if self.witness_values else None,
            "symmetry_residual": self.symmetry_residual,
            "infimum": self.infimum,
            "depth": self.depth,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class GrowthCertificate:
    """Trace of w(pi^(x n))^(1/n) with its running infimum and a windowed
    rate estimate; the running infimum is a monotone upper bound of the rate,
    the window slope converges to it from both sides."""

    label: IrrepLabel
    seq: tuple[tuple[int, float], ...]
    rho_hat: float
    rho_slope: float
    tag: str  # "nonexponential-evidence" | "exponential-witness"
    n_max: int


@dataclass(frozen=True)
class GrowthClassification:
    kind: str  # "nonexponential-evidence" | "exponential-witness"
    witness: IrrepLabel | None
    rho: float
    certificates: tuple[GrowthCertificate, ...]


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

def _parse_spec(spec: str) -> dict:
    spec = spec.strip()
    if spec == "dim":
        return {"kind": "dim"}
    if spec.startswith("const:"):
        return {"kind": "const", "c": float(spec[6:])}
    if spec.startswith("poly:"):
        body = spec[5:]
        if not body.startswith("alpha="):
            raise WeightSpecError(f"poly recipe needs alpha=..., got {spec!r}")
        return {"kind": "poly", "alpha": float(body[6:])}
    if spec.startswith("exp:"):
        body = spec[4:]
        if not body.startswith("lambda="):
            raise WeightSpecError(f"exp recipe needs lambda=..., got {spec!r}")
        lam = [float(x) for x in body[7:].split(",")]
        return {"kind": "exp", "lam": lam}
    if spec.startswith("prod(") and spec.endswith(")"):
        args = split_top(spec[5:-1], ",")
        if len(args) != 2:
            raise WeightSpecError(f"prod takes two recipes, got {spec!r}")
        return {"kind": "prod", "factors": [_parse_spec(a) for a in args]}
    if spec.startswith("pow(") and spec.endswith(")"):
        args = split_top(spec[4:-1], ",")
        if len(args) != 2:
            raise WeightSpecError(f"pow takes a recipe and an exponent, got {spec!r}")
        return {"kind": "pow", "base": _parse_spec(args[0]), "alpha": float(args[1])}
    raise WeightSpecError(f"cannot parse weight recipe {spec!r}")


def _finite(kind: str, name: str, x) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        raise WeightSpecError(f"{kind} weight needs a number for {name}, got {x!r}") from None
    if not math.isfinite(x):
        raise WeightSpecError(f"{kind} weight needs a finite {name}, got {x}")
    return x


def _on_distinct(fn, ints: np.ndarray) -> np.ndarray:
    """fn, a ``math`` function, at each entry of an integer array, called once per distinct value."""
    # counts keep np.unique off its slower hash path; no inverse keeps it small
    values = np.unique(ints, return_counts=True)[0]
    return np.array([fn(v) for v in values.tolist()], dtype=float)[np.searchsorted(values, ints)]


def make_weight(dual: GroupDual, spec: str | dict) -> Weight:
    """Build a weight from a recipe string or its JSON dict form."""
    d = _parse_spec(spec) if isinstance(spec, str) else spec
    if not isinstance(d, dict):
        raise WeightSpecError(f"a weight is a recipe string or an object, got {spec!r}")
    return dataclasses.replace(_recipe_weight(dual, d), recipe=copy.deepcopy(d))


def _recipe_weight(dual: GroupDual, d: dict) -> Weight:
    kind = d.get("kind")
    if kind == "const":
        c = _finite(kind, "c", d["c"])
        if c < 1.0:
            raise WeightSpecError(f"const weight needs c >= 1, got {c}")
        log_c = math.log(c)
        return Weight(dual, lambda a: c, f"const:{d['c']:g}", su2_monotone=True,
                      log_array=lambda x: np.full(len(x), log_c))
    if kind == "dim":
        return Weight(dual, dual.dim, "dim", su2_monotone=True,
                      log_array=lambda x: _on_distinct(math.log, dual.dims_at(x)))
    if kind == "poly":
        alpha = _finite(kind, "alpha", d["alpha"])
        if alpha <= 0.0:
            raise WeightSpecError(f"poly weight needs alpha > 0, got {alpha}")
        return Weight(
            dual,
            lambda a: (1.0 + dual.word_length(a)) ** alpha,
            f"poly:alpha={d['alpha']:g}",
            su2_monotone=True,
            log_array=lambda x: alpha * _on_distinct(math.log1p, dual.word_lengths_at(x)),
        )
    if kind == "exp":
        if not isinstance(d["lam"], list):
            raise WeightSpecError(f"exp weight needs a list lam, got {d['lam']!r}")
        lam = [_finite(kind, "lambda", x) for x in d["lam"]]
        if any(x < 1.0 for x in lam):
            raise WeightSpecError(f"exp weight needs lambda >= 1, got {lam}")
        if isinstance(dual, TorusDual):
            if len(lam) == 1:
                lam = lam * dual.n
            if len(lam) != dual.n:
                raise WeightSpecError(
                    f"exp weight on rank-{dual.n} torus takes 1 or {dual.n} lambdas"
                )
            lam_t = tuple(lam)

            def fn(a, _l=lam_t):
                return math.prod(x ** abs(m) for x, m in zip(_l, a.mu))

            def log_array(x, _l=tuple(math.log(v) for v in lam_t)):
                out = np.zeros(len(x))  # axis by axis, as the sum over mu would add
                for j, log_lam in enumerate(_l):
                    out = out + np.abs(x[:, j]) * log_lam
                return out

        else:
            if len(lam) != 1:
                raise WeightSpecError("exp weight takes a single lambda on this family")
            base = lam[0]

            def fn(a, _b=base):
                return _b ** dual.word_length(a)

            def log_array(x, _l=math.log(base)):
                return dual.word_lengths_at(x) * _l

        descriptor = "exp:lambda=" + ",".join(f"{x:g}" for x in d["lam"])
        return Weight(dual, fn, descriptor, su2_monotone=True, log_array=log_array)
    if kind == "prod":
        if not isinstance(d["factors"], list) or len(d["factors"]) != 2:
            raise WeightSpecError(f"prod takes a list of two recipes, got {d['factors']!r}")
        f1, f2 = (make_weight(dual, f) for f in d["factors"])
        return Weight(
            dual,
            lambda a: f1(a) * f2(a),
            f"prod({f1.descriptor},{f2.descriptor})",
            symmetric=f1.symmetric and f2.symmetric,
            su2_monotone=f1.su2_monotone and f2.su2_monotone,
            log_array=lambda x: f1.log_values(x) + f2.log_values(x),
        )
    if kind == "pow":
        alpha = _finite(kind, "alpha", d["alpha"])
        if alpha < 1.0:
            raise WeightSpecError(f"pow weight needs alpha >= 1, got {alpha}")
        base = make_weight(dual, d["base"])
        return Weight(
            dual,
            lambda a: base(a) ** alpha,
            f"pow({base.descriptor},{alpha:g})",
            symmetric=base.symmetric,
            su2_monotone=base.su2_monotone,
            log_array=lambda x: alpha * base.log_values(x),
        )
    if kind == "table":
        base = make_weight(dual, d.get("base", {"kind": "const", "c": 1.0}))
        if not isinstance(d.get("entries", {}), dict):
            raise WeightSpecError(f"table entries must be an object, got {d['entries']!r}")
        entries = {
            parse_label(dual, k): _finite(kind, "entry", v) for k, v in d.get("entries", {}).items()
        }
        if any(v <= 0.0 for v in entries.values()):
            raise WeightSpecError("table weight entries must be positive")

        def fn(a, _e=entries, _b=base):
            return _e.get(a, _b(a))

        return Weight(dual, fn, "table(...)", symmetric=False)
    raise WeightSpecError(f"unknown recipe kind {kind!r}")


def weight_from_json(dual: GroupDual, data: str | dict) -> Weight:
    if isinstance(data, str):
        data = json.loads(data)
    return make_weight(dual, data)


def weight_to_json(w: Weight) -> dict:
    """The recipe make_weight built w from, as a JSON dict."""
    if w.recipe is None:
        raise WeightSpecError(f"weight {w.descriptor} was not built from a recipe")
    return copy.deepcopy(w.recipe)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(dual: GroupDual, w: Weight, depth: int = 12, tol: float = 1e-9) -> WeightReport:
    """Check the fusion inequality on all pairs of labels of word length <= depth.

    One pass over :meth:`GroupDual.fusion_table`, the family's one fusion
    rule, of the pairs (ball[i], ball[j]), i <= j, in that order, in blocks
    of whole i of at most ``_BLOCK_ROWS`` rows where one i allows.  w is
    called once per label, in the order the pairs first meet them: ball(depth) in order (ball[0] is
    trivial, and triv (x) b = b), then each new sigma in row order.  The
    excess w(sigma) / (w(a) w(b)) - 1.0 is elementwise IEEE arithmetic, and
    the witness is the first row attaining the worst excess, so the report
    equals that of a loop over the pairs through the per-label rules of
    ``tests/fuse_oracle.py`` (``tests/validate_oracle.py``).  So does the
    exception when the loop would raise: the error of the first label whose
    weight fails, or the ZeroDivisionError of an earlier pair whose bound
    w(a) w(b) underflows to 0.

    Failures are report contents, never exceptions.
    """
    coords = dual.ball_coords(depth)
    labels = tuple(map(dual.label_at, coords.tolist()))
    n = len(labels)
    known = {}  # coordinates -> w, for every label evaluated
    worst, witness, witness_vals = 0.0, None, None
    per_i = np.arange(n, 0, -1)  # the pairs (i, j >= i) of each i
    # a (x) b has at most the components of a (x) a, so this bounds the rows of each i
    rows = per_i * np.bincount(dual.fusion_table(coords, coords)[0], minlength=n)
    ends = np.cumsum(rows)
    i0 = 0
    while i0 < n:
        i1 = max(i0 + 1, int(np.searchsorted(ends, ends[i0] - rows[i0] + _BLOCK_ROWS, "right")))
        run, off = _runs(per_i[i0:i1])
        ia = i0 + run
        ib = ia + off
        pair, sigma, _ = dual.fusion_table(coords[ia], coords[ib])
        # the distinct sigma rows, valued in the order the rows first meet them
        lo = sigma.min(axis=0)
        key = np.ravel_multi_index(tuple((sigma - lo).T), tuple((sigma.max(axis=0) - lo + 1).tolist()))
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        vals, stop, err = np.empty(len(first)), len(pair), None
        for d in np.argsort(first).tolist():
            c = tuple(sigma[first[d]].tolist())
            if c not in known:
                try:
                    known[c] = w(dual.label_at(c))
                except (WeightOverflowError, WeightSpecError) as exc:
                    stop, err = first[d], exc
                    break
            vals[d] = known[c]
        va = np.array([known.get(c, np.nan) for c in map(tuple, coords.tolist())])
        with np.errstate(over="ignore"):  # an infinite bound gives the loop's excess -1.0
            bound = (va[ia] * va[ib])[pair]
            zero = np.flatnonzero(bound[:stop] == 0.0)
            if zero.size:  # the loop's float division by this bound raises first
                float(vals[inv[zero[0]]]) / float(bound[zero[0]])
            if err is not None:
                raise err
            excess = vals[inv] / bound - 1.0
        t = int(np.argmax(excess))
        if excess[t] > worst:
            worst = float(excess[t])
            p = pair[t]
            witness = (format_label(dual.label_at(sigma[t].tolist())), format_label(labels[ia[p]]),
                       format_label(labels[ib[p]]))
            witness_vals = (float(vals[inv[t]]), float(va[ia[p]]), float(va[ib[p]]))
        i0 = i1
    # the pairs (trivial, b) of the first block valued every label of the ball, each
    # conjugate among them, so va holds them all
    vals = va.tolist()
    conj = [known[tuple(dual.coords(dual.conjugate(a)))] for a in labels]
    sym = max(abs(x - v) / v for x, v in zip(conj, vals))
    inf = min(vals)
    passed = worst <= tol and (not w.symmetric or sym <= 1e-12)
    return WeightReport(passed, worst, witness, witness_vals, sym, inf, depth, tol)


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def _power_logs(dual, w, label, n_max):
    """log w of the k-fold tensor powers of the label, k = 1..n_max (max over
    support), and e to their windowed slope between n_max/2 and n_max.

    Raises WeightOverflowError when that exp or a root w^(1/k) = e^(log/k)
    overflows; exp is increasing, so a root overflows exactly when e to the
    largest log/k does.
    """
    logs = dual.power_maxima(label, n_max, w.log_values, LABEL_CAP)
    half = max(1, n_max // 2)
    slope = (logs[n_max - 1] - logs[half - 1]) / (n_max - half) if n_max > 1 else logs[0]
    try:
        math.exp(float(np.max(np.array(logs) / np.arange(1, n_max + 1))))
        rho_slope = math.exp(slope)
    except OverflowError:
        raise WeightOverflowError(
            f"growth rate of weight {w.descriptor} along {format_label(label)} overflows"
        ) from None
    return logs, rho_slope


def _certificate(dual, w, label, n_max):
    logs, rho_slope = _power_logs(dual, w, label, n_max)
    roots = [math.exp(lv / n) for n, lv in enumerate(logs, start=1)]
    seq = tuple(enumerate(roots, start=1))
    rho_hat = min(roots)
    tag = "nonexponential-evidence" if rho_slope <= 1.0 + EPS_CLASS else "exponential-witness"
    return GrowthCertificate(label, seq, rho_hat, rho_slope, tag, n_max)


def growth_rate(
    dual: GroupDual,
    w: Weight,
    label: IrrepLabel,
    n_max: int,
) -> GrowthCertificate:
    """Certificate for the limit of w(pi^(x n))^(1/n).

    The running infimum equals the limit for submultiplicative sequences; the
    windowed log-slope between n_max/2 and n_max converges to the same limit
    (squeezed between the infimum estimate and its reflection) and is what the
    classification tag uses, since the plain root converges only like
    log(n)/n for polynomial-type weights.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dual._check(label)
    return _certificate(dual, w, label, n_max)


def classify_growth(
    dual: GroupDual,
    w: Weight,
    S=None,
    n_max: int = 2048,
) -> GrowthClassification:
    """Evidence-level growth classification over a generating set."""
    S = tuple(S) if S is not None else dual.generators()
    certs = tuple(_certificate(dual, w, s, n_max) for s in S)
    for cert in certs:
        if cert.tag == "exponential-witness":
            return GrowthClassification("exponential-witness", cert.label, cert.rho_hat, certs)
    rho = max(cert.rho_hat for cert in certs)
    return GrowthClassification("nonexponential-evidence", None, rho, certs)


# ---------------------------------------------------------------------------
# restriction and quotient weights
# ---------------------------------------------------------------------------

def restrict_weight(w: Weight, cap: int = 512) -> Weight:
    """Weight on the diagonal torus of SU(2): the infimum of w over the spins
    whose restriction contains the character.

    The character mu is contained in the spins |mu|, |mu| + 2, ...  For
    recipes nondecreasing in the SU(2) index the infimum is attained at the
    smallest one and is exact; otherwise the scan truncates at ``cap`` and
    the result carries an inexact-infimum warning.
    """
    if not isinstance(w.dual, Su2Dual) or isinstance(w.dual, So3Dual):
        raise UnsupportedBranchingError("only the SU(2) > torus branching is supported")
    exact = w.su2_monotone
    warnings = () if exact else ("inexact-infimum: scan truncated, recipe not certified monotone",)

    @functools.cache
    def spins():  # w at the spins 0..cap, taken once on the first inexact evaluation
        return [w(Su2Spin(n)) for n in range(cap + 1)]

    def fn(sigma):
        k = abs(sigma.mu[0])
        if exact:
            return w(Su2Spin(k))
        return min(spins()[k::2], default=math.inf)

    return Weight(
        TorusDual(1),
        fn,
        f"restrict({w.descriptor})",
        symmetric=True,
        warnings=warnings,
    )


def quotient_weight(w: Weight) -> Weight:
    """Weight on the SO(3) dual: w pulled back through the covering map."""
    if not isinstance(w.dual, Su2Dual) or isinstance(w.dual, So3Dual):
        raise UnsupportedBranchingError("only the SU(2) -> SO(3) quotient is supported")

    return Weight(
        So3Dual(),
        lambda a: w(so3_lift(a.n // 2)),  # SO(3) label m is the spin 2m
        f"quotient({w.descriptor})",
        symmetric=w.symmetric,
        su2_monotone=w.su2_monotone,
    )
