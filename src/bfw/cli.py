"""Command-line surface.

Subcommands wrap the library operations with file I/O and fixed exit codes:

    0  success
    2  validation or verdict failure
    3  parse error (flags, recipes, element files)
    4  numeric failure (quadrature refinement, tail mass, a weight value
       that overflows, or a value out of floating-point range)

Reports embed the configuration that produced them; a fixed configuration
yields byte-identical output.  ``BFW_THREADS`` caps worker parallelism; the
numeric core is sequential and deterministic, so the cap is recorded in
reports but does not change results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import calculus, fields, serialize, spectrum, weights
from .duals import parse_group, group_token
from .errors import (
    BfwError,
    InsufficientCutoffError,
    QuadratureConvergenceError,
    WeightOverflowError,
    WeightSpecError,
)
from .labels import format_label, parse_label

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


class _CliParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliParseError(message)


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("BFW_THREADS", "1")))
    except ValueError:
        return 1


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_weight(dual, spec_or_path):
    if spec_or_path.startswith("{"):
        return weights.weight_from_json(dual, json.loads(spec_or_path))
    if spec_or_path.endswith(".json"):
        return weights.weight_from_json(dual, json.loads(Path(spec_or_path).read_text()))
    return weights.make_weight(dual, spec_or_path)


def _load_element(dual, spec_or_path):
    """Element mini-specs: char:LABEL, uchar:LABEL, cos:K, or a JSON path."""
    if spec_or_path.startswith("char:"):
        lab = parse_label(dual, _canonical_label_arg(dual, spec_or_path[5:]))
        return fields.character_field(dual, lab)
    if spec_or_path.startswith("uchar:"):
        lab = parse_label(dual, _canonical_label_arg(dual, spec_or_path[6:]))
        return fields.character_field(dual, lab) * (1.0 / dual.dim(lab))
    if spec_or_path.startswith("cos:"):
        k = int(spec_or_path[4:])
        plus = parse_label(dual, f"t:({k})")
        minus = parse_label(dual, f"t:({-k})")
        return fields.OperatorField.from_terms(
            dual, {plus: np.array([[1.0]]), minus: np.array([[1.0]])}
        )
    return serialize.element_from_json(json.loads(Path(spec_or_path).read_text()), dual)


def _canonical_label_arg(dual, s):
    # allow bare indices for the spin families: "1" -> "pi:1"
    if s.isdigit() and group_token(dual) in ("su2", "so3", "txz2"):
        return f"pi:{s}"
    return s


def _emit_report(args, payload) -> None:
    doc = {"config": _config_dict(args), "result": payload}
    _write(getattr(args, "out", None), serialize.dumps(doc))


def _config_dict(args):
    skip = {"func"}
    out = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    out["threads"] = _threads()
    return out


def _svg_polyline(xs, ys) -> str:
    """Minimal 480x320 SVG log-log plot: axes plus one polyline."""
    width, height, margin = 480, 320, 40
    lx, ly = np.log10(np.asarray(xs, float)), np.log10(np.asarray(ys, float))
    x0, x1 = float(lx.min()), float(lx.max() or 1.0)
    y0, y1 = float(ly.min()), float(ly.max() or 1.0)
    sx = lambda v: margin + (v - x0) / max(x1 - x0, 1e-12) * (width - 2 * margin)
    sy = lambda v: height - margin - (v - y0) / max(y1 - y0, 1e-12) * (height - 2 * margin)
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate_weight(args) -> int:
    dual = parse_group(args.group)
    w = _load_weight(dual, args.weight)
    report = weights.validate(dual, w, depth=args.depth, tol=args.tol)
    _emit_report(args, report.to_json())
    return EXIT_OK if report.passed else EXIT_VERDICT


def cmd_growth(args) -> int:
    dual = parse_group(args.group)
    w = _load_weight(dual, args.weight)
    label = parse_label(dual, _canonical_label_arg(dual, args.label))
    cert = weights.growth_rate(dual, w, label, args.num)
    payload = {
        "label": format_label(cert.label),
        "rho_hat": cert.rho_hat,
        "rho_slope": cert.rho_slope,
        "tag": cert.tag,
        "n_max": cert.n_max,
    }
    _emit_report(args, payload)
    if args.csv:
        lines = ["n,root,running_inf"]
        run = float("inf")
        for n, root in cert.seq:
            run = min(run, root)
            lines.append(f"{n},{root!r},{run!r}")
        _write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    dual = parse_group(args.group)
    w = _load_weight(dual, args.weight)
    desc = spectrum.spectrum_bounds(dual, w, n_max=args.num)
    payload = desc.to_json()
    if args.membership_point:
        sp_dual, theta = serialize.spectrum_point_from_json(
            json.loads(Path(args.membership_point).read_text())
        )
        if sp_dual != dual:
            raise WeightSpecError("membership point group differs from --group")
        res = spectrum.membership(dual, theta, w, cutoff=args.cutoff)
        payload["membership"] = {
            "margin": res.margin,
            "member": res.member,
            "certified": res.certified,
            "cutoff": res.cutoff,
            "argmax": res.argmax,
        }
    _emit_report(args, payload)
    if args.csv:
        lines = ["probe,radius"]
        for probe in sorted(desc.radii):
            lines.append(f"{probe},{desc.radii[probe]!r}")
        _write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_norm(args) -> int:
    dual = parse_group(args.group)
    w = _load_weight(dual, args.weight)
    u = _load_element(dual, args.element)
    if args.kind == "a":
        value = fields.norm_a_omega(u, w)
    elif args.kind == "l2":
        value = fields.norm_l2_omega(u, w)
    else:
        value = fields.dual_norm(u, w)
    _emit_report(args, {"kind": args.kind, "value": value})
    return EXIT_OK


def cmd_multiply(args) -> int:
    dual = parse_group(args.group)
    u = _load_element(dual, args.u)
    v = _load_element(dual, args.v)
    prod = fields.multiply(u, v)
    _write(args.out, serialize.dumps(serialize.element_to_json(prod)))
    return EXIT_OK


def cmd_factorize(args) -> int:
    dual = parse_group(args.group)
    u = _load_element(dual, args.element)
    w1 = _load_weight(dual, args.w1)
    w2 = _load_weight(dual, args.w2)
    f, g = fields.factorize(u, w1, w2)
    _write(args.out_f, serialize.dumps(serialize.element_to_json(f)))
    _write(args.out_g, serialize.dumps(serialize.element_to_json(g)))
    back = fields.convolve(f, g)
    err = 0.0
    for a in set(u.coeffs) | set(back.coeffs):
        err = max(err, float(np.max(np.abs(u[a] - back[a]))))
    _emit_report(
        args,
        {
            "reconstruction_error": err,
            "norm_f_l2w2": fields.norm_l2_omega(f, w2),
            "norm_g_l2w1": fields.norm_l2_omega(g, w1),
        },
    )
    return EXIT_OK


def cmd_expcurve(args) -> int:
    dual = parse_group(args.group)
    w = _load_weight(dual, args.weight)
    u = _load_element(dual, args.u)
    if not np.isfinite(args.tmax):
        raise ValueError(f"--tmax must be finite, got {args.tmax!r}")
    t_list = []
    t = 1.0
    while t <= args.tmax:
        t_list.append(t)
        t *= 2.0
    if not t_list:
        raise ValueError(f"--tmax {args.tmax} leaves no sample times >= 1")
    curve = calculus.growth_curve(
        dual, u, w, t_list, cutoff_cap=args.cutoff_cap, tail_tol=args.tail_tol
    )
    _write(args.out, curve.csv())
    if args.svg:
        _write(args.svg, _svg_polyline([r[0] for r in curve.rows], [r[1] for r in curve.rows]))
    summary = {
        "config": _config_dict(args),
        "slope": curve.slope,
        "bound_exponent": curve.bound_exponent,
        "passed": curve.passed,
    }
    sys.stdout.write(serialize.dumps(summary))
    return EXIT_OK if curve.passed else EXIT_VERDICT


def cmd_derivation(args) -> int:
    dual = parse_group(args.group)
    w = _load_weight(dual, args.weight)
    cas = calculus.CasimirData(dual)
    if not 0 <= args.basis_index < len(cas.basis):
        raise ValueError(f"--basis-index must lie in [0, {len(cas.basis)}), got {args.basis_index}")
    X = cas.basis[args.basis_index]
    rows = calculus.derivation_bound_scan(dual, X, w, args.num)
    lines = ["n,sup"]
    for n, sup in rows:
        lines.append(f"{n},{sup!r}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_synth_degree(args) -> int:
    sys.stdout.write(f"{calculus.synthesis_degree(args.m, args.alpha)}\n")
    return EXIT_OK


def cmd_nu_check(args) -> int:
    dual = parse_group(args.group)
    w = _load_weight(dual, args.weight)
    u = _load_element(dual, args.element)
    nu = calculus.nu_decompose(u, w)
    norm = fields.norm_a_omega(u, w)
    phi_sum = nu.phi_norm_sq_sum()
    psi_sum = nu.psi_norm_sq_sum()
    if args.T:
        T = _load_element(dual, args.T)
    else:
        T = fields.OperatorField.from_terms(
            dual, {a: np.eye(dual.dim(a)) for a in u.coeffs}
        )
    residual = calculus.pairing_identity_check(T, u, w)
    payload = {
        "norm_a_omega": norm,
        "phi_norm_sq_sum": phi_sum,
        "psi_norm_sq_sum": psi_sum,
        "pairing_residual": residual,
    }
    _emit_report(args, payload)
    ok = (
        abs(phi_sum - norm) <= args.tol * max(1.0, norm)
        and abs(psi_sum - norm) <= args.tol * max(1.0, norm)
        and residual <= args.tol * max(1.0, norm)
    )
    return EXIT_OK if ok else EXIT_VERDICT


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="bfw", description="weighted Fourier algebra workbench")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        return sp

    sp = add("validate-weight", cmd_validate_weight)
    sp.add_argument("--group", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out")

    sp = add("growth", cmd_growth)
    sp.add_argument("--group", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--label", required=True)
    sp.add_argument("--num", type=int, default=512)
    sp.add_argument("--out")
    sp.add_argument("--csv")

    sp = add("spectrum", cmd_spectrum)
    sp.add_argument("--group", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--num", type=int, default=None)
    sp.add_argument("--cutoff", type=int, default=64)
    sp.add_argument("--membership-point")
    sp.add_argument("--out")
    sp.add_argument("--csv")

    sp = add("norm", cmd_norm)
    sp.add_argument("--group", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--element", required=True)
    sp.add_argument("--kind", choices=["a", "l2", "dual"], default="a")
    sp.add_argument("--out")

    sp = add("multiply", cmd_multiply)
    sp.add_argument("--group", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--out")

    sp = add("factorize", cmd_factorize)
    sp.add_argument("--group", required=True)
    sp.add_argument("--element", required=True)
    sp.add_argument("--w1", required=True)
    sp.add_argument("--w2", required=True)
    sp.add_argument("--out-f")
    sp.add_argument("--out-g")
    sp.add_argument("--out")

    sp = add("expcurve", cmd_expcurve)
    sp.add_argument("--group", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--tmax", type=float, default=64.0)
    sp.add_argument("--cutoff-cap", type=int, default=120)
    sp.add_argument("--tail-tol", type=float, default=1e-6)
    sp.add_argument("--out")
    sp.add_argument("--svg")

    sp = add("derivation", cmd_derivation)
    sp.add_argument("--group", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--num", type=int, default=512)
    sp.add_argument("--basis-index", type=int, default=2)
    sp.add_argument("--out")

    sp = add("synth-degree", cmd_synth_degree)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)

    sp = add("nu-check", cmd_nu_check)
    sp.add_argument("--group", required=True)
    sp.add_argument("--element", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--T")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliParseError as exc:
        sys.stderr.write(f"argument error: {exc}\n")
        return EXIT_PARSE
    try:
        return args.func(args)
    except (QuadratureConvergenceError, InsufficientCutoffError, WeightOverflowError,
            ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (WeightSpecError, ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except BfwError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
