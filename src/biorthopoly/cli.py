"""Command-line front end: JSON problems in, JSON reports out.

Subcommands map one-to-one onto library pipelines:

    interpolate    Newton + Lagrange routes and their equality
    recurrence     three-term recurrence round trip (family -> alphas -> family)
    check-biortho  residue pairing matrix, diagonal formula, zero off-diagonals
    expand         expansion of a polynomial in the monic interpolant basis
    exp-example    closed forms for q**z data on the integer grid
    hermite        contour-integral divided difference of e**(h z)

A problem file is {"nodes": [...], "values": [...], "mode": "exact"|"float"}
with scalars as strings ("3", "-1/2", "0.25").  Reports echo the command,
digest the inputs, list outputs and one verdict per declared check.  Exit
codes: 0 all checks pass, 1 some check failed, 2 unparsable input or bad
parameter (also a float-mode scalar that overflows a double, a non-finite
tolerance or --h, a negative --contour-tolerance, an --h so large that the
contour integrand overflows, or a --contour circle through a node or pole),
3 index/degree out of range, 4 degenerate data (zero alpha/nu/sample value;
the index is in the message).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .biorthogonality import biorthogonality_matrix, build_system, expand_in_interpolants
from .contour import Circle, contour_biortho_check, default_circle, hermite_divided_difference
from .divided_differences import Samples, newton_interpolant
from .errors import (
    BiorthopolyError,
    DegenerateInterpolant,
    IndexOutOfRange,
    InsufficientNodes,
    InvalidParameter,
    NonFiniteSample,
    NuVanishes,
    ParseError,
    PoleEvaluation,
    ZeroDenominator,
    ZeroSampleValue,
)
from .exponential import (
    ExpGridProblem,
    exp_alpha_closed,
    exp_interpolant_closed,
    exp_t_closed,
    exp_v_alt_eval,
)
from .interpolation import (family_from_recurrence, lagrange_interpolant, monic_family,
                            recurrence_step)
from .numerics import (
    EXACT,
    FLOAT,
    Tolerance,
    approx_equal,
    format_scalar,
    parse_scalar,
)
from .polynomials import Polynomial, nodal_polynomial

NORMALIZATION_NOTES = [
    "Diagonal pairing values are -1/(nu_n*alpha_n).  The +1/alpha_n constant "
    "sometimes quoted for this biorthogonality does not survive exact-rational "
    "residue computation: nodes (0,1,2) with values (1,2,5) give diagonal "
    "(-1/2, -1).",
    "Expansion coefficients divide the 1/F-weighted residue pairing by the "
    "verified diagonal; the unweighted pairing integral fails to reconstruct "
    "polynomials of degree >= 2 on the same example.",
]

_DEGENERATE = (DegenerateInterpolant, NuVanishes, ZeroSampleValue)
_RANGE = (IndexOutOfRange, InsufficientNodes)
_PARSE = (ParseError, InvalidParameter, ZeroDenominator, NonFiniteSample, PoleEvaluation)


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read problem {path!r}: {exc}")


def load_problem(path: str, mode_override: Optional[str]):
    """Parse a problem file into (Samples, mode, digest)."""
    raw = _read_json(path)
    if not isinstance(raw, dict) or "nodes" not in raw or "values" not in raw:
        raise ParseError("problem must be an object with 'nodes' and 'values'")
    nodes_text, values_text = raw["nodes"], raw["values"]
    if not isinstance(nodes_text, list) or not isinstance(values_text, list):
        raise ParseError("'nodes' and 'values' must be arrays of scalar strings")
    if len(nodes_text) != len(values_text):
        raise ParseError(
            f"{len(nodes_text)} nodes but {len(values_text)} values")
    if not nodes_text:
        raise ParseError("problem needs at least one sample")
    mode = mode_override or raw.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise ParseError(f"mode must be 'exact' or 'float', got {mode!r}")
    try:
        nodes = [parse_scalar(str(t), mode) for t in nodes_text]
        values = [parse_scalar(str(t), mode) for t in values_text]
        samples = Samples.from_pairs(nodes, values)
    except (InvalidParameter, ZeroDenominator, ValueError) as exc:
        raise ParseError(str(exc))
    digest = _digest({"nodes": list(map(str, nodes_text)),
                      "values": list(map(str, values_text)), "mode": mode})
    return samples, mode, digest


def _poly_json(poly: Polynomial) -> List[str]:
    return [format_scalar(c) for c in poly.coeffs]


def _scalars_json(xs) -> List[str]:
    return [format_scalar(x) for x in xs]


def _coeff_residual(a: Polynomial, b: Polynomial):
    """Largest absolute coefficient difference between two polynomials."""
    width = max(len(a.coeffs), len(b.coeffs))
    return max([0, *(abs(a.coefficient(i) - b.coefficient(i)) for i in range(width))])


def _check(name: str, passed: bool, residual) -> dict:
    return {"name": name, "pass": bool(passed), "residual": format_scalar(residual)}


def _within(residual, mode: str, tol: Tolerance) -> bool:
    """Exact residuals must vanish; float ones must lie within tol of zero."""
    return residual == 0 if mode == EXACT else approx_equal(float(residual), 0.0, tol)


def _polys_equal(a: Polynomial, b: Polynomial, mode: str, tol: Tolerance) -> bool:
    if mode == EXACT:
        return a == b
    width = max(len(a.coeffs), len(b.coeffs))
    return all(approx_equal(a.coefficient(i), b.coefficient(i), tol) for i in range(width))


def _report(command: str, arguments: dict, digest: str, mode: str,
            outputs: dict, checks: List[dict], notes: Optional[List[str]] = None) -> dict:
    report = {
        "command": command,
        "arguments": arguments,
        "inputs_digest": digest,
        "mode": mode,
        "outputs": outputs,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
    if notes:
        report["notes"] = notes
    return report


def cmd_interpolate(samples: Samples, degree: int, mode: str, tol: Tolerance,
                    digest: str) -> dict:
    newton = newton_interpolant(samples, degree)
    lagrange = lagrange_interpolant(samples, degree)
    routes_equal = _polys_equal(newton, lagrange, mode, tol)

    condition_residual = 0
    for k in range(degree + 1):
        diff = abs(newton(samples.grid[k]) - samples.values[k])
        diff = max(diff, abs(lagrange(samples.grid[k]) - samples.values[k]))
        condition_residual = max(condition_residual, diff)
    conditions_hold = _within(condition_residual, mode, tol)

    checks = [
        _check("newton_lagrange_equal", routes_equal, _coeff_residual(newton, lagrange)),
        _check("interpolation_conditions", conditions_hold, condition_residual),
    ]
    outputs = {"newton": _poly_json(newton), "lagrange": _poly_json(lagrange)}
    return _report("interpolate", {"degree": degree, "mode": mode}, digest, mode,
                   outputs, checks)


def cmd_recurrence(samples: Samples, n_max: int, mode: str, tol: Tolerance,
                   digest: str) -> dict:
    family = monic_family(samples, n_max)

    step_residual = 0
    rel1_residual = 0
    for n in range(n_max):
        ratio_n = family.alphas[n] / family.alphas[n + 1]
        stepped = recurrence_step(
            family.phats[n],
            family.phats[n - 1] if n else Polynomial.zero(),
            family.grid[n], ratio_n, family.alpha_ratio(n))
        step_residual = max(step_residual, _coeff_residual(stepped, family.phats[n + 1]))
        omega = nodal_polynomial(family.grid, n + 1)
        rel1 = family.phats[n + 1] - family.phats[n].scale(ratio_n)
        rel1_residual = max(rel1_residual, _coeff_residual(rel1, omega))

    rebuilt = family_from_recurrence(samples.grid, family.alphas, n_max)
    value_residual = max([0, *(abs(rebuilt.values[n] - samples.values[n])
                               for n in range(n_max + 1))])
    phat_residual = max([0, *(_coeff_residual(rebuilt.phats[n], family.phats[n])
                              for n in range(n_max + 1))])

    checks = [
        _check("recurrence_consistency", _within(step_residual, mode, tol), step_residual),
        _check("nodal_difference_identity", _within(rel1_residual, mode, tol), rel1_residual),
        _check("values_roundtrip", _within(value_residual, mode, tol), value_residual),
        _check("phats_roundtrip", _within(phat_residual, mode, tol), phat_residual),
    ]
    outputs = {
        "alphas": _scalars_json(family.alphas),
        "phats": [_poly_json(p) for p in family.phats],
        "implied_values": _scalars_json(rebuilt.values),
    }
    return _report("recurrence", {"n_max": n_max, "mode": mode}, digest, mode,
                   outputs, checks)


def cmd_check_biortho(samples: Samples, n_max: int, mode: str, tol: Tolerance,
                      digest: str) -> dict:
    family = monic_family(samples, n_max + 1)
    system = build_system(family, n_max)
    matrix = biorthogonality_matrix(system, samples, n_max)

    indices = range(n_max + 1)
    off_residual = max([0, *(abs(matrix[n][m]) for n in indices for m in indices if n != m)])
    diag_residual = max([0, *(abs(matrix[n][n] + 1 / (system.nus[n] * family.alphas[n]))
                              for n in indices)])

    checks = [
        _check("off_diagonal_zero", _within(off_residual, mode, tol), off_residual),
        _check("diagonal_matches_formula", _within(diag_residual, mode, tol), diag_residual),
    ]
    outputs = {
        "matrix": [_scalars_json(row) for row in matrix],
        "alphas": _scalars_json(family.alphas[: n_max + 1]),
        "nus": _scalars_json(system.nus),
        "diagonal": _scalars_json(system.diagonal),
    }
    return _report("check-biortho", {"n_max": n_max, "mode": mode}, digest, mode,
                   outputs, checks, notes=NORMALIZATION_NOTES)


def cmd_expand(samples: Samples, poly: Polynomial, mode: str, tol: Tolerance,
               digest: str) -> dict:
    degree = max(poly.degree, 0)
    if degree + 1 > samples.last_index:
        raise IndexOutOfRange(
            f"expanding degree {degree} needs at least {degree + 2} samples")
    family = monic_family(samples, degree + 1)
    system = build_system(family, degree)
    xi = expand_in_interpolants(poly, system, samples)

    reconstructed = Polynomial.zero()
    for k, coeff in enumerate(xi):
        reconstructed = reconstructed + family.phats[k].scale(coeff)
    residual = _coeff_residual(reconstructed, poly)
    reconstruction_ok = _within(residual, mode, tol)

    checks = [_check("reconstruction", reconstruction_ok, residual)]
    outputs = {
        "coefficients": _scalars_json(xi),
        "basis": [_poly_json(p) for p in family.phats[: len(xi)]],
    }
    return _report("expand", {"poly": _poly_json(poly), "mode": mode}, digest, mode,
                   outputs, checks, notes=NORMALIZATION_NOTES[1:])


V_SAMPLE_POINTS = (Fraction(1, 2), Fraction(7, 3), Fraction(-3, 2), Fraction(10))


def cmd_exp_example(q_text: str, n_max: int, with_contour: bool,
                    h: Optional[float], contour_spec: Optional[str],
                    contour_tol: float) -> dict:
    q = parse_scalar(q_text, EXACT)
    if q == 0 or q == 1:
        raise InvalidParameter("q must differ from 0 and 1")
    if n_max < 0:
        raise InvalidParameter("n_max must be nonnegative")
    problem = ExpGridProblem(q, n_max)
    family = monic_family(problem.samples, n_max + 1)
    system = build_system(family, n_max)

    interp_ok = all(
        exp_interpolant_closed(problem, n) == newton_interpolant(problem.samples, n)
        for n in range(n_max + 1))
    alpha_ok = all(
        exp_alpha_closed(problem, n) == family.alphas[n] for n in range(n_max + 2))
    nu_expected = q / (q - 1)
    nu_ok = all(nu == nu_expected for nu in system.nus)
    t_ok = all(exp_t_closed(problem, n) == system.ts[n] for n in range(n_max + 1))
    v_ok = all(
        exp_v_alt_eval(problem, n, z) == system.vs[n](z)
        for n in range(n_max + 1) for z in V_SAMPLE_POINTS)
    power_ok = all(
        newton_interpolant(problem.samples, n)(m) == q ** m
        for n in range(n_max + 1) for m in range(n + 1))

    checks = [_check(name, ok, 0 if ok else 1) for name, ok in (
        ("interpolant_closed_form", interp_ok), ("alpha_closed_form", alpha_ok),
        ("nu_closed_form", nu_ok), ("t_closed_form", t_ok),
        ("v_routes_agree", v_ok), ("grid_power_values", power_ok))]

    outputs = {
        "alphas": _scalars_json(family.alphas),
        "nus": _scalars_json(system.nus),
        "t_hats": [_poly_json(t) for t in system.ts],
        "diagonal": _scalars_json(system.diagonal),
    }

    if with_contour:
        if h is None:
            if q <= 0:
                raise InvalidParameter("negative q has no real h; pass --h explicitly")
            h = math.log(float(q))
        hermite_worst = 0.0
        for k in range(n_max + 1):
            circle = _resolve_circle(contour_spec, k)
            estimate = hermite_divided_difference(h, k, circle)
            expected = float(exp_alpha_closed(problem, k))
            hermite_worst = max(hermite_worst, abs(estimate - expected))
        biortho_worst = 0.0
        for n in range(min(n_max, 3) + 1):
            for m in range(min(n_max, 3) + 1):
                circle = _resolve_circle(contour_spec, max(n, m + 1))
                estimate = contour_biortho_check(h, n, m, circle)
                expected = float(system.diagonal[n]) if n == m else 0.0
                biortho_worst = max(biortho_worst, abs(estimate - expected))
        checks.append(_check("contour_hermite", hermite_worst < contour_tol, hermite_worst))
        checks.append(_check("contour_biortho", biortho_worst < contour_tol, biortho_worst))
        outputs["contour_h"] = repr(h)

    arguments = {"q": q_text, "n_max": n_max, "with_contour": with_contour}
    if h is not None:
        arguments["h"] = repr(h)
    return _report("exp-example", arguments, _digest(arguments), EXACT, outputs,
                   checks, notes=NORMALIZATION_NOTES)


def cmd_hermite(h: float, k: int, contour_spec: Optional[str], contour_tol: float) -> dict:
    circle = _resolve_circle(contour_spec, k)
    estimate = hermite_divided_difference(h, k, circle)
    q = math.exp(h)
    expected = (q - 1.0) ** k / math.factorial(k)
    error = abs(estimate - expected)
    checks = [
        _check("hermite_matches_difference", error < contour_tol, error),
        _check("imaginary_part_small", abs(estimate.imag) < contour_tol, abs(estimate.imag)),
    ]
    outputs = {
        "estimate_real": repr(estimate.real),
        "estimate_imag": repr(estimate.imag),
        "expected": repr(expected),
        "circle": {"center": [circle.center.real, circle.center.imag],
                   "radius": circle.radius, "sample_count": circle.sample_count},
    }
    arguments = {"h": repr(h), "k": k}
    return _report("hermite", arguments, _digest(arguments), FLOAT, outputs, checks)


def _resolve_circle(spec: Optional[str], max_node: int) -> Circle:
    """Turn an optional "radius/samples" override into a Circle for 0..max_node."""
    base = default_circle(max_node)
    if spec is None:
        return base
    try:
        radius_text, _, count_text = spec.partition("/")
        radius = float(radius_text)
        count = int(count_text) if count_text else base.sample_count
    except ValueError:
        raise InvalidParameter(f"--contour expects RADIUS/SAMPLES, got {spec!r}")
    return Circle(center=base.center, radius=radius, sample_count=count)


def _parse_poly_argument(text: str, mode: str) -> Polynomial:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--poly must be a JSON array of scalar strings: {exc}")
    if not isinstance(raw, list):
        raise ParseError("--poly must be a JSON array of scalar strings")
    try:
        return Polynomial([parse_scalar(str(t), mode) for t in raw])
    except (InvalidParameter, ZeroDenominator) as exc:
        raise ParseError(str(exc))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    try:
        return Tolerance(abs=float(text)).abs
    except InvalidParameter as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biorthopoly",
        description="Interpolation, three-term recurrences and biorthogonal "
                    "rational functions, verified in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_problem_options(p):
        p.add_argument("problem", help="problem JSON file, or '-' for stdin")
        p.add_argument("--mode", choices=(EXACT, FLOAT), default=None,
                       help="override the problem file's scalar mode")
        p.add_argument("--tolerance", type=float, default=1e-9,
                       help="float-mode comparison width (rel and abs)")

    p = sub.add_parser("interpolate", help="Newton and Lagrange interpolants")
    add_problem_options(p)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("recurrence", help="three-term recurrence round trip")
    add_problem_options(p)
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("check-biortho", help="residue pairing matrix checks")
    add_problem_options(p)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("expand", help="expand a polynomial in the monic basis")
    add_problem_options(p)
    p.add_argument("--poly", required=True,
                   help='JSON array of scalar strings, constant term first')

    p = sub.add_parser("exp-example", help="closed forms for q**z on 0,1,2,...")
    p.add_argument("--q", required=True, help='rational q as "p/q" or "p"; not 0 or 1')
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--with-contour", action="store_true")
    p.add_argument("--h", type=_finite_float, default=None,
                   help="exponent scale for the contour check (default ln q)")
    p.add_argument("--contour", default=None, metavar="RADIUS/SAMPLES",
                   help="override the default circle")
    p.add_argument("--contour-tolerance", type=_tolerance, default=1e-8)

    p = sub.add_parser("hermite", help="contour-integral divided difference")
    p.add_argument("--h", type=_finite_float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--contour", default=None, metavar="RADIUS/SAMPLES")
    p.add_argument("--contour-tolerance", type=_tolerance, default=1e-8)

    return parser


def _dispatch(args) -> dict:
    if args.subcommand == "exp-example":
        return cmd_exp_example(args.q, args.n_max, args.with_contour, args.h,
                               args.contour, args.contour_tolerance)
    if args.subcommand == "hermite":
        return cmd_hermite(args.h, args.k, args.contour, args.contour_tolerance)

    samples, mode, digest = load_problem(args.problem, args.mode)
    tol = Tolerance(rel=args.tolerance, abs=args.tolerance)
    if args.subcommand == "interpolate":
        return cmd_interpolate(samples, args.degree, mode, tol, digest)
    if args.subcommand == "recurrence":
        n_max = args.n_max if args.n_max is not None else samples.last_index
        return cmd_recurrence(samples, n_max, mode, tol, digest)
    if args.subcommand == "check-biortho":
        return cmd_check_biortho(samples, args.n_max, mode, tol, digest)
    if args.subcommand == "expand":
        poly = _parse_poly_argument(args.poly, mode)
        return cmd_expand(samples, poly, mode, tol, digest)
    raise InvalidParameter(f"unknown subcommand {args.subcommand!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _dispatch(args)
    except _PARSE + _RANGE + _DEGENERATE as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _PARSE) else 3 if isinstance(exc, _RANGE) else 4
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
