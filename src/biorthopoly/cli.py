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
digest the inputs, list outputs and one verdict per declared check.  Exit codes: 0 all checks
pass, 1 some check failed; a library error exits with the code its class sets (2, 3 or 4:
README, "Exit codes", lists what each means).  Each handler imports the pipeline modules it
runs, so a call loads only its own subcommand's (README, "Performance", lists them).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import zip_longest

from .errors import (BiorthopolyError, DegenerateInterpolant, IndexOutOfRange, InvalidParameter,
                     NuVanishes, ParseError, ZeroSampleValue)
from .numerics import EXACT, FLOAT, approx_equal, format_scalar, is_exact, over_lcm, parse_scalar
from .polynomials import Polynomial

try:  # the interpreter's own sha256 (_sha2 from 3.12, _sha256 before): hashlib loads OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

NORMALIZATION_NOTES = [
    "Diagonal pairing values are -1/(nu_n*alpha_n).  The +1/alpha_n constant "
    "sometimes quoted for this biorthogonality does not survive exact-rational "
    "residue computation: nodes (0,1,2) with values (1,2,5) give diagonal "
    "(-1/2, -1).",
    "Expansion coefficients divide the 1/F-weighted residue pairing by the "
    "verified diagonal; the unweighted pairing integral fails to reconstruct "
    "polynomials of degree >= 2 on the same example.",
]


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + sha256(canonical.encode()).hexdigest()


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise ParseError(f"cannot read problem {path!r}: {exc}")


def load_problem(path: str, mode_override: str | None):
    """Parse a problem file into (Samples, mode, digest)."""
    from .interpolation import Samples
    raw = _read_json(path)
    if not isinstance(raw, dict) or "nodes" not in raw or "values" not in raw:
        raise ParseError("problem must be an object with 'nodes' and 'values'")
    nodes_text, values_text = raw["nodes"], raw["values"]
    if not isinstance(nodes_text, list) or not isinstance(values_text, list):
        raise ParseError("'nodes' and 'values' must be arrays of scalar strings")
    if len(nodes_text) != len(values_text):
        raise ParseError(f"{len(nodes_text)} nodes but {len(values_text)} values")
    if not nodes_text:
        raise ParseError("problem needs at least one sample")
    mode = mode_override or raw.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise ParseError(f"mode must be 'exact' or 'float', got {mode!r}")
    try:
        nodes = [parse_scalar(str(t), mode) for t in nodes_text]
        values = [parse_scalar(str(t), mode) for t in values_text]
        samples = Samples.from_pairs(nodes, values)
    except (InvalidParameter, ValueError) as exc:
        raise ParseError(str(exc))
    digest = _digest({"nodes": list(map(str, nodes_text)),
                      "values": list(map(str, values_text)), "mode": mode})
    return samples, mode, digest


def _scalars_json(xs) -> list[str]:
    return [format_scalar(x) for x in xs]


def _worst(diffs):
    """The largest difference, 0 if none; a nan one (which max skips) wins."""
    return max([0, *diffs], key=lambda d: (d != d, d))


def _coeff_residual(a: Polynomial, b: Polynomial):
    """Largest absolute coefficient difference between two polynomials."""
    return _worst(abs(x - y) for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0))


def _row_residual(row, den: int, pairs):
    """_coeff_residual of row / den and the coefficients x / y of pairs, on integers: a Fraction
    only where two coefficients differ."""
    return _worst(Fraction(abs(c * y - x * den), abs(den * y))
                  for c, (x, y) in zip(row, pairs, strict=True) if c * y != x * den)


def _exact_values(v) -> list[Fraction]:
    """v(z) for an exact V_n at each z of V_SAMPLE_POINTS, on integers: T-hat_n = c / L, z = x / y
    and poles b_s / D."""
    (c, big_l), (b, big_d), values = over_lcm(v.numerator.coeffs), over_lcm(v.pole_nodes), []
    for x, y in map(Fraction.as_integer_ratio, V_SAMPLE_POINTS):
        top = Polynomial([c_k * y ** (v.index - k) for k, c_k in enumerate(c)])(x)  # L y**n T-hat
        values.append(Fraction(top * (big_d * y) ** len(b),  # (D y)**(n+2) omega_{n+2}(z)
                               big_l * y ** v.index * math.prod(big_d * x - b_s * y for b_s in b)))
    return values


def _double(value, name: str) -> float:
    """float(value()) for a contour reference value; InvalidParameter if it overflows."""
    try:
        return float(value())
    except OverflowError:
        raise InvalidParameter(f"{name} overflows a double") from None


def cmd_interpolate(args, samples: Samples) -> tuple:
    from .interpolation import lagrange_interpolant, newton_interpolant
    degree = args.degree
    newton = newton_interpolant(samples, degree)
    lagrange = lagrange_interpolant(samples, degree)

    nodes_values = zip(samples.grid.nodes, samples.values[: degree + 1])
    condition_residual = _worst(abs(p(a) - v) for a, v in nodes_values for p in (newton, lagrange))

    checks = [
        ("newton_lagrange_equal", _coeff_residual(newton, lagrange),
         all(approx_equal(x, y, TOLERANCE)  # exact coefficients must match exactly
             for x, y in zip_longest(newton.coeffs, lagrange.coeffs, fillvalue=0))),
        ("interpolation_conditions", condition_residual),
    ]
    outputs = {"newton": _scalars_json(newton.coeffs), "lagrange": _scalars_json(lagrange.coeffs)}
    return {"degree": degree}, outputs, checks, None


def cmd_recurrence(args, samples: Samples) -> tuple:
    from .interpolation import family_from_recurrence, monic_family, recurrence_step
    n_max = args.n_max if args.n_max is not None else samples.last_index
    family = monic_family(samples, n_max)

    step_residuals, rel1_residuals, omega = [], [], Polynomial.constant(1)
    for n in range(n_max):
        ratio_n = family.alphas[n] / family.alphas[n + 1]
        stepped = recurrence_step(
            family.phats[n],
            family.phats[n - 1] if n else Polynomial.zero(),
            family.grid[n], ratio_n, family.alpha_ratio(n))
        step_residuals.append(_coeff_residual(stepped, family.phats[n + 1]))
        omega = omega * Polynomial((-family.grid[n], 1))  # omega_{n+1}
        rel1 = family.phats[n + 1] - family.phats[n].scale(ratio_n)
        rel1_residuals.append(_coeff_residual(rel1, omega))

    rebuilt = family_from_recurrence(samples.grid, family.alphas, n_max)
    checks = [
        ("recurrence_consistency", _worst(step_residuals)),
        ("nodal_difference_identity", _worst(rel1_residuals)),
        ("values_roundtrip", _worst(abs(rebuilt.values[n] - samples.values[n])
                                    for n in range(n_max + 1))),
        ("phats_roundtrip", _worst(_coeff_residual(rebuilt.phats[n], family.phats[n])
                                   for n in range(n_max + 1))),
    ]
    outputs = {
        "alphas": _scalars_json(family.alphas),
        "phats": [_scalars_json(p.coeffs) for p in family.phats],
        "implied_values": _scalars_json(rebuilt.values),
    }
    return {"n_max": n_max}, outputs, checks, None


def cmd_check_biortho(args, samples: Samples) -> tuple:
    from .biorthogonality import biorthogonality_matrix, build_system, leading_nu
    from .interpolation import monic_family
    n_max = args.n_max
    family = monic_family(samples, n_max + 1)
    system = build_system(family, n_max)
    matrix = biorthogonality_matrix(system, samples, n_max)

    indices = range(n_max + 1)
    off_residual = _worst(abs(x) for n in indices for m, x in enumerate(matrix[n]) if m != n and x)
    nus = [leading_nu(family, n) for n in indices]  # the formula's, where system.nus cancels
    products = [nu * alpha for nu, alpha in zip(nus, family.alphas)]
    if 0 in products:
        raise InvalidParameter(f"nu_n alpha_n underflows to 0 at n = {products.index(0)}")
    diag_residual = _worst(abs(matrix[n][n] + 1 / p) for n, p in zip(indices, products))

    checks = [("off_diagonal_zero", off_residual), ("diagonal_matches_formula", diag_residual),
              ("nus_match_formula", _worst(abs(x - y) for x, y in zip(system.nus, nus)),
               all(approx_equal(x, y, TOLERANCE) for x, y in zip(system.nus, nus)))]
    outputs = {
        "matrix": [_scalars_json(row) for row in matrix],
        "alphas": _scalars_json(family.alphas[: n_max + 1]),
        "nus": _scalars_json(system.nus),
        "diagonal": _scalars_json([matrix[n][n] for n in indices]),  # the d_n judged above
    }
    return {"n_max": n_max}, outputs, checks, NORMALIZATION_NOTES


def cmd_expand(args, samples: Samples) -> tuple:
    from .biorthogonality import build_system, expand_in_interpolants
    from .interpolation import monic_family
    poly = _parse_poly_argument(args.poly, args.mode)
    degree = max(poly.degree, 0)
    if degree + 1 > samples.last_index:
        raise IndexOutOfRange(
            f"expanding degree {degree} needs at least {degree + 2} samples")
    family = monic_family(samples, degree + 1)
    system = build_system(family, degree)
    xi = expand_in_interpolants(poly, system, samples)

    reconstructed = sum((family.phats[k].scale(c) for k, c in enumerate(xi)), Polynomial.zero())

    checks = [("reconstruction", _coeff_residual(reconstructed, poly))]
    outputs = {
        "coefficients": _scalars_json(xi),
        "basis": [_scalars_json(p.coeffs) for p in family.phats[: len(xi)]],
    }
    return {"poly": _scalars_json(poly.coeffs)}, outputs, checks, NORMALIZATION_NOTES[1:]


V_SAMPLE_POINTS = (Fraction(1, 2), Fraction(7, 3), Fraction(-3, 2), Fraction(21, 2))
EXP_EXAMPLE_MAX_N = 40  # 40 takes about 25 ms in process; its integer checks grow about as n_max**2
HERMITE_MAX_K = 200  # --k 200 already exits 2: omega_{k+1} overflows on the circle
TOLERANCE = 1e-9  # a float residual r passes at |r| <= this; an exact one must be 0
CONTOUR_TOLERANCE = 1e-8  # a contour check passes when its absolute error is below this


def cmd_exp_example(args) -> tuple:
    from .biorthogonality import build_system
    from .exponential import ExpGridProblem, exp_alpha_closed, exp_closed_row, exp_v_alt_eval
    from .interpolation import monic_family
    q, n_max = parse_scalar(args.q, EXACT), args.n_max
    if not 0 <= n_max <= EXP_EXAMPLE_MAX_N:
        raise IndexOutOfRange(f"--n-max {n_max} is outside 0..{EXP_EXAMPLE_MAX_N}")
    override = _parse_contour(args.contour)
    if args.with_contour:  # the quadratures of e**(h z) match the closed forms of q**z at h = ln q
        if q <= 0:
            raise InvalidParameter(f"--with-contour needs q > 0 for a real h = ln q, got {q}")
        try:
            h = math.log(float(q))
        except (OverflowError, ValueError):
            raise InvalidParameter("q is out of double range") from None
    problem = ExpGridProblem(q, n_max)
    if args.with_contour:
        pair_indices = range(min(n_max, 3) + 1)
        # every circle (top = k, or max(n, m + 1)) checked after q's own checks and before any
        # exact work: a radius that misses node top misses it at every larger top too, so the
        # loops' first is refused
        circles = [_circle(override, top) for top in range(max(n_max, pair_indices[-1] + 1) + 1)]
    family = monic_family(problem.samples, n_max + 1)
    system = build_system(family, n_max)
    indices, (p, r) = range(n_max + 1), q.as_integer_ratio()
    ratios = list(map(Fraction.as_integer_ratio, family.alphas))  # alpha_n = a / b

    checks = [
        ("interpolant_closed_form",  # P_n = a U_n / (b k_n), P-hat_n = U_n / k_n
         max(_row_residual(*exp_closed_row(problem, n), [(a * u_j, b * k) for u_j in u])
             for n, (u, k), (a, b) in zip(indices, family.rows, ratios))),
        ("alpha_closed_form",
         max(abs(exp_alpha_closed(problem, n) - family.alphas[n]) for n in range(n_max + 2))),
        ("nu_closed_form", max(abs(nu - q / (q - 1)) for nu in system.nus)),
        ("t_closed_form",
         max(_row_residual(*exp_closed_row(problem, n, t_hat=True),
                           map(Fraction.as_integer_ratio, system.ts[n].coeffs))
             for n in indices)),
        ("v_routes_agree", max(abs(exp_v_alt_eval(problem, v.index, z) - value) for v in system.vs
                               for z, value in zip(V_SAMPLE_POINTS, _exact_values(v)))),
        ("grid_power_values",  # P_n(m) - q**m over b k_n r**m: alpha_n = a / b, P-hat_n = U_n / k_n
         max(Fraction(abs(a * Polynomial(u)(m) * r ** m - p ** m * b * k), b * k * r ** m)
             for (u, k), (a, b) in zip(family.rows[: n_max + 1], ratios)
             for m in range(len(u)))),
        ("diagonal_closed_form",  # d_n = -1/(nu alpha_n), nu = q/(q-1) and alpha_n closed
         max(abs(d + (q - 1) / (q * exp_alpha_closed(problem, n)))
             for n, d in zip(indices, system.diagonal))),
    ]
    outputs = {
        "alphas": _scalars_json(family.alphas),
        "nus": _scalars_json(system.nus),
        "t_hats": [_scalars_json(t.coeffs) for t in system.ts],
        "diagonal": _scalars_json(system.diagonal),
    }

    arguments = {"q": args.q, "n_max": n_max, "with_contour": args.with_contour}
    notes = NORMALIZATION_NOTES
    if args.with_contour:
        from .contour import contour_biortho_check, hermite_divided_difference
        hermite_worst = 0.0
        for k in indices:
            estimate = hermite_divided_difference(h, k, circles[k])
            expected = _double(lambda: exp_alpha_closed(problem, k), f"alpha_{k}")
            hermite_worst = max(hermite_worst, abs(estimate - expected))
        biortho_worst = 0.0
        for n in pair_indices:
            for m in pair_indices:
                try:
                    estimate = contour_biortho_check(h, n, m, circles[max(n, m + 1)])
                except (DegenerateInterpolant, NuVanishes, ZeroSampleValue) as exc:  # float only
                    estimate, notes = math.inf, [*NORMALIZATION_NOTES, "contour_biortho: the float "
                                                 f"family of e**(h z) degenerated: {exc}"]
                expected = _double(lambda: system.diagonal[n], f"d_{n}") if n == m else 0.0
                biortho_worst = max(biortho_worst, abs(estimate - expected))
        checks += [("contour_hermite", hermite_worst, hermite_worst < CONTOUR_TOLERANCE),
                   ("contour_biortho", biortho_worst, biortho_worst < CONTOUR_TOLERANCE)]
        outputs["contour_h"] = arguments["h"] = repr(h)
    return arguments, outputs, checks, notes


def cmd_hermite(args) -> tuple:
    from .contour import hermite_divided_difference
    h, k = args.h, args.k
    if not 0 <= k <= HERMITE_MAX_K:  # before the k + 1 nodes are built
        raise IndexOutOfRange(f"--k {k} is outside 0..{HERMITE_MAX_K}")
    circle = _circle(_parse_contour(args.contour), k)  # before any quadrature
    estimate = hermite_divided_difference(h, k, circle)
    expected = _double(lambda: (math.exp(h) - 1.0) ** k / math.factorial(k), "(e**h - 1)**k / k!")
    error, imag = abs(estimate - expected), abs(estimate.imag)
    checks = [("hermite_matches_difference", error, error < CONTOUR_TOLERANCE),
              ("imaginary_part_small", imag, imag < CONTOUR_TOLERANCE)]
    outputs = {
        "estimate_real": repr(estimate.real),
        "estimate_imag": repr(estimate.imag),
        "expected": repr(expected),
        "circle": {"center": [circle.center.real, circle.center.imag],
                   "radius": circle.radius, "sample_count": circle.sample_count},
    }
    return {"h": repr(h), "k": k}, outputs, checks, None


def build_report(args) -> dict:
    """Run the subcommand's handler and assemble its report.  A handler
    returns (arguments, outputs, checks, notes); a check is (name, residual),
    which passes when |residual| <= TOLERANCE (== 0 when exact), or (name, residual,
    verdict) where its rule differs.  A problem subcommand first sets its effective mode on args."""
    if "problem" in args:
        samples, args.mode, digest = load_problem(args.problem, args.mode)
        arguments, outputs, checks, notes = args.handler(args, samples)
        arguments["mode"] = args.mode
    else:
        arguments, outputs, checks, notes = args.handler(args)
        digest = _digest(arguments)
    verdicts = [{"name": name, "pass": bool(rule[0] if rule else abs(residual)
                                            <= (0 if is_exact(residual) else TOLERANCE)),
                 "residual": format_scalar(residual)} for name, residual, *rule in checks]
    report = {
        "command": args.subcommand,
        "arguments": arguments,
        "inputs_digest": digest,
        "mode": args.mode,
        "outputs": outputs,
        "checks": verdicts,
        "passed": all(c["pass"] for c in verdicts),
    }
    if notes:
        report["notes"] = notes
    return report


def _parse_contour(spec: str | None) -> Circle | None:
    """An optional "radius/samples" override, parsed and checked once, as a Circle about 0."""
    if spec is None:
        return None
    from .contour import Circle
    radius_text, _, count_text = spec.partition("/")
    try:  # no count: Circle's own default
        return Circle(0j, float(radius_text), *([int(count_text)] if count_text else []))
    except ValueError:
        raise InvalidParameter(f"--contour expects RADIUS/SAMPLES, got {spec!r}") from None


def _circle(override: Circle | None, max_node: int) -> Circle:
    """The default circle for nodes 0..max_node, or the override's radius and samples about its
    centre; InvalidParameter if a node, a pole, lies outside it or on it."""
    from .contour import Circle, default_circle
    circle = default_circle(max_node)
    if override is not None:
        circle = Circle(circle.center, override.radius, override.sample_count)
    if max(abs(circle.center), abs(max_node - circle.center)) >= circle.radius:
        raise InvalidParameter(f"nodes 0..{max_node} are not all inside the circle")
    return circle


def _parse_poly_argument(text: str, mode: str) -> Polynomial:
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"--poly must be a JSON array of scalar strings: {exc}")
    if not isinstance(raw, list):
        raise ParseError("--poly must be a JSON array of scalar strings")
    try:
        return Polynomial([parse_scalar(str(t), mode) for t in raw])
    except InvalidParameter as exc:
        raise ParseError(str(exc))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biorthopoly", allow_abbrev=False,
        description="Interpolation, three-term recurrences and biorthogonal "
                    "rational functions, verified in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, summary: str, mode: str | None = None):
        """A subcommand run by handler; mode None reads a problem file."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p._negative_number_matcher = re.compile(r"^-\.?\d")  # "-1/3", "-1e-3" are values too
        p.set_defaults(handler=handler, mode=mode)
        if mode is None:
            p.add_argument("problem", help="problem JSON file, or '-' for stdin")
            p.add_argument("--mode", choices=(EXACT, FLOAT), default=None,
                           help="override the problem file's scalar mode")
        return p

    p = add("interpolate", cmd_interpolate, "Newton and Lagrange interpolants")
    p.add_argument("--degree", type=int, required=True)

    p = add("recurrence", cmd_recurrence, "three-term recurrence round trip")
    p.add_argument("--n-max", type=int, default=None)

    p = add("check-biortho", cmd_check_biortho, "residue pairing matrix checks")
    p.add_argument("--n-max", type=int, required=True)

    p = add("expand", cmd_expand, "expand a polynomial in the monic basis")
    p.add_argument("--poly", required=True,
                   help='JSON array of scalar strings, constant term first')

    p = add("exp-example", cmd_exp_example, "closed forms for q**z on 0,1,2,...", EXACT)
    p.add_argument("--q", required=True, help='rational q as "p/q" or "p"; not 0 or 1')
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--with-contour", action="store_true", help="also check e**(h z), h = ln q")
    p.add_argument("--contour", default=None, metavar="RADIUS/SAMPLES",
                   help="override the default circle")

    p = add("hermite", cmd_hermite, "contour-integral divided difference", FLOAT)
    p.add_argument("--h", type=_finite_float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--contour", default=None, metavar="RADIUS/SAMPLES")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = build_report(args)
    except BiorthopolyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        print(json.dumps(report, indent=2), flush=True)
    except BrokenPipeError:  # the reader closed stdout: quiet the flush at exit, keep the code
        import os  # loaded at interpreter start-up; only this path needs its name
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report["passed"] else 1
