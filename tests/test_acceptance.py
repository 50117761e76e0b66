"""End-to-end acceptance checks over a fixed random corpus.

Each test prints a single PASS/FAIL line (visible under `pytest -s`) and
asserts the property it names.  The corpus is 200 sample sets with up to
nine nodes drawn from -5..5 and nonzero integer values from -9..9, kept
only when every divided difference is nonzero, so the monic family exists
to full depth on every instance.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from biorthopoly.biorthogonality import (
    biorthogonality_matrix,
    build_system,
    expand_in_interpolants,
    pairing,
)
from biorthopoly.cli import main as cli_main
from biorthopoly.contour import Circle, contour_biortho_check, default_circle, \
    hermite_divided_difference
from biorthopoly.errors import NuVanishes
from biorthopoly.exponential import (
    ExpGridProblem,
    exp_alpha_closed,
    exp_interpolant_closed,
    exp_t_closed,
    exp_v_alt_eval,
)
from biorthopoly.interpolation import (
    Samples,
    divided_differences_recursive,
    family_from_recurrence,
    lagrange_interpolant,
    monic_family,
    newton_interpolant,
    recurrence_step,
)
from biorthopoly.polynomials import Polynomial, nodal_polynomial

F = Fraction
NONZERO_VALUES = [v for v in range(-9, 10) if v != 0]
README = Path(__file__).resolve().parent.parent / "README.md"


def verdict(label, failures):
    print(f"[{'FAIL' if failures else 'PASS'}] {label}")
    assert not failures, f"{len(failures)} failure(s): " + "; ".join(failures[:5])


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(104729)
    instances = []
    while len(instances) < 200:
        last = rng.randint(2, 8)
        nodes = rng.sample(range(-5, 6), last + 1)
        values = [rng.choice(NONZERO_VALUES) for _ in nodes]
        samples = Samples.from_pairs([F(a) for a in nodes], [F(v) for v in values])
        if any(d == 0 for d in divided_differences_recursive(samples).diffs):
            continue
        instances.append(samples)
    return instances


def test_newton_lagrange_route_equivalence(corpus):
    failures = []
    started = time.perf_counter()
    for i, s in enumerate(corpus):
        for n in range(len(s)):
            newton = newton_interpolant(s, n)
            lagrange = lagrange_interpolant(s, n)
            if newton != lagrange:
                failures.append(f"instance {i}, degree {n}: routes differ")
            for k in range(n + 1):
                if newton(s.grid[k]) != s.values[k]:
                    failures.append(f"instance {i}: condition at node {k}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    verdict("interpolation routes agree and interpolate (200 sample sets)",
            failures)


def test_recurrence_characterizes_family(corpus):
    failures = []
    for i, s in enumerate(corpus):
        family = monic_family(s, s.last_index)
        for n in range(s.last_index):
            ratio_n = family.alphas[n] / family.alphas[n + 1]
            prev = family.phats[n - 1] if n else Polynomial.zero()
            stepped = recurrence_step(family.phats[n], prev, family.grid[n],
                                      ratio_n, family.alpha_ratio(n))
            if stepped != family.phats[n + 1]:
                failures.append(f"instance {i}: step {n} mismatch")
            identity = family.phats[n + 1] - family.phats[n].scale(ratio_n)
            if identity != nodal_polynomial(family.grid, n + 1):
                failures.append(f"instance {i}: nodal identity at {n}")
        rebuilt = family_from_recurrence(s.grid, family.alphas)
        if rebuilt.values != s.values or rebuilt.phats != family.phats:
            failures.append(f"instance {i}: round trip broke")
    verdict("three-term recurrence round trip and nodal identity", failures)


def test_orthogonality_moments(corpus):
    from biorthopoly.biorthogonality import orthogonality_moment
    failures = []
    for i, s in enumerate(corpus):
        family = monic_family(s, s.last_index)
        for n in range(s.last_index + 1):
            for j in range(n + 1):
                expected = 1 / family.alphas[n] if j == n else F(0)
                if orthogonality_moment(family, n, j) != expected:
                    failures.append(f"instance {i}: moment ({n},{j})")
    verdict("moments of P-hat_n vanish below degree n and hit 1/alpha_n",
            failures)


def test_biorthogonal_matrix_is_diagonal(corpus):
    failures = []
    checked = 0
    for i, s in enumerate(corpus):
        top = min(6, s.last_index - 1)
        family = monic_family(s, top + 1)
        try:
            system = build_system(family, top)
        except NuVanishes:
            continue  # the construction's stated hypothesis nu_n != 0
        checked += 1
        matrix = biorthogonality_matrix(system, s, top)
        for n in range(top + 1):
            for m in range(top + 1):
                expected = -1 / (system.nus[n] * family.alphas[n]) if n == m else F(0)
                if matrix[n][m] != expected:
                    failures.append(f"instance {i}: entry ({n},{m})")
        extended = Samples.from_pairs([*s.grid.nodes, F(6)], [*s.values, F(1)])
        for n in range(top + 1):
            if pairing(family.phats[n], system.vs[n], extended) != matrix[n][n]:
                failures.append(f"instance {i}: pairing moved under extra node")
    if checked < 150:
        failures.append(f"only {checked} of 200 instances had nonzero nu")

    anchor = Samples.from_pairs([F(0), F(1), F(2)], [F(1), F(2), F(5)])
    family = monic_family(anchor, 2)
    matrix = biorthogonality_matrix(build_system(family, 1), anchor, 1)
    if matrix != [[F(-1, 2), F(0)], [F(0), F(-1)]]:
        failures.append("hand-checked anchor matrix mismatch")
    verdict("residue pairing matrix diagonal with entries -1/(nu_n alpha_n)",
            failures)


def _triangular_solve(q_poly, phats):
    residue, xi = q_poly, [F(0)] * (q_poly.degree + 1)
    for k in range(q_poly.degree, -1, -1):
        xi[k] = residue.coefficient(k)
        residue = residue - phats[k].scale(xi[k])
    return tuple(xi), residue


def test_expansion_reconstructs_polynomials():
    rng = random.Random(7919)
    failures = []
    systems = []
    while len(systems) < 4:
        nodes = rng.sample(range(-5, 6), 9)
        values = [rng.choice(NONZERO_VALUES) for _ in nodes]
        s = Samples.from_pairs([F(a) for a in nodes], [F(v) for v in values])
        if any(d == 0 for d in divided_differences_recursive(s).diffs):
            continue
        family = monic_family(s, 7)
        try:
            systems.append((s, family, build_system(family, 6)))
        except NuVanishes:
            continue
    for s, family, system in systems:
        for _ in range(25):
            degree = rng.randint(0, 6)
            coeffs = [F(rng.randint(-9, 9)) for _ in range(degree)]
            coeffs.append(F(rng.choice(NONZERO_VALUES)))
            q_poly = Polynomial(coeffs)
            xi = expand_in_interpolants(q_poly, system, s)
            oracle, residue = _triangular_solve(q_poly, family.phats)
            if xi != oracle or residue.coeffs:
                failures.append(f"poly {q_poly.coeffs} on nodes {s.grid.nodes}")
                continue
            total = Polynomial.zero()
            for k, c in enumerate(xi):
                total = total + family.phats[k].scale(c)
            if total != q_poly:
                failures.append(f"reconstruction failed for {q_poly.coeffs}")
    verdict("expansion in the monic basis reconstructs 100 random polynomials",
            failures)


def test_exponential_grid_closed_forms():
    failures = []
    probes = (F(1, 2), F(7, 3), F(-3, 2), F(10))
    for q in (F(2), F(3), F(1, 2), F(-1), F(5, 3)):
        prob = ExpGridProblem(q, 5)
        table = divided_differences_recursive(prob.samples)
        family = monic_family(prob.samples, 6)
        system = build_system(family, 5)
        for n in range(6):
            if exp_interpolant_closed(prob, n) != newton_interpolant(prob.samples, n):
                failures.append(f"q={q}: interpolant {n}")
            if exp_alpha_closed(prob, n) != table.diffs[n]:
                failures.append(f"q={q}: alpha {n}")
            if system.nus[n] != q / (q - 1):
                failures.append(f"q={q}: nu {n}")
            if exp_t_closed(prob, n) != system.ts[n]:
                failures.append(f"q={q}: T-hat {n}")
            omega = nodal_polynomial(prob.samples.grid, n + 2)
            for z in probes:
                if exp_v_alt_eval(prob, n, z) != system.ts[n](z) / omega(z):
                    failures.append(f"q={q}: V route at n={n}, z={z}")
    doubling = ExpGridProblem(F(2), 5)
    for n in range(6):
        p = exp_interpolant_closed(doubling, n)
        for m in range(n + 1):
            if p(F(m)) != 2 ** m:
                failures.append(f"2^z grid: P_{n}({m})")
    verdict("exponential-grid closed forms match the generic machinery",
            failures)


def test_contour_quadrature_cross_check():
    h = math.log(2.0)
    failures = []
    started = time.perf_counter()
    for k in range(6):
        value = hermite_divided_difference(h, k)
        expected = 1.0 / math.factorial(k)  # (q-1)^k/k! at q = 2
        if abs(value - expected) >= 1e-8:
            failures.append(f"divided difference k={k}: {abs(value - expected):.2e}")
    prob = ExpGridProblem(F(2), 3)
    family = monic_family(prob.samples, 4)
    diagonal = build_system(family, 3).diagonal
    for n in range(4):
        for m in range(4):
            value = contour_biortho_check(h, n, m)
            expected = float(diagonal[n]) if n == m else 0.0
            if abs(value - expected) >= 1e-8:
                failures.append(f"pairing ({n},{m}): {abs(value - expected):.2e}")
    base = default_circle(2)
    other = Circle(center=0.75 + 0j, radius=base.radius + 2.5, sample_count=2048)
    disagreement = abs(contour_biortho_check(h, 1, 1, base)
                       - contour_biortho_check(h, 1, 1, other))
    if disagreement >= 1e-8:
        failures.append(f"circles disagree by {disagreement:.2e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    verdict("contour quadrature matches the residue oracle", failures)


def test_normalization_deviations_are_documented(tmp_path, capsys):
    failures = []
    text = README.read_text() if README.exists() else ""
    for marker in ("-1/(nu_n * alpha_n)", "+1/alpha_n", "1/F", "[[-1/2, 0], [0, -1]]"):
        if marker not in text:
            failures.append(f"README lacks {marker!r}")

    problem = tmp_path / "anchor.json"
    problem.write_text(json.dumps(
        {"nodes": ["0", "1", "2"], "values": ["1", "2", "5"], "mode": "exact"}))
    code = cli_main(["check-biortho", str(problem), "--n-max", "1"])
    report = json.loads(capsys.readouterr().out)
    if code != 0:
        failures.append(f"check-biortho exited {code}")
    notes = " ".join(report.get("notes", []))
    if "-1/(nu_n*alpha_n)" not in notes or "+1/alpha_n" not in notes:
        failures.append("check-biortho notes omit the diagonal deviation")
    if "weight" not in notes:
        failures.append("check-biortho notes omit the expansion weight deviation")
    verdict("normalization deviations documented in README and check output",
            failures)
