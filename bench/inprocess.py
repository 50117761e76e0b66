"""The in-process workloads: seeded inputs, the timed operation, and its
verification against `reference`.

Each operation is the library pipeline behind one CLI subcommand, assembled
from calls into the public functions of `biorthopoly`.  Every such call goes
through `call(name, fn, *args)`, so a traced run can time each layer from
outside the library.

Sizes cycle through a fixed order, so every seed runs the same mix of sizes
and only the numbers differ.  Operation cost grows steeply with N, so the
latency distribution is a set of clusters, one per size; a quantile that
fell between two clusters would jump from run to run.  The cycles therefore
weight one size at the middle rank (six of twenty operations, around p50)
and one at the top (four of twenty, around p90), interleaved by a stride of
seven so that a run ending mid-cycle still has the full mix.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

from biorthopoly import (
    DegenerateInterpolant,
    ExpGridProblem,
    NuVanishes,
    Polynomial,
    Samples,
    ZeroSampleValue,
    biorthogonality,
    biorthogonality_matrix,
    build_system,
    contour,
    contour_biortho_check,
    divided_differences_recursive,
    exp_alpha_closed,
    exp_interpolant_closed,
    exp_t_closed,
    expand_in_interpolants,
    family_from_recurrence,
    hermite_divided_difference,
    monic_family,
)

import reference
from inputs import (
    H_VALUES,
    PLANT_AT,
    PLANT_PERIOD,
    distinct_rationals,
    item_rng,
    plant_degeneracy,
    probe_points,
    rational,
)
from yardstick import FractionYardstick

TYPED_REJECTIONS = (DegenerateInterpolant, NuVanishes, ZeroSampleValue)

# Float accuracy is measured against exact references, not gated: an
# operation whose diagonal misses the library's default relative tolerance
# FLOAT_TOL, or whose contour estimate misses the CLI's default absolute
# tolerance CONTOUR_TOL, counts towards float_check_fail_frac.
FLOAT_TOL = 1e-9
CONTOUR_TOL = 1e-8


@contextmanager
def counting(counts):
    """Count residue pairings and contour integrand evaluations at their
    module boundaries for the duration of the block."""
    pairing, integral = biorthogonality.pairing, contour.contour_integral

    def counted_pairing(*args):
        counts["biorthogonality.pairings"] += 1
        return pairing(*args)

    def counted_integral(integrand, circle):
        counts["contour.integrand_evals"] += circle.sample_count
        return integral(integrand, circle)

    biorthogonality.pairing, contour.contour_integral = counted_pairing, counted_integral
    try:
        yield
    finally:
        biorthogonality.pairing, contour.contour_integral = pairing, integral


def coeff_bits(polys) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for c in p.coeffs if isinstance(c, Fraction)), default=0)


def text(values) -> str:
    return ",".join(str(v) for v in values)


def poly_text(polys) -> str:
    return ";".join(text(p.coeffs) for p in polys)


def run_pairing(item, call):
    """The check-biortho pipeline plus expand, to matrix size item.n."""
    n, samples = item.n, item.samples
    family = call("interpolation.monic_family", monic_family, samples, n + 1)
    system = call("biorthogonality.build_system", build_system, family, n)
    matrix = call("biorthogonality.biorthogonality_matrix", biorthogonality_matrix,
                  system, samples, n)
    xi = call("biorthogonality.expand_in_interpolants", expand_in_interpolants,
              item.q_poly, system, samples)
    return family, system, matrix, xi


class InProcessWorkload:
    """What the in-process workloads share: typed-rejection handling, the
    counters at layer boundaries, and no start-up diagnostics."""

    def __init__(self, seed: int):
        self.seed = seed
        self.stats = {}
        self.yardstick = FractionYardstick()

    def check(self, item, out, error) -> list:
        """Problems with one outcome: a typed rejection passes only when
        set-up predicted it; otherwise `_check(item, out)` decides."""
        if error is not None:
            if (isinstance(error, TYPED_REJECTIONS)
                    and (type(error).__name__, error.index) == item.expect):
                return []
            return [f"raised {type(error).__name__}: {error}"]
        if item.expect is not None:
            return [f"expected {item.expect[0]}({item.expect[1]}), got a result"]
        return self._check(item, out)

    counting = staticmethod(counting)

    def digest_text(self, item, out):
        return None

    def coeff_bits(self, out) -> int:
        return 0

    def observe(self, item, tracer) -> None:
        pass

    def startup_medians(self) -> dict:
        return {}


class ExactPairing(InProcessWorkload):
    """Exact mode, random rational data, N = 6..13: the O(N^4) pairing matrix
    does most of the work."""

    name = "exact-pairing"
    sizes = (6, 10, 11, 7, 10, 12, 7, 10, 13, 8, 10, 13, 8, 10, 13, 9, 10, 13, 9, 11)

    def make(self, i: int):
        rng = item_rng(self.name, self.seed, i)
        n = self.sizes[i % len(self.sizes)]
        nodes = distinct_rationals(rng, n + 2)
        values = [rational(rng) for _ in range(n + 2)]
        if i % PLANT_PERIOD == PLANT_AT:
            plant_degeneracy(rng, nodes, values, (i // PLANT_PERIOD) % 2, n + 1)
        q_coeffs = [rational(rng, nonzero=False) for _ in range(n)] + [rational(rng)]
        probes = probe_points(rng, nodes)
        ref = reference.family_reference(nodes, values, probes)
        return SimpleNamespace(
            n=n, samples=Samples.from_pairs(nodes, values), q_coeffs=q_coeffs,
            q_poly=Polynomial(q_coeffs), probes=probes, ref=ref,
            expect=reference.predicted_rejection(ref, n + 1, n))

    def run(self, item, call):
        return run_pairing(item, call)

    @staticmethod
    def _check(item, out) -> list:
        family, system, matrix, xi = out
        n, ref = item.n, item.ref
        problems = []
        if list(family.alphas) != ref.alphas[:n + 2]:
            problems.append("alphas differ from the sum route")
        for j, z in enumerate(item.probes):
            if [p(z) for p in family.phats] != ref.phat_at[j][:n + 2]:
                problems.append("P-hats differ from the Lagrange form")
            if [t(z) for t in system.ts] != ref.that_at[j][:n + 1]:
                problems.append("T-hats differ from the reference")
            if sum(x * ref.phat_at[j][k] for k, x in enumerate(xi)) != \
                    reference.horner(item.q_coeffs, z):
                problems.append("expansion does not reconstruct the polynomial")
        if list(system.nus) != ref.nus[:n + 1]:
            problems.append("nus differ from the closed formula")
        if list(system.diagonal) != ref.diagonal[:n + 1]:
            problems.append("diagonal differs from -1/(nu alpha)")
        if any(matrix[r][c] != (ref.diagonal[r] if r == c else 0)
               for r in range(n + 1) for c in range(n + 1)):
            problems.append("pairing matrix is not the expected diagonal")
        if len(xi) != len(item.q_coeffs):
            problems.append("wrong number of expansion coefficients")
        return problems

    def digest_text(self, item, out) -> str:
        family, system, matrix, xi = out
        return "|".join((text(family.alphas), poly_text(family.phats), text(system.nus),
                         poly_text(system.ts), text(system.diagonal),
                         ";".join(text(row) for row in matrix), text(xi)))

    def coeff_bits(self, out) -> int:
        return coeff_bits(out[0].phats)


def closed_forms(problem, n: int):
    """The exp-example closed forms: every alpha, P_n and T-hat_{n-1}."""
    return ([exp_alpha_closed(problem, k) for k in range(n + 1)],
            exp_interpolant_closed(problem, n), exp_t_closed(problem, n - 1))


class ExactFamily(InProcessWorkload):
    """Exact mode, N = 16..26, half random data and half q**k on 0..N: the
    family and the system do the work; no pairing matrix is built.

    q**k data cost about as much as random data two sizes smaller, so grid
    inputs take N + 2: each size of the cycle is then one cost cluster.
    """

    name = "exact-family"
    sizes = (16, 20, 21, 16, 20, 22, 17, 20, 24, 17, 20, 24, 18, 20, 24, 18, 20, 24, 19, 21)

    def make(self, i: int):
        rng = item_rng(self.name, self.seed, i)
        n = self.sizes[(i // 2) % len(self.sizes)] + 2 * (i % 2)
        problem = None
        if i % 2:
            q = Fraction(1)
            while q in (0, 1):
                q = rational(rng, height=9, den=6)
            problem = ExpGridProblem(q, n - 2)
            nodes, values = list(problem.samples.grid.nodes), list(problem.samples.values)
        else:
            nodes = distinct_rationals(rng, n + 1)
            values = [rational(rng) for _ in range(n + 1)]
            if (i // 2) % PLANT_PERIOD == PLANT_AT:
                plant_degeneracy(rng, nodes, values, (i // (2 * PLANT_PERIOD)) % 2, n)
        probes = probe_points(rng, nodes)
        ref = reference.family_reference(nodes, values, probes)
        return SimpleNamespace(
            n=n, samples=Samples.from_pairs(nodes, values), problem=problem,
            probes=probes, ref=ref, expect=reference.predicted_rejection(ref, n, n - 1))

    def run(self, item, call):
        n, samples = item.n, item.samples
        table = call("divided_differences.divided_differences_recursive",
                     divided_differences_recursive, samples)
        family = call("interpolation.monic_family", monic_family, samples, n)
        rebuilt = call("interpolation.family_from_recurrence", family_from_recurrence,
                       samples.grid, family.alphas, n)
        system = call("biorthogonality.build_system", build_system, family, n - 1)
        closed = None
        if item.problem is not None:
            closed = call("exponential.closed_forms", closed_forms, item.problem, n)
        return table, family, rebuilt, system, closed

    @staticmethod
    def _check(item, out) -> list:
        table, family, rebuilt, system, closed = out
        n, ref = item.n, item.ref
        problems = []
        if list(table.diffs) != ref.alphas or list(family.alphas) != ref.alphas:
            problems.append("alphas differ from the sum route")
        if rebuilt.values != item.samples.values or rebuilt.phats != family.phats:
            problems.append("recurrence round trip changed the family")
        if list(system.nus) != ref.nus[:n] or list(system.diagonal) != ref.diagonal[:n]:
            problems.append("nus or diagonal differ from the closed formula")
        for j, z in enumerate(item.probes):
            if [p(z) for p in family.phats] != ref.phat_at[j]:
                problems.append("P-hats differ from the Lagrange form")
            if [t(z) for t in system.ts] != ref.that_at[j][:n]:
                problems.append("T-hats differ from the reference")
            if closed is not None and (closed[1](z) != ref.p_at[j][n]
                                       or closed[2](z) != ref.that_at[j][n - 1]):
                problems.append("closed-form P_n or T-hat differs from the reference")
        if closed is not None:
            q = item.problem.q
            if closed[0] != ref.alphas or any(nu != q / (q - 1) for nu in system.nus):
                problems.append("closed-form alphas or nus differ")
        return problems

    def digest_text(self, item, out) -> str:
        table, family, rebuilt, system, closed = out
        parts = [text(table.diffs), text(family.alphas), poly_text(family.phats),
                 text(rebuilt.values), poly_text(rebuilt.phats), text(system.nus),
                 poly_text(system.ts), text(system.diagonal)]
        if closed is not None:
            parts += [text(closed[0]), poly_text(closed[1:])]
        return "|".join(parts)

    def coeff_bits(self, out) -> int:
        return coeff_bits(out[1].phats)


class FloatSweep(InProcessWorkload):
    """Float mode, N = 4..22 on random rational nodes and on the grid k/4,
    running the exact-pairing pipeline; one operation in four is a contour
    check instead.  Diagonal and contour accuracy are measured, not gated.

    A slot is a pipeline size or a contour triple (k, n, m).  The contour
    checks, which cost about as much as each other, take the middle ranks
    around p50, and N = 22 the top four, around p90.
    """

    name = "float-sweep"
    slots = (4, (3, 0, 0), 19, 6, (1, 1, 0), 20, 8, (4, 2, 2), 22, 9,
             (2, 3, 1), 22, 10, (0, 1, 3), 22, 11, 16, 22, 12, 18)

    def make(self, i: int):
        rng = item_rng(self.name, self.seed, i)
        slot = self.slots[i % len(self.slots)]
        if isinstance(slot, tuple):
            h = rng.choice(H_VALUES)
            k, n, m = slot
            q = math.exp(h)
            return SimpleNamespace(
                contour=(h, k, n, m), expect=None,
                hermite=(q - 1.0) ** k / math.factorial(k),
                biortho=reference.exp_grid_diagonal(q, n) if n == m else 0.0)
        n = slot
        if (i // len(self.slots)) % 2:
            exact_nodes = [Fraction(k, 4) for k in range(n + 2)]
        else:
            exact_nodes = distinct_rationals(rng, n + 2)
        nodes = [float(a) for a in exact_nodes]
        while True:
            # A zero alpha or nu in exact arithmetic need not come out zero in
            # floating point, nor a rounded one nonzero, so float inputs are
            # drawn from rational data without, and the rounded data checked.
            exact_values = [rational(rng) for _ in range(n + 2)]
            values = [float(v) for v in exact_values]
            ref = reference.family_reference([Fraction(a) for a in nodes],
                                             [Fraction(v) for v in values], ())
            if reference.predicted_rejection(ref, n + 1, n) is None and \
                    reference.predicted_rejection(reference.family_reference(
                        exact_nodes, exact_values, ()), n + 1, n) is None:
                break
        q_coeffs = [float(rational(rng, nonzero=False)) for _ in range(n)]
        q_coeffs.append(float(rational(rng)))
        return SimpleNamespace(
            contour=None, n=n, samples=Samples.from_pairs(nodes, values),
            q_poly=Polynomial(q_coeffs), ref=ref, expect=None)

    def run(self, item, call):
        if item.contour is None:
            return run_pairing(item, call)
        h, k, n, m = item.contour
        return (call("contour.hermite_divided_difference", hermite_divided_difference, h, k),
                call("contour.contour_biortho_check", contour_biortho_check, h, n, m))

    def _check(self, item, out) -> list:
        if item.contour is not None:
            hermite, biortho = out
            if not all(map(math.isfinite, (hermite.real, hermite.imag, biortho.real, biortho.imag))):
                return ["non-finite contour estimate"]
            self._count_float(abs(hermite - item.hermite) >= CONTOUR_TOL
                              or abs(biortho - item.biortho) >= CONTOUR_TOL)
            return []
        family, system, matrix, xi = out
        n = item.n
        problems = []
        numbers = [*family.alphas, *system.nus, *system.diagonal, *xi,
                   *(x for row in matrix for x in row)]
        if not all(math.isfinite(x) for x in numbers):
            return ["non-finite output"]
        if [p.degree for p in family.phats] != list(range(n + 2)) or \
                any(p.leading_coefficient() != 1.0 for p in family.phats):
            problems.append("P-hats are not monic of degree n")
        if len(matrix) != n + 1 or len(xi) != item.q_poly.degree + 1:
            problems.append("wrong output shape")
        worst = max(abs(float(d - e) / float(e))
                    for d, e in zip(map(Fraction, system.diagonal), item.ref.diagonal))
        self.stats["float_relerr_max"] = max(self.stats.get("float_relerr_max", 0.0), worst)
        self._count_float(worst > FLOAT_TOL)
        return problems

    def _count_float(self, missed: bool) -> None:
        self.stats["float_checks"] = self.stats.get("float_checks", 0) + 1
        self.stats["float_check_fails"] = self.stats.get("float_check_fails", 0) + missed


WORKLOADS = {w.name: w for w in (ExactPairing, ExactFamily, FloatSweep)}
