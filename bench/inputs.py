"""Seeded input generation shared by every workload.

Input i of a workload is a function of the workload name, the seed and i
alone, so the same seed always gives the same inputs.  Nothing here imports
the library.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import reference

# One random input in PLANT_PERIOD gets a planted zero alpha or zero nu, so
# that typed rejections are exercised at about the rate random data of small
# height hits them (3%).
PLANT_PERIOD = 33
PLANT_AT = 16

# Nonzero exponent scales h for e**(h z) on the contour workloads; |h| up
# to 2 covers q = e**h from about 1/7 to 7, as exp-example's rational q do.
H_VALUES = tuple(sign * k / 4 for k in range(1, 9) for sign in (1, -1))


def item_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def rational(rng: random.Random, height: int = 30, den: int = 12,
             nonzero: bool = True) -> Fraction:
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, den))
        if value or not nonzero:
            return value


def distinct_rationals(rng: random.Random, count: int, height: int = 30,
                       den: int = 12) -> list:
    out: list = []
    while len(out) < count:
        value = rational(rng, height, den, nonzero=False)
        if value not in out:
            out.append(value)
    return out


def probe_points(rng: random.Random, nodes) -> list:
    """Two rationals off the grid, where polynomial identities are checked."""
    out: list = []
    while len(out) < 2:
        z = Fraction(rng.randint(-97, 97), rng.choice((13, 17, 19, 23)))
        if z not in nodes and z not in out:
            out.append(z)
    return out


def plant_degeneracy(rng: random.Random, nodes: list, values: list, kind: int,
                     top: int) -> None:
    """Change one value so that alpha_k = 0 (kind 0, 1 <= k <= top) or
    nu_n = 0 (kind 1, n < top); values stay nonzero."""
    for _ in range(50):
        if kind == 0:
            index = rng.randint(1, top)
            ref = reference.family_reference(nodes[:index + 1], values[:index + 1], ())
            target = Fraction(0)
        else:
            n = rng.randint(0, top - 1)
            index = n + 1
            ref = reference.family_reference(nodes[:index + 1], values[:index + 1], ())
            alphas = ref.alphas
            if any(a == 0 for a in alphas[:index]):
                continue
            c = (alphas[n - 1] / alphas[n] if n else 0) - (nodes[n + 1] - nodes[n])
            if c == 0:
                continue
            target = alphas[n] / c
        own = math.prod(nodes[index] - nodes[s] for s in range(index))
        value = values[index] + own * (target - ref.alphas[index])
        if value != 0:
            values[index] = value
            return
