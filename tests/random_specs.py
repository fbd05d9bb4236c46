"""Seeded random computation specs for the oracle tests of ``output_table``
and ``measurement_family_report``: p in {2, 3, 5}, one to three sites, zero
to two inputs, and site tables of level 1 or 2 in the special torus (random
ones, or the star base table at odd p)."""

import random

from lcsmbqc import MbqcSpec, PhaseFunction, SiteSpec
from lcsmbqc.mbqc import star_base_function


def random_torus_table(rng: random.Random, p: int, m: int) -> PhaseFunction:
    """A table at level <= m whose exponents sum to 0 mod p^m (det == 1)."""
    pm = p**m
    exps = [rng.randrange(pm) for _ in range(p - 1)]
    return PhaseFunction.from_exponents(p, m, exps + [-sum(exps) % pm])


def random_spec(rng: random.Random) -> MbqcSpec:
    p = rng.choice((2, 3, 5))
    n_inputs = rng.randrange(3)
    sites = []
    for _ in range(rng.randrange(1, 4)):
        if p > 2 and rng.random() < 0.3:
            xi = star_base_function(p)
        else:
            xi = random_torus_table(rng, p, rng.choice((1, 2)))
        coeffs = tuple(rng.randrange(-p, 2 * p) for _ in range(n_inputs + 1))
        sites.append(SiteSpec(xi, coeffs))
    return MbqcSpec(p, n_inputs, tuple(sites))


def random_specs(seed: int, count: int) -> list[MbqcSpec]:
    rng = random.Random(seed)
    return [random_spec(rng) for _ in range(count)]
