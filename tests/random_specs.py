"""Seeded random computation specs for the oracle tests of ``output_table``
and ``measurement_family_report``: by default p in {2, 3, 5}, one to three
sites, zero to two inputs, and site tables of level 1 or 2 in the special
torus (random ones, or the star base table at odd p).  Wider draws add
primes, levels, a fourth site and flat tables, whose steps
exps[q] - exps[q - 1] are constant; the default draws are unchanged."""

import random

from lcsmbqc import MbqcSpec, PhaseFunction, SiteSpec
from lcsmbqc.mbqc import star_base_function


def random_torus_table(rng: random.Random, p: int, m: int) -> PhaseFunction:
    """A table at level <= m whose exponents sum to 0 mod p^m (det == 1)."""
    pm = p**m
    exps = [rng.randrange(pm) for _ in range(p - 1)]
    return PhaseFunction.from_exponents(p, m, exps + [-sum(exps) % pm])


def random_flat_table(rng: random.Random, p: int) -> PhaseFunction:
    """A constant or affine table with det == 1: omega^(a + c q) at odd p,
    and at p = 2 a constant +-1 or +-iZ = diag(+-i, -+i) (step 2 mod 4)."""
    if p == 2:
        return PhaseFunction.from_exponents(2, 2, rng.choice(((0, 0), (2, 2), (1, 3), (3, 1))))
    return PhaseFunction.omega_poly(p, (rng.randrange(p), rng.randrange(p)))


def random_spec(
    rng: random.Random,
    primes: tuple[int, ...] = (2, 3, 5),
    levels: tuple[int, ...] = (1, 2),
    max_sites: int = 3,
    flat: float = 0.0,
) -> MbqcSpec:
    p = rng.choice(primes)
    n_inputs = rng.randrange(3)
    sites = []
    for _ in range(rng.randrange(1, max_sites + 1)):
        if flat and rng.random() < flat:
            xi = random_flat_table(rng, p)
        elif p > 2 and rng.random() < 0.3:
            xi = star_base_function(p)
        else:
            xi = random_torus_table(rng, p, rng.choice(levels))
        coeffs = tuple(rng.randrange(-p, 2 * p) for _ in range(n_inputs + 1))
        sites.append(SiteSpec(xi, coeffs))
    return MbqcSpec(p, n_inputs, tuple(sites))


def random_specs(seed: int, count: int, **draw) -> list[MbqcSpec]:
    rng = random.Random(seed)
    return [random_spec(rng, **draw) for _ in range(count)]
