"""Exhaustive and randomized verification suites.

Exhaustive sweeps over a group run on integer index tables (``KGroupTable``)
built from integers: an element's index is a closed form of its exponents
and shift, the exponent rows and p-th powers are closed forms on those
integers, and the projection images (``phi_data``) are
``projection.site_image_rows`` on those rows.  Every suite's
scalar-commuting pairs come from one self-join on exponents
(``scalar_pairs``), and their products from ``index_of`` on summed
exponents, so the exhaustive homomorphism law needs no Cayley table and no
object-API element; only the lemma1 suite and the tests build an n x n
array.  That law is decided for every site count from flat pair rows in
row-major (i, j) order (``_phi_pair_rows``): cyclic convolutions of
per-key defect histograms count the commuting torsion pairs and their
failures, each count one dot product read at 0, and no tuple of sites is
listed; only the convolutions of 2..n-1 sites, which the next site count
and the witness search read, are built in full.
Randomized suites draw from seeded generators, so re-running a suite with
the same configuration reproduces it bit for bit.  One loop draws the
integers of site pairs into flat columns of kinds, head exponents, shifts,
commutants, partner fields and swaps (``draw_site_pairs``); the object-API
generators build elements from one pair of it, and the commutator check of
``suite_phi`` reads the columns into table indices with numpy.

numpy is loaded on first use: ``np`` starts as a stand-in whose first
attribute read imports numpy and rebinds ``np`` to it, so a process that
builds no index table (the CLI's object-API commands, the reduction
pipeline) never loads it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .cyclo import Phase
from .errors import (
    BudgetExceededError,
    EvenPrimeError,
    LevelError,
    power_over_budget,
    power_text,
    refuse_over_budget,
)
from .kgroup import (
    KElement,
    classify_commuting_pair,
    dihedral_check,
    enumerate_kgroup,
    kgroup_order_exponent,
    maximal_p_torsion_abelian,
    structural_p_torsion,
    summed_rotation_rows,
)
from .ktensor import (
    TensorElement,
    is_isotropic,
    structural_tensor_p_torsion,
    symplectic_form,
)
from .lcs import (
    LCS,
    GeneratorAssignment,
    check_classical,
    check_solution_conditions,
    mermin_fixtures,
    null_space,
    reduce_to_classical,
    solve_classical,
)
from .phase_fn import LevelCoefficients, PhaseFunction, at_level, digit_row, modinv, rotate
from .projection import DISPLAYED, PROOF, HWElement, even_prime_counterexample, phi, site_image_rows


class _NumpyOnFirstUse:
    """numpy until it is first needed: the first attribute read imports it
    and rebinds this module's ``np`` to it, so later reads go straight to
    numpy."""

    def __getattr__(self, name: str):
        global np
        import numpy as np

        return getattr(np, name)


np = _NumpyOnFirstUse()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    count: int = 0
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: dict
    seed: Optional[int]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _report(suite: str, config: dict, checks: Sequence[CheckResult], seed=None) -> SuiteReport:
    return SuiteReport(suite=suite, config=dict(config), seed=seed, checks=tuple(checks))


def _refuse_negative_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"a sample count is non-negative; got {samples}")


# ---------------------------------------------------------------------------
# Indexed group tables
# ---------------------------------------------------------------------------


class KGroupTable:
    """Integer index tables for one single-site group, built from integers.

    Elements are listed in ``itertools.product`` order of their p - 1 head
    exponents at level m (det 1 fixes the last exponent), then by shift, so
    an element's index is a closed form of its integers (``index_of``), and
    the identity is index 0.  The exponent rows and shifts are read off that
    closed form, and the p-th powers and projection images are closed forms
    on them; the object-API ``elements`` are enumerated only when read.  The
    per-element arrays are computed on first use and kept.  The
    scalar-commuting pairs come from a self-join on exponents (``scalar_pairs``);
    the Cayley table ``mul`` is made only for the lemma1 suite and the
    tests that read it.  A group whose n x n table exceeds the enumeration
    budget is refused before anything is built.
    """

    def __init__(self, p: int, m: int):
        _refuse_cayley_table(p, m)
        self.p = p
        self.m = m
        self.pm = p**m
        self.n = p ** kgroup_order_exponent(p, m)
        self._mul: Optional[np.ndarray] = None
        self._phi: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}

    def index_of(self, head, b):
        """The index of the element with level-m head exponents ``head`` (the
        first p - 1) and shift ``b``: the base-p^m number the head spells,
        times p, plus b.  Takes ints, or one integer array per exponent."""
        index = 0
        for e in head:
            index = index * self.pm + e
        return index * self.p + b

    @cached_property
    def elements(self) -> list[KElement]:
        """The object-API elements in index order, checked once against
        ``exps`` and ``b``."""
        elements = enumerate_kgroup(self.p, self.m)
        exps = np.array([at_level(e, self.m) for e in elements], dtype=np.int32)
        shifts = np.array([e.b for e in elements])
        if not ((exps == self.exps).all() and (shifts == self.b).all()):
            raise AssertionError("the elements are not listed in index order")
        return elements

    @cached_property
    def b(self) -> np.ndarray:
        return (np.arange(self.n) % self.p).astype(np.int16)

    @cached_property
    def exps(self) -> np.ndarray:
        """The level-m exponents of every element, one row each: the head
        digits of index // p in base p^m, and minus their sum.  They are
        int32 like the tables: every exponent, and every index, is below n."""
        p, pm = self.p, self.pm
        torus = np.arange(self.n // p)[:, None] // pm ** np.arange(p - 2, -1, -1) % pm
        torus = np.concatenate([torus, -torus.sum(axis=1, keepdims=True) % pm], axis=1)
        return np.repeat(torus.astype(np.int32), p, axis=0)

    def power_indices(self, max_power: int) -> np.ndarray:
        """pow[k, i] = index of elements[i] ** k for k = 0..max_power."""
        out = np.empty((max_power + 1, self.n), dtype=np.int32)
        out[0] = 0
        idx_all = np.arange(self.n)
        for k in range(1, max_power + 1):
            out[k] = self.mul[out[k - 1], idx_all]
        return out

    @cached_property
    def ppow(self) -> np.ndarray:
        """t with element^p = omega^t * 1 when that power is central, else -1.
        A shifted element's p-th power is the identity: its p shifts run
        through Z_p, so it is the constant det 1.  A diagonal's has exponents
        p x mod p^m, central exactly when they are one value y, and then t is
        y / p^(m-1)."""
        p, pm = self.p, self.pm
        y = self.exps * p % pm
        central = (y == y[:, :1]).all(axis=1)
        t = np.where(central, y[:, 0] // (pm // p), -1)
        return np.where(self.b != 0, 0, t).astype(np.int16)

    @cached_property
    def torsion(self) -> np.ndarray:
        return self.ppow == 0

    @cached_property
    def scalar_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, c) for every pair whose commutator is omega^c, in row-major
        order, from a self-join on exponents with no n x n table.

        With x, y the exponents of i = (x, b) and j = (y, b'), the commutator
        has exponents x[q] + y[q - b] - x[q - b'] - y[q].  It is constant
        exactly when x - shift_b' x and y - shift_b y agree after each
        subtracts its q = 0 entry, and c is then the difference of those q = 0
        entries over p^(m-1).  So the join has n entries (s, t), one per shift
        s and diagonal part x_t, keyed by x_t - shift_s x_t less its q = 0
        entry: i = t p + b and j = t' p + b' give omega^c exactly when the
        entries (b', t) and (b, t') share a key.  One sort of the keys and two
        ``searchsorted`` calls list every ordered pair of entries that do."""
        p, pm, n = self.p, self.pm, self.n
        torus = self.exps[::p].astype(np.int64)
        q = np.arange(p)
        # diff[t, s]: the exponents of x_t - shift_s x_t, entry (s, t)
        diff = (torus[:, None, :] - torus[:, (q - q[:, None]) % p]) % pm
        key = ((diff[:, :, 1:] - diff[:, :, :1]) % pm @ pm ** q[p - 2 :: -1]).ravel()
        first = diff[:, :, 0].ravel()
        order = np.argsort(key, kind="stable")
        lo = np.searchsorted(key[order], key, "left")
        counts = np.searchsorted(key[order], key, "right") - lo
        ends = np.cumsum(counts)
        # for each entry e, in index order, every entry f of its key's run
        e = np.repeat(np.arange(n), counts)
        f = order[np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])]
        # e = (b', t), f = (b, t'): i = t p + b, j = t' p + b'
        shift = f % p - e % p
        c = (first[e] - first[f]) % pm // (pm // p)
        # row-major: (i, j, c) packed into one key and sorted
        packed = np.sort(((e + shift) * n + f - shift) * p + c, kind="stable")
        del e, f, shift, c
        i, rest = np.divmod(packed, n * p)
        j, c = np.divmod(rest, p)
        return i.astype(np.int32), j.astype(np.int32), c.astype(np.int16)

    @property
    def mul(self) -> np.ndarray:
        """The Cayley table, built from the exponent arrays: the product
        (xi, b)(xi', b') has exponents xi[q] + xi'[q - b] mod p^m and shift
        b + b', and its index comes from ``index_of``.  The exponents do not
        depend on b', so each shift b takes one product per pair of diagonal
        parts; a product whose last exponent is not minus the sum of its head
        (det != 1) has left the group."""
        if self._mul is None:
            p, pm = self.p, self.pm
            torus = self.exps[::p]
            size = len(torus)
            table = np.empty((self.n, self.n), dtype=np.int32)
            # blocks[t, b, t', b'] is the product of elements t p + b and t' p + b'
            blocks = table.reshape(size, p, size, p)
            shifts = np.arange(p, dtype=np.int32)
            for b in range(p):
                prod = [(torus[:, q, None] + torus[:, (q - b) % p]) % pm for q in range(p)]
                if ((sum(prod[:-1]) + prod[-1]) % pm).any():
                    raise AssertionError("a product left the enumerated group")
                np.add(self.index_of(prod[:-1], 0)[:, :, None], (b + shifts) % p, out=blocks[:, b])
            self._mul = table
        return self._mul

    def phi_data(self, variant: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``site_image_rows`` on ``exps`` and ``b``, kept per variant."""
        if variant not in self._phi:
            self._phi[variant] = site_image_rows(self.p, self.m, self.exps, self.b, variant)
        return self._phi[variant]


def _refuse_cayley_table(p: int, m: int) -> None:
    k = kgroup_order_exponent(p, m)
    if power_over_budget(p, 2 * k):
        size = power_text(p, k)
        raise BudgetExceededError(f"the {size}x{size} Cayley table exceeds the enumeration budget")


@lru_cache(maxsize=4)
def _cached_table(p: int, m: int) -> KGroupTable:
    return KGroupTable(p, m)


def group_table(p: int, m: int) -> KGroupTable:
    """The table of (p, m), kept in a cache keyed by (p, m) alone; the Cayley
    table is admitted against the budget on every call, so lowering the
    budget refuses a table built before."""
    _refuse_cayley_table(p, m)
    return _cached_table(p, m)


group_table.cache_clear = _cached_table.cache_clear


# ---------------------------------------------------------------------------
# Randomized element generation
# ---------------------------------------------------------------------------


def _below(bits: Callable[[int], int], n: int) -> int:
    """``randrange(n)`` for n >= 1 from ``bits = rng.getrandbits``: the
    rejection loop CPython runs, so the same value and the same generator
    state after it, without ``randrange``'s argument checks."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _draw_head(rng: random.Random, p: int, m: int) -> list[int]:
    """The p - 1 free level-m exponents of a det-1 diagonal, as ``randrange(p**m)`` draws them."""
    bits, pm = rng.getrandbits, p**m
    return [_below(bits, pm) for _ in range(p - 1)]


def _torus_table(p: int, m: int, head: Sequence[int]) -> PhaseFunction:
    return PhaseFunction.from_exponents(p, m, [*head, -sum(head) % p**m])


def random_torus_table(rng: random.Random, p: int, m: int) -> PhaseFunction:
    return _torus_table(p, m, _draw_head(rng, p, m))


def random_k_element(rng: random.Random, p: int, m: int, b: Optional[int] = None) -> KElement:
    if b is None:
        b = rng.randrange(p)
    return KElement(random_torus_table(rng, p, m), b)


def random_capable_diagonal(rng: random.Random, p: int, t: Optional[int] = None) -> KElement:
    """A det-1 diagonal whose p-th power is the scalar omega^t: constant
    level-2 part, free level-1 polynomial, det fixed by rejection.  Its det is
    1 exactly when theta1[p - 1] = t mod p: sum_q q^k = -[k = p - 1] mod p."""
    bits = rng.getrandbits
    if t is None:
        t = _below(bits, p)
    while True:
        theta1 = tuple(_below(bits, p) for _ in range(p))
        if theta1[p - 1] % p == t % p:
            coeffs = LevelCoefficients(p, (theta1, (t,) + (0,) * (p - 1)))
            return KElement(coeffs.reconstruct(), 0)


def draw_site_pairs(rng: random.Random, p: int, m: int, count: int) -> tuple[list, ...]:
    """The integers of ``count`` pairs (M, N) with [M, N] = omega^c, in flat
    columns (kind, head, b, c, partner, swapped): every random draw of
    ``count`` calls of ``random_scalar_commuting_site_pair``, each integer by
    the rejection loop of ``_below`` run inline.

    M has shift b[k] and the p - 1 level-m head exponents (det 1 fixes the
    last) that pair k adds to ``head``.  N is made from the fields it adds to
    ``partner``, by kind[k]: 0 ("diag") the diagonal with p - 1 head
    exponents, 1 ("mixed") chi = omega^(a + s q) from (a, s), 2 ("shifted")
    omega^central (M chi)^y from (a, s, y, central).  The pair is listed as
    (N, M) when swapped[k]; c[k] is its commutant as listed."""
    bits, coin, pm = rng.getrandbits, rng.random, p**m
    kp, kq, km = p.bit_length(), (p - 1).bit_length(), pm.bit_length()
    columns = kind, head, b, c, partner, swapped = [], [], [], [], [], []
    alone, both = (head,), (head, partner)
    for _ in range(count):
        r = bits(2)
        while r == 3:
            r = bits(2)
        kind.append(r)
        shift = cc = 0
        flip = False
        if r:
            shift = bits(kq)
            while shift >= p - 1:
                shift = bits(kq)
            shift += 1
            # the slope s (mixed) or b' - 1, for the shift b' of N (shifted)
            lead = bits(kp if r == 1 else kq)
            while lead >= p + 1 - r:
                lead = bits(kp if r == 1 else kq)
        b.append(shift)
        for out in alone if r else both:
            for _ in range(p - 1):
                e = bits(km)
                while e >= pm:
                    e = bits(km)
                out.append(e)
        if r:
            # a (mixed) or c' (shifted)
            x = bits(kp)
            while x >= p:
                x = bits(kp)
        if r == 1:
            partner.append(x)
            partner.append(lead)
            flip = coin() < 0.5
            cc = lead * shift % p if flip else -lead * shift % p
        elif r == 2:
            a = bits(kp)
            while a >= p:
                a = bits(kp)
            central = bits(kp)
            while central >= p:
                central = bits(kp)
            partner.append(a)
            partner.append(x)
            partner.append((lead + 1) * shift ** (p - 2) % p)
            partner.append(central)
            cc = -(lead + 1) * x % p
        c.append(cc)
        swapped.append(flip)
    return columns


def draw_shifted_pair(rng: random.Random, p: int, m: int, c: Optional[int]) -> tuple[list, ...]:
    """One kind-2 pair in ``draw_site_pairs`` columns, drawn as b, b', head,
    c', a, central: N = omega^central (M chi)^y, chi(q) = omega^(a + c' q),
    y b = b' and b' c' = -c, for the given c or a random one."""
    bits = rng.getrandbits
    b = 1 + _below(bits, p - 1)
    bp = 1 + _below(bits, p - 1)
    head = _draw_head(rng, p, m)
    cprime = _below(bits, p) if c is None else (-c) * modinv(bp, p) % p
    a = _below(bits, p)
    partner = [a, cprime, bp * modinv(b, p) % p, _below(bits, p)]
    return [2], head, [b], [(-bp * cprime) % p], partner, [False]


def site_pair_elements(p: int, m: int, columns: tuple) -> tuple[KElement, KElement, int]:
    """The object-API pair (M, N, c) of the one-pair columns of
    ``draw_site_pairs`` or ``draw_shifted_pair``, in its listed order."""
    (kind,), head, (b,), (c,), partner, (swapped,) = columns
    m1 = KElement(_torus_table(p, m, head), b)
    if kind == 0:
        m2 = KElement(_torus_table(p, m, partner), 0)
    else:
        m2 = KElement(PhaseFunction.omega_poly(p, partner[:2]), 0)
        if kind == 2:
            m2 = KElement.central(p, partner[3]) * (m1 * m2) ** partner[2]
    return (m2, m1, c) if swapped else (m1, m2, c)


def random_scalar_commuting_site_pair(
    rng: random.Random, p: int, m: int
) -> tuple[KElement, KElement, int]:
    """A pair (M, M') with [M, M'] = omega^c, sampled across the three case
    shapes; returns (M, M', c)."""
    return site_pair_elements(p, m, draw_site_pairs(rng, p, m, 1))


def random_commuting_torsion_pair(
    rng: random.Random, p: int, m: int, n_sites: int
) -> tuple[TensorElement, TensorElement]:
    """Two exactly commuting p-torsion tensors built site by site: shifted
    pair sites carry the commutant budget, diagonal pair sites carry
    level-2 constants balanced to keep both tensors torsion."""
    n_diag = rng.randrange(n_sites) if n_sites > 1 else 0
    diag_positions = set(rng.sample(range(n_sites), n_diag))
    shifted_positions = [s for s in range(n_sites) if s not in diag_positions]

    sites1: list[Optional[KElement]] = [None] * n_sites
    sites2: list[Optional[KElement]] = [None] * n_sites
    t1 = t2 = 0
    for pos in sorted(diag_positions):
        last = pos == max(diag_positions)
        u1 = (-t1) % p if last else rng.randrange(p)
        sites1[pos] = random_capable_diagonal(rng, p, u1)
        u2 = (-t2) % p if last else rng.randrange(p)
        sites2[pos] = random_capable_diagonal(rng, p, u2)
        t1, t2 = t1 + u1, t2 + u2
    c_total = 0
    for pos in shifted_positions:
        target = (-c_total) % p if pos == shifted_positions[-1] else None
        m1, m2, c = site_pair_elements(p, m, draw_shifted_pair(rng, p, m, target))
        c_total += c
        sites1[pos], sites2[pos] = m1, m2
    e1 = TensorElement.of_sites(sites1)
    e2 = TensorElement.of_sites(sites2)
    return e1, e2


def random_torsion_tensor(rng: random.Random, p: int, m: int, n_sites: int) -> TensorElement:
    """A p-torsion tensor with a random mix of shifted sites and balanced
    capable diagonal sites."""
    n_diag = rng.randrange(n_sites)
    positions = set(rng.sample(range(n_sites), n_diag))
    sites: list[KElement] = []
    t = 0
    diag_left = sorted(positions)
    for pos in range(n_sites):
        if pos in positions:
            u = (-t) % p if pos == diag_left[-1] else rng.randrange(p)
            t += u
            sites.append(random_capable_diagonal(rng, p, u))
        else:
            sites.append(random_k_element(rng, p, m, rng.randrange(1, p)))
    return TensorElement.of_sites(sites)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_lemma1(p: int = 3, m: int = 2, max_power: int = 9) -> SuiteReport:
    """Closed-form power and shifting identities against iterated products,
    exhaustively over the enumerated group."""
    table = group_table(p, m)
    elements = table.elements
    mul = table.mul
    checks = []

    failed = []  # (e, n) at the first power n where each failing e fails
    for e in elements:
        acc = KElement.identity(p)
        for n in range(max_power + 1):
            if e**n != acc:
                failed.append((e, n))
                break
            acc = acc * e
    checks.append(
        CheckResult(
            "power closed form equals iterated product",
            not failed,
            count=len(elements) * (max_power + 1),
            detail=f"{len(failed)} failures, e.g. {failed[0]}" if failed else "",
        )
    )

    # shifted[s, k]: the index of diagonal k with its table shifted by s
    diag = np.flatnonzero(table.b == 0)
    shifted = np.array(
        [[table.index_of(rotate(at_level(elements[j], m), -s)[:-1], 0) for j in diag] for s in range(p)]
    )
    b = table.b.astype(np.int64)
    pow_idx = table.power_indices(max_power)
    prod = mul[:, diag]
    lhs = rhs_chi = np.zeros_like(prod)
    slide_bad = product_bad = 0
    for n in range(max_power + 1):
        en = pow_idx[n, :, None]
        slid = shifted[n * b % p]
        slide_bad += int((mul[en, diag] != mul[slid, en]).sum())
        if n:
            lhs = mul[lhs, prod]
            rhs_chi = mul[rhs_chi, slid]
            product_bad += int((lhs != mul[rhs_chi, en]).sum())
    checks.append(
        CheckResult(
            "powers slide past diagonals through the shift action",
            slide_bad == 0,
            count=table.n * (max_power + 1) * len(diag),
            detail=f"{slide_bad} mismatches" if slide_bad else "",
        )
    )
    checks.append(
        CheckResult(
            "product-with-diagonal power closed form",
            product_bad == 0,
            count=table.n * max_power * len(diag),
            detail=f"{product_bad} mismatches" if product_bad else "",
        )
    )
    return _report("lemma1", {"p": p, "m": m, "max_power": max_power}, checks)


def suite_torsion(p: int = 3, m: int = 2) -> SuiteReport:
    """Direct p-th-power torsion versus the structural characterizations,
    exhaustively for single sites and for two-site tensors, at level <= 2,
    where the structural characterizations are stated."""
    if m >= 3:
        raise LevelError(f"the torsion suite is stated for level <= 2; got m = {m}")
    table = group_table(p, m)
    elements = table.elements
    checks = []

    bad = sum(
        1 for e in elements if e.is_p_torsion() != structural_p_torsion(e)
    )
    checks.append(
        CheckResult(
            "single-site torsion equivalence",
            bad == 0,
            count=len(elements),
            detail=f"{bad} mismatches" if bad else "",
        )
    )

    # one key per site for each predicate, -1 where it cannot hold: the
    # constant of a constant level-2 part (structural), and the p-th power's
    # omega exponent (direct); a two-site tensor is torsion when both keys
    # are set and sum to 0 mod p, so the predicates are compared on pairs of
    # key classes, weighted by the class sizes
    def torsion_pair(s, t):
        return (s >= 0) & (t >= 0) & ((s + t) % p == 0)

    ppow = table.ppow
    theta20 = np.empty(table.n, dtype=np.int64)
    for i, e in enumerate(elements):
        row = (0,) if e.b else digit_row(e.xi, 2)
        theta20[i] = row[0] if len(set(row)) == 1 else -1
    (structural, direct), sizes = np.unique(np.stack([theta20, ppow]), axis=1, return_counts=True)
    differ = torsion_pair(structural[:, None], structural) != torsion_pair(direct[:, None], direct)
    mismatch = int(sizes @ differ @ sizes)
    checks.append(
        CheckResult(
            "two-site structural torsion equals direct computation",
            mismatch == 0,
            count=table.n * table.n,
            detail=f"{mismatch} mismatches" if mismatch else "",
        )
    )

    spot = random.Random(7)
    spot_bad = 0
    for _ in range(500):
        i, j = spot.randrange(len(elements)), spot.randrange(len(elements))
        tensor = TensorElement.of_sites([elements[i], elements[j]])
        expect = bool(torsion_pair(ppow[i], ppow[j]))
        if tensor.is_p_torsion() != expect:
            spot_bad += 1
        if structural_tensor_p_torsion(tensor) != expect:
            spot_bad += 1
    checks.append(
        CheckResult(
            "object-API torsion checks agree with the table data",
            spot_bad == 0,
            count=500,
            detail="",
        )
    )
    return _report("torsion", {"p": p, "m": m}, checks)


def suite_commuting_pairs(p: int = 3, m: int = 2) -> SuiteReport:
    """Classify every scalar-commuting pair, check its c against the join's
    and verify all case witnesses; p = 2 is refused (the split is for odd primes)."""
    if p == 2:
        raise EvenPrimeError("commuting-pair classification needs an odd prime")
    table = group_table(p, m)
    elements = table.elements
    left, right, commutant = table.scalar_pairs
    checks = []
    counts = {1: 0, 2: 0, 3: 0}
    failures = 0
    for i, j, c in zip(left.tolist(), right.tolist(), commutant.tolist()):
        try:
            case = classify_commuting_pair(elements[i], elements[j])
            if case.c != c:
                raise ValueError("the classified commutant is not the join's")
            counts[case.case] += 1
        except ValueError:
            failures += 1
    checks.append(
        CheckResult(
            "every scalar-commuting pair classifies with verified witnesses",
            failures == 0,
            count=len(left),
            detail=f"case counts {counts}" if not failures else f"{failures} failures",
        )
    )
    return _report("commuting-pairs", {"p": p, "m": m}, checks)


def suite_subgroups(p: int = 3, m: int = 2) -> SuiteReport:
    """Maximal p-torsion abelian classification; dihedral structure at p=2."""
    checks = []
    report = maximal_p_torsion_abelian(p, m)
    if p == 2:
        klein = all(k == "center_and_shift" for k in report.kinds)
        checks.append(
            CheckResult(
                "all maximal 2-torsion abelian subgroups are center-and-shift",
                klein,
                count=len(report.subgroups),
                detail=f"kinds {report.kinds}",
            )
        )
        checks.append(
            CheckResult(
                "pairwise intersections equal the center {+1, -1}",
                report.intersections_equal_center and len(report.center) == 2,
                count=len(report.subgroups),
            )
        )
        checks.append(
            CheckResult(
                "dihedral relations and order",
                dihedral_check(m),
                count=2 ** (m + 1),
            )
        )
        return _report("subgroups", {"p": p, "m": m}, checks)

    expected_shift = p ** (m * (p - 1) - 1)
    checks.append(
        CheckResult(
            "exactly one maximal subgroup is the level-1 torus",
            report.torus_count == 1,
            count=len(report.subgroups),
            detail=f"torus subgroups: {report.torus_count}",
        )
    )
    checks.append(
        CheckResult(
            "remaining subgroups are center-and-shift of order p^2",
            report.shift_count == len(report.subgroups) - 1
            and all(
                len(s) == p * p
                for s, k in zip(report.subgroups, report.kinds)
                if k == "center_and_shift"
            ),
            count=report.shift_count,
            detail=f"expected {expected_shift} shift-type, found {report.shift_count}",
        )
    )
    checks.append(
        CheckResult(
            "shift-type subgroup count matches the orbit count",
            report.shift_count == expected_shift,
            count=report.shift_count,
        )
    )
    checks.append(
        CheckResult(
            "pairwise intersections equal the center",
            report.intersections_equal_center,
            count=len(report.subgroups),
        )
    )
    return _report("subgroups", {"p": p, "m": m}, checks)


def suite_decomposition(p: int = 3, m: int = 2, samples: int = 1000, seed: int = 11) -> SuiteReport:
    """Round trip and injectivity of the per-level expansion: exhaustive over
    all qutrit level-2 tables, randomized at p = 5."""
    if m < 0:
        raise LevelError(f"a table level is non-negative; got {m}")
    _refuse_negative_samples(samples)
    # each enumeration below lists p^(mp) or (p^m)^p = p^(mp) items of p entries
    if power_over_budget(p, m * p + 1):
        raise BudgetExceededError(
            f"the {power_text(p, m * p + 1)} table entries exceed the enumeration budget"
        )
    checks = []
    pm = p**m
    tables = [
        PhaseFunction.from_exponents(p, m, exps)
        for exps in itertools.product(range(pm), repeat=p)
    ]
    bad = 0
    for t in tables:
        if t.decompose(m).reconstruct() != t:
            bad += 1
    checks.append(
        CheckResult(
            f"round trip over all {pm}^{p} level-{m} tables",
            bad == 0,
            count=len(tables),
            detail=f"{bad} failures" if bad else "",
        )
    )

    images = set()
    total = 0
    for theta in itertools.product(
        itertools.product(range(p), repeat=p), repeat=m
    ):
        total += 1
        images.add(LevelCoefficients(p, theta).reconstruct())
    checks.append(
        CheckResult(
            "injectivity by counting distinct reconstructions",
            len(images) == total == p ** (m * p),
            count=total,
            detail=f"{len(images)} distinct of {total}",
        )
    )

    rng = random.Random(seed)
    big_bad = 0
    for _ in range(samples):
        exps = [rng.randrange(25) for _ in range(5)]
        t = PhaseFunction.from_exponents(5, 2, exps)
        if t.decompose(2).reconstruct() != t:
            big_bad += 1
    checks.append(
        CheckResult(
            "randomized round trip at p=5, level 2",
            big_bad == 0,
            count=samples,
            detail=f"{big_bad} failures" if big_bad else "",
        )
    )
    return _report(
        "decomposition", {"p": p, "m": m, "samples": samples}, checks, seed=seed
    )


def _phi_pair_rows(table: KGroupTable, variant: str) -> tuple[np.ndarray, ...]:
    """(i, j, key, good, defect): one row per scalar-commuting pair (i, j) of
    projection-capable elements, from ``scalar_pairs`` with no Cayley table.
    ``key`` is (c p + t) p + t' for the commutant omega^c and the p-th powers
    omega^t, omega^t' (capable elements have central p-th powers); ``good``
    holds where the product ij lies in the projection domain and phi(ij) has
    the clock and shift parts of phi(i) phi(j); ``defect`` is the level-2
    scalar defect mod p^2.  The product of (x, b) and (y, b') has exponents
    x[q] + y[q - b] mod p^m and shift b + b', and its index comes from
    ``index_of``.  Rows are the ``scalar_pairs`` rows with an incapable
    element left out, so they stay in row-major (i, j) order."""
    p, pm = table.p, table.pm
    ok, s2, a, b = table.phi_data(variant)
    i, j, c = table.scalar_pairs
    keep = ok[i] & ok[j]
    i, j, c = i[keep], j[keep], c[keep]
    key = (c.astype(np.int32) * p + table.ppow[i]) * p + table.ppow[j]
    x, shift = table.exps.ravel(), table.b[i]
    head = np.zeros(len(i), dtype=np.int32)
    for q in range(p - 1):
        head = head * pm + (x[i * p + q] + x[j * p + (q - shift) % p]) % pm
    prod = head * p + (shift + table.b[j]) % p
    good = ok[prod] & (a[prod] == (a[i] + a[j]) % p) & (b[prod] == (b[i] + b[j]) % p)
    defect = (s2[prod] - s2[i] - s2[j] + p * a[j].astype(np.int32) * b[i]) % (p * p)
    return i, j, key, good, defect


def _phi_site_tuples(table: KGroupTable, variant: str, n: int) -> list[tuple[int, int, Optional[list]]]:
    """For k = 1..n, the exhaustive homomorphism check on k-site commuting
    torsion pairs: the pairs decided, the failures, and the site pairs
    (i, j) of the first failure (None when there is none).

    A k-site pair takes one pair row per site.  It is a commuting torsion
    pair exactly when the row keys (c, t, t') sum to 0 in Z_p^3, and it
    passes when every row is good and the defects sum to 0 mod p^2.  So the
    k-fold cyclic convolutions of the per-key row counts and of the good
    rows' defect histograms, read at 0, count the pairs decided and passed.
    The k-fold one at 0 is a dot product of the histogram's nonzero cells
    with the (k - 1)-fold one at the negated cells, and the one-fold one is
    the histogram itself, so only the 2..n-1-fold convolutions are built in
    full: ``n <= 2`` shifts no array.  The first failure, in lexicographic
    order of the sites' rows, which are row-major in (i, j), is found site
    by site from the convolutions of the sites still open; no tuple is
    listed."""
    p, p2 = table.p, table.p**2
    if not table.phi_data(variant)[0][table.torsion].all():
        raise AssertionError("a torsion element left the projection domain")
    i, j, key, good, defect = _phi_pair_rows(table, variant)
    # counts[c, t, t', 0, 0] is the number of rows of each key, counts[c, t,
    # t', d, 1] the number of its good rows with defect d
    counts = np.zeros((p, p, p, p2, 2), dtype=object)
    counts[..., 0, 0] = np.bincount(key, minlength=p**3).reshape(p, p, p)
    hist = np.bincount(key[good] * p2 + defect[good], minlength=p**3 * p2)
    counts[..., 1] = hist.reshape(p, p, p, p2)
    work = n * np.count_nonzero(counts) * p**5
    refuse_over_budget(work, f"{work} products of the {n}-site convolutions")
    # powers[r]: the r-fold cyclic convolutions over Z_p^3 x Z_{p^2}, of the
    # r sites still open; powers[1] is counts, and a level r >= 2 is built,
    # one shifted copy per nonzero cell, when level r + 1 reads it
    powers = [np.zeros_like(counts), counts]
    powers[0][0, 0, 0, 0] = 1
    cells = np.nonzero(counts.any(axis=-1))
    # the k-fold convolution at 0 pairs each nonzero cell x of counts with
    # the cell -x of the (k - 1)-fold one
    weights = counts[cells]
    opposite = tuple(-axis % size for axis, size in zip(cells, counts.shape))
    parts = np.stack([key // p2, key // p % p, key % p])
    results = []
    for k in range(1, n + 1):
        if k > 2:
            level = np.zeros_like(counts)
            for cell, weight in zip(zip(*cells), weights):
                level += weight * np.roll(powers[k - 2], cell, axis=(0, 1, 2, 3))
            powers.append(level)
        total, passed = (weights * powers[k - 1][opposite]).sum(axis=0)
        sites = None
        if total > passed:
            sites, summed, defects, all_good = [], 0, 0, True
            for rest in reversed(powers[:k]):
                # at every row at once, the tuples that complete the sites
                # chosen and that row, and those of them that pass
                rest = rest.reshape(p**3, p2, 2)
                cell = np.ravel_multi_index(tuple(-(summed + parts) % p), (p, p, p))
                passing = np.where(good & all_good, rest[cell, -(defects + defect) % p2, 1], 0)
                r = np.flatnonzero(passing != rest[cell, 0, 0])[0]
                sites.append((int(i[r]), int(j[r])))
                summed, defects = summed + parts[:, r, None], defects + defect[r]
                all_good &= good[r]
        results.append((total, total - passed, sites))
    return results


def _site_pair_indices(
    table: KGroupTable, rng: random.Random, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table indices (i1, i2) and commutant c of ``count`` pairs from the
    columns of ``draw_site_pairs``, with no Cayley table: M and the diagonals
    from ``index_of``, each shifted partner omega^central (M chi)^y from the
    closed-form power on exponents."""
    p, pm = table.p, table.pm
    scale, q = pm // p, np.arange(p)
    kind, head, b, c, partner, swapped = (
        np.array(column, dtype=np.int64) for column in draw_site_pairs(rng, p, table.m, count)
    )
    head = head.reshape(count, p - 1)
    # field j of each pair's partner is at start + j: its fields follow those
    # of the pairs before it, p - 1, 2 or 4 of them by kind
    width = np.array([p - 1, 2, 4])[kind]
    start = np.cumsum(width) - width
    i1, i2 = table.index_of(head.T, b), np.zeros(count, dtype=np.int64)
    diag, mixed, shifted = (kind == k for k in range(3))
    i2[diag] = table.index_of(partner[start[diag] + np.arange(p - 1)[:, None]], 0)
    a, s = partner[start[mixed] + np.arange(2)[:, None]]
    i2[mixed] = table.index_of((a + s * q[:-1, None]) % p * scale, 0)
    # M chi = (x + shift_b chi, b) with chi = omega^(a + s q) at level m
    a, s, y, central = partner[start[shifted] + np.arange(4)[:, None]]
    x, b = head[shifted], b[shifted]
    x = np.concatenate([x, -x.sum(axis=1, keepdims=True) % pm], axis=1)
    x += (a[:, None] + s[:, None] * (q - b[:, None])) % p * scale
    power = (summed_rotation_rows(x, b, y) + central[:, None] * scale) % pm
    i2[shifted] = table.index_of(power.T[:-1], y * b % p)
    return np.where(swapped, i2, i1), np.where(swapped, i1, i2), c


def _phi_commutators(table: KGroupTable, variant: str, rng: random.Random) -> tuple[int, int]:
    """The commutator check on 2,000 drawn scalar-commuting site pairs: the
    number of pairs of torsion elements, and of those whose images have a
    symplectic form other than the pair's commutant."""
    a, b = (x.astype(np.int64) for x in table.phi_data(variant)[2:])
    i1, i2, c = _site_pair_indices(table, rng, 2000)
    torsion = table.torsion[i1] & table.torsion[i2]
    bad = (a[i1] * b[i2] - a[i2] * b[i1] - c) % table.p != 0
    return int(torsion.sum()), int((bad & torsion).sum())


def suite_phi(
    p: int = 3,
    m: int = 2,
    n: int = 2,
    variant: str = PROOF,
    samples: int = 10000,
    seed: int = 23,
) -> SuiteReport:
    """The homomorphism law on commuting torsion pairs: exhaustive over the
    (p, m) group for every site count k = 1..n, one check each; randomized
    up to three sites; plus torsion, center, and commutator preservation and
    the negative controls.

    The randomized section always draws at p = 5, m = 2, whatever ``p`` and
    ``m`` are; the report's config does not say so.  The law is stated for
    odd primes, so p = 2 is refused before any table is built."""
    if n < 1:
        raise ValueError(f"a site count is positive; got {n}")
    _refuse_negative_samples(samples)
    if p == 2:
        raise EvenPrimeError("the homomorphism law needs an odd prime")
    checks = []
    table = group_table(p, m)
    torsion_idx = np.flatnonzero(table.torsion)
    s2, a, b = (x.astype(np.int64) for x in table.phi_data(variant)[1:])

    for k, (total, failures, sites) in enumerate(_phi_site_tuples(table, variant, n), 1):
        detail = ""
        if failures:
            elements = table.elements
            left, right = (", ".join(repr(elements[x]) for x in side) for side in zip(*sites))
            witness = f"{left} vs {right}" if k == 1 else f"E = ({left}), E' = ({right})"
            detail = f"{failures} failures, e.g. {witness}"
        word = {1: "single", 2: "two"}.get(k, k)
        checks.append(
            CheckResult(
                f"{word}-site homomorphism on all commuting torsion pairs",
                failures == 0,
                count=total,
                detail=detail,
            )
        )

    # randomized large-prime sweep
    rng = random.Random(seed)
    rand_bad = 0
    for _ in range(samples):
        sites = rng.randrange(1, 4)
        e1, e2 = random_commuting_torsion_pair(rng, 5, 2, sites)
        if not e1.commutes_with(e2):
            raise AssertionError("generator produced a non-commuting pair")
        if phi(e1 * e2, variant) != phi(e1, variant) * phi(e2, variant):
            rand_bad += 1
    checks.append(
        CheckResult(
            "randomized homomorphism at p=5, up to three sites",
            rand_bad == 0,
            count=samples,
            detail=f"{rand_bad} failures" if rand_bad else "",
        )
    )

    # torsion, center, commutator preservation; (c Z^a X^b)^p has the
    # scalar exponent p s2 - p^2 a b (p - 1)/2 mod p^2 and no Z or X part
    tor_bad = int(np.count_nonzero((p * s2 - p * p * a * b * (p - 1) // 2)[torsion_idx] % (p * p)))
    checks.append(
        CheckResult(
            "projection preserves torsion",
            tor_bad == 0,
            count=len(torsion_idx),
            detail=f"{tor_bad} failures" if tor_bad else "",
        )
    )
    center_ok = all(
        phi(TensorElement.scalar(Phase.omega(p, c), 2), variant)
        == HWElement.scalar(Phase.omega(p, c), 2)
        for c in range(p)
    )
    checks.append(CheckResult("projection fixes the center", center_ok, count=p))

    comm_count, comm_bad = _phi_commutators(table, variant, random.Random(seed + 1))
    checks.append(
        CheckResult(
            "projection preserves scalar commutators on torsion sites",
            comm_bad == 0,
            count=comm_count,
            detail=f"{comm_bad} failures" if comm_bad else "",
        )
    )

    # negative controls: the displayed/affine truncation breaks on the
    # balanced level-2 pair, with discrepancy exactly omega
    e = _remark_pair(3)
    lhs = phi(e * e, DISPLAYED)
    rhs = phi(e, DISPLAYED) * phi(e, DISPLAYED)
    discrepancy = lhs.c * rhs.c.inverse() if lhs.a == rhs.a and lhs.b == rhs.b else None
    checks.append(
        CheckResult(
            "affine truncation fails on the balanced level-2 pair",
            lhs != rhs and discrepancy == Phase.omega(3),
            count=1,
            detail=f"discrepancy {discrepancy!r}",
        )
    )
    proof_ok = phi(e * e, PROOF) == phi(e, PROOF) * phi(e, PROOF)
    checks.append(
        CheckResult("carry-tracking variant passes on the same pair", proof_ok, count=1)
    )
    return _report(
        "phi",
        {"p": p, "m": m, "n": n, "variant": variant, "samples": samples},
        checks,
        seed=seed,
    )


def _remark_pair(p: int) -> TensorElement:
    """The det-normalized two-site diagonal tensor whose site level-2
    constants are 1 and p-1: torsion, but its square defeats the affine
    truncation."""
    site1 = LevelCoefficients(p, ((0,) * 2 + (1,) + (0,) * (p - 3), (1,) + (0,) * (p - 1)))
    site2 = LevelCoefficients(
        p, ((0,) * 2 + (p - 1,) + (0,) * (p - 3), (p - 1,) + (0,) * (p - 1))
    )
    return TensorElement.of_sites(
        [KElement(site1.reconstruct(), 0), KElement(site2.reconstruct(), 0)]
    )


def suite_symplectic(
    p: int = 3, m: int = 2, samples: int = 10000, seed: int = 37
) -> SuiteReport:
    """Commutator exponent equals the symplectic form of extracted vectors:
    exhaustive for single sites, randomized for two and three sites.  The
    law is stated for odd primes, so p = 2 is refused at every sample
    count."""
    _refuse_negative_samples(samples)
    if p == 2:
        raise EvenPrimeError("the symplectic law needs an odd prime")
    table = group_table(p, m)
    elements = table.elements
    checks = []

    vectors = [TensorElement.of_sites([e]).symplectic_vector() for e in elements]
    fbar = np.array([v.fbar[0] for v in vectors], dtype=np.int64)
    bbar = np.array([v.bbar[0] for v in vectors], dtype=np.int64)
    i, j, c = table.scalar_pairs
    bad = (fbar[i] * bbar[j] - fbar[j] * bbar[i]) % p != c
    detail = ""
    if bad.any():
        k = int(np.argmax(bad))
        detail = f"{int(bad.sum())} mismatches, e.g. {elements[i[k]]!r} vs {elements[j[k]]!r}"
    checks.append(
        CheckResult(
            "single-site symplectic law over all scalar-commuting pairs",
            not bad.any(),
            count=len(bad),
            detail=detail,
        )
    )

    rng = random.Random(seed)
    rand_bad = 0
    for _ in range(samples):
        n_sites = rng.choice((2, 3))
        sites1, sites2 = [], []
        for _ in range(n_sites):
            m1, m2, _ = random_scalar_commuting_site_pair(rng, p, m)
            sites1.append(m1)
            sites2.append(m2)
        e1 = TensorElement.of_sites(sites1)
        e2 = TensorElement.of_sites(sites2)
        c = e1.commutator_exponent(e2)
        if c is None:
            raise AssertionError("generator produced a non-scalar commutator")
        if symplectic_form(e1.symplectic_vector(), e2.symplectic_vector()) != c:
            rand_bad += 1
    checks.append(
        CheckResult(
            "randomized symplectic law on two- and three-site tensors",
            rand_bad == 0,
            count=samples,
            detail=f"{rand_bad} mismatches" if rand_bad else "",
        )
    )

    # abelian families have isotropic vectors
    iso_bad = 0
    for _ in range(200):
        base = random_torsion_tensor(rng, p, m, 2)
        family = [base**k for k in range(1, p)]
        vecs = [f.symplectic_vector() for f in family]
        if not is_isotropic(vecs):
            iso_bad += 1
    checks.append(
        CheckResult(
            "powers of one torsion tensor give isotropic vectors",
            iso_bad == 0,
            count=200,
            detail=f"{iso_bad} failures" if iso_bad else "",
        )
    )
    return _report(
        "symplectic", {"p": p, "m": m, "samples": samples}, checks, seed=seed
    )


def _random_combination(rng: random.Random, basis: list[list[int]], p: int) -> list[int]:
    out = [0] * len(basis[0])
    for vec in basis:
        coef = rng.randrange(p)
        out = [(o + coef * v) % p for o, v in zip(out, vec)]
    return out


def _random_solution_instance(
    rng: random.Random, p: int, style: str
) -> tuple[LCS, GeneratorAssignment]:
    """A constraint system together with a quantum solution of the requested
    shape: central scalars, a commuting level-1 diagonal family, or powers of
    one torsion tensor against the center."""
    while True:
        n_gens = rng.randrange(2, 5)
        n_sites = rng.randrange(1, 3)
        if style == "central":
            x = [rng.randrange(p) for _ in range(n_gens)]
            rows = [
                [rng.randrange(p) for _ in range(n_gens)]
                for _ in range(rng.randrange(1, 4))
            ]
            system = LCS(
                p,
                tuple(tuple(r) for r in rows),
                tuple(sum(a * v for a, v in zip(r, x)) % p for r in rows),
            )
            return system, GeneratorAssignment.from_classical(p, x, n_sites)
        if style == "diagonal":
            slopes = [[rng.randrange(p) for _ in range(n_sites)] for _ in range(n_gens)]
            intercepts = [
                [rng.randrange(p) for _ in range(n_sites)] for _ in range(n_gens)
            ]
            gens = [
                TensorElement.of_sites(
                    [
                        KElement(PhaseFunction.omega_poly(p, (a, s)), 0)
                        for a, s in zip(intercepts[k], slopes[k])
                    ]
                )
                for k in range(n_gens)
            ]
            null = null_space([list(col) for col in zip(*slopes)], p)
            consts = [sum(ic) for ic in intercepts]
        else:
            base = random_torsion_tensor(rng, p, 2, n_sites)
            exps = [rng.randrange(p) for _ in range(n_gens)]
            consts = [rng.randrange(p) for _ in range(n_gens)]
            gens = [
                TensorElement.scalar(Phase.omega(p, a), n_sites) * base**e
                for a, e in zip(consts, exps)
            ]
            null = null_space([exps], p)
        if not null:
            continue
        rows = [_random_combination(rng, null, p) for _ in range(3)]
        b_vals = [sum(r_k * a for r_k, a in zip(row, consts)) % p for row in rows]
        system = LCS(p, tuple(tuple(r) for r in rows), tuple(b_vals))
        return system, GeneratorAssignment.with_default_j(gens)


def suite_pipeline(
    primes: Sequence[int] = (3, 5), trials: int = 40, seed: int = 53
) -> SuiteReport:
    """Reduction of constructed quantum solutions to classical ones, and the
    lifting of classical solutions back to scalar quantum solutions."""
    rng = random.Random(seed)
    checks = []
    for p in primes:
        reduced_ok = 0
        lifted_ok = 0
        for trial in range(trials):
            style = ("central", "diagonal", "cyclic")[trial % 3]
            system, assignment = _random_solution_instance(rng, p, style)
            x = reduce_to_classical(system, assignment)
            if check_classical(system, x):
                reduced_ok += 1
            classical = solve_classical(system)
            if classical is not None:
                lift = GeneratorAssignment.from_classical(p, classical, assignment.n_sites)
                if check_solution_conditions(system, lift).is_quantum_solution:
                    lifted_ok += 1
        checks.append(
            CheckResult(
                f"p={p}: reductions pass the classical check",
                reduced_ok == trials,
                count=trials,
                detail=f"{reduced_ok}/{trials}",
            )
        )
        checks.append(
            CheckResult(
                f"p={p}: classical solutions lift to quantum solutions",
                lifted_ok == trials,
                count=trials,
                detail=f"{lifted_ok}/{trials}",
            )
        )
    return _report(
        "pipeline", {"primes": list(primes), "trials": trials}, checks, seed=seed
    )


def suite_even_prime() -> SuiteReport:
    """The p = 2 boundary: the counterexample pair, the dihedral isomorphism,
    the refusal of the reduction, and the surviving square solution."""
    checks = []
    report = even_prime_counterexample()
    checks.append(
        CheckResult(
            "counterexample pair: squares, commutation, product value",
            report.squares_are_identity
            and report.pair_commutes
            and report.product_is_minus_identity,
            count=3,
        )
    )
    minus_one = HWElement.scalar(Phase.omega(2, 1), 1)
    checks.append(
        CheckResult(
            "projection of the product is -1 while images multiply to +1",
            report.homomorphism_fails
            and report.phi_of_product == minus_one
            and report.phi_product_of_images == HWElement.identity(2, 1),
            count=1,
        )
    )
    fixtures = mermin_fixtures()
    square_report = check_solution_conditions(fixtures.square, fixtures.square_assignment)
    checks.append(
        CheckResult(
            "square operator assignment remains a quantum solution",
            square_report.is_quantum_solution,
            count=3,
        )
    )
    refused = False
    try:
        reduce_to_classical(fixtures.square, fixtures.square_assignment)
    except EvenPrimeError:
        refused = True
    checks.append(CheckResult("reduction refuses p = 2", refused, count=1))
    return _report("even-prime", {}, checks)


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "lemma1": suite_lemma1,
    "torsion": suite_torsion,
    "commuting-pairs": suite_commuting_pairs,
    "subgroups": suite_subgroups,
    "decomposition": suite_decomposition,
    "phi": suite_phi,
    "symplectic": suite_symplectic,
    "pipeline": suite_pipeline,
    "even-prime": suite_even_prime,
}
