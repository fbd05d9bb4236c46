"""Per-call microbenchmarks of the hot operations of each layer.

Operands are sampled from a workload's own generated inputs (see each
workload's ``operands``), so a change in how values are represented shows
up on the operand mix that the workload actually feeds each layer.
"""

from __future__ import annotations

import operator
import statistics
import time
from typing import Callable, Sequence

from lcsmbqc import lcs, projection

MIN_BATCH_S = 0.05
REPEATS = 5
MAX_OPERANDS = 64


def per_call_us(fn: Callable, operands: Sequence[tuple]) -> float:
    """Median over ``REPEATS`` timed batches of the time of one call, in µs.
    A batch loops over all operands as often as it takes to last at least
    ``MIN_BATCH_S``."""
    operands = list(operands)[:MAX_OPERANDS]
    if not operands:
        return 0.0

    def batch(loops: int) -> float:
        start = time.perf_counter()
        for _ in range(loops):
            for args in operands:
                fn(*args)
        return time.perf_counter() - start

    loops = 1
    while batch(loops) < MIN_BATCH_S:
        loops *= 2
    calls = loops * len(operands)
    return statistics.median(batch(loops) / calls for _ in range(REPEATS)) * 1e6


def _pairs(values: Sequence, key: Callable) -> list[tuple]:
    """Each value paired with the next one of the same key (cyclically), so
    that operands of a binary operation share a prime and a shape."""
    groups: dict = {}
    for v in values:
        groups.setdefault(key(v), []).append(v)
    return [
        pair
        for group in groups.values()
        if len(group) > 1
        for pair in zip(group, group[1:] + group[:1])
    ]


def _projectable(tensors: Sequence) -> list:
    """The tensors inside the projection's domain (p-torsion, with diagonal
    sites of the affine-plus-level-2-constant shape)."""
    out = []
    for t in tensors:
        try:
            projection.phi(t)
        except ValueError:
            continue
        out.append(t)
    return out


def run(pools: dict) -> dict[str, float]:
    """Per-call µs of each layer's hot operation on the given operand pools:
    ``sites`` (KElements), ``tensors`` (TensorElements) and ``systems``
    ((LCS, GeneratorAssignment) pairs)."""
    sites = pools["sites"][:MAX_OPERANDS]
    phases = [v for s in sites for v in s.xi.values][:MAX_OPERANDS]
    tables = [s.xi for s in sites]
    prime = operator.attrgetter("p")
    return {
        "cyclo.mul_us": per_call_us(operator.mul, _pairs(phases, prime)),
        "phase_fn.mul_us": per_call_us(operator.mul, _pairs(tables, prime)),
        "phase_fn.decompose_us": per_call_us(
            lambda xi: xi.decompose(max(1, xi.value_level())), [(t,) for t in tables]
        ),
        "kgroup.mul_us": per_call_us(operator.mul, _pairs(sites, prime)),
        "kgroup.pow_us": per_call_us(lambda a: a**a.p, [(s,) for s in sites]),
        "ktensor.eq_us": per_call_us(
            operator.eq, _pairs(pools["tensors"], operator.attrgetter("p", "n_sites"))
        ),
        "projection.phi_us": per_call_us(
            projection.phi, [(t,) for t in _projectable(pools["tensors"][:MAX_OPERANDS])]
        ),
        "lcs.check_conditions_us": per_call_us(lcs.check_solution_conditions, pools["systems"]),
    }
