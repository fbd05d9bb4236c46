"""Ordered products of powers as left folds: the reference for
``product_of_powers`` and for the constraint rows of
``check_solution_conditions``.

Tensors are folded site by site, each power a loop of ``KElement``
products (of the site or of its inverse) and the global phase a ``Phase``
power, so no tensor ``*`` or ``**`` is used.  Heisenberg-Weyl elements are
folded with their own ``*`` and ``**``, which do not go through
``product_of_powers``.
"""

from __future__ import annotations

from lcsmbqc import KElement, Phase, TensorElement
from lcsmbqc.projection import HWElement


def site_power(site: KElement, n: int) -> KElement:
    """site^n as |n| products of the site, or of its inverse for n < 0."""
    step = site if n >= 0 else site.inverse()
    out = KElement.identity(site.p)
    for _ in range(abs(n)):
        out = out * step
    return out


def fold_tensor_product(p: int, n_sites: int, factors) -> TensorElement:
    phase = Phase.one(p)
    sites = [KElement.identity(p)] * n_sites
    for g, n in factors:
        phase = phase * g.global_phase**n
        sites = [s * site_power(t, n) for s, t in zip(sites, g.sites)]
    return TensorElement(phase, sites)


def fold_hw_product(p: int, n_sites: int, factors) -> HWElement:
    out = HWElement.identity(p, n_sites)
    for g, n in factors:
        out = out * g**n
    return out
