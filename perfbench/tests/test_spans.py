"""Span-tree arithmetic and the installation of span wrappers."""

import lcsmbqc
from lcsmbqc import lcs, projection
from lcsmbqc.kgroup import KElement
from lcsmbqc.ktensor import TensorElement

import spans


def test_self_time_arithmetic_on_a_synthetic_tree():
    ticks = iter([0, 1, 2, 3, 4, 5, 7, 8, 9, 10])
    tree = spans.SpanTree(clock=lambda: next(ticks))
    tree.enter("kgroup.A")      # 0 .. 10
    tree.enter("ktensor.B")     # 1 .. 4
    tree.enter("ktensor.C")     # 2 .. 3
    tree.exit()
    tree.exit()
    tree.enter("ktensor.B")     # 5 .. 7
    tree.exit()
    tree.enter("kgroup.A")      # 8 .. 9, recursive
    tree.exit()
    tree.exit()

    assert tree.self_by_module() == {"kgroup": 4 + 1, "ktensor": 2 + 2 + 1}
    assert sum(tree.self_by_module().values()) == 10
    assert tree.inclusive("kgroup.A") == 10  # the recursive call is not counted twice
    assert tree.inclusive("ktensor.B") == 3 + 2
    assert tree.inclusive("ktensor.C", under="ktensor.B") == 1
    assert tree.inclusive("ktensor.C", under="kgroup.Z") == 0
    assert tree.calls("kgroup.A") == 2
    assert tree.calls("ktensor.C", under="ktensor.B") == 1


def test_instrumentation_counts_calls_and_uninstalls_cleanly():
    original_phi = projection.phi
    original_mul = KElement.__mul__
    tree = spans.SpanTree()
    instrumentation = spans.Instrumentation(tree)
    instrumentation.install()
    try:
        assert lcs.phi is projection.phi is lcsmbqc.phi is not original_phi
        x = KElement.shift(3)
        tree.active = True
        projection.phi(TensorElement.of_sites([x * x]))
        tree.active = False
        projection.phi(TensorElement.of_sites([x * x]))  # inactive: not recorded
    finally:
        instrumentation.uninstall()
    assert projection.phi is lcs.phi is lcsmbqc.phi is original_phi
    assert KElement.__mul__ is original_mul
    assert tree.calls("kgroup.KElement.__mul__") == 1
    assert tree.calls("projection.phi") == 1
    # b = 2 reduces once to the unit-shift case, so phi_local recurses
    assert tree.calls("projection.phi_local", under="projection.phi") == 2
    assert tree.counts["cyclo.phase_new"] > 0
    assert tree.inclusive("projection.phi") > 0
