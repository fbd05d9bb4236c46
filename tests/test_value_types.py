"""The slotted, immutable value types copy and pickle through their
unchecked builders, and the tensor identity and scalars keep the
constructor's refusals."""

import copy
import pickle

import pytest

from lcsmbqc import KElement, Phase, PhaseFunction, TensorElement
from lcsmbqc.errors import ShapeMismatchError
from lcsmbqc.phase_fn import LevelCoefficients
from lcsmbqc.projection import HWElement


def _values():
    theta = Phase(5, 2, 7)
    xi = PhaseFunction.from_exponents(5, 2, (3, 7, 11, 2, 2))
    site = KElement(xi, 3)
    tensor = TensorElement(theta, (site, KElement.clock(5), KElement.identity(5)))
    return {
        "Phase": theta,
        "PhaseFunction": xi,
        "KElement": site,
        "TensorElement": tensor,
        "HWElement": HWElement(Phase(5, 2, 10), (1, 2, 0), (3, 0, 4)),
    }


@pytest.mark.parametrize("name", sorted(_values()))
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_value_types_copy_and_pickle(name, clone):
    value = _values()[name]
    out = clone(value)
    assert type(out) is type(value) and type(out).__name__ == name
    assert out == value and hash(out) == hash(value)
    assert out * value == value * value


def test_tensor_identity_and_scalar_refusals():
    assert TensorElement.identity(5, 3) == TensorElement.of_sites([KElement.identity(5)] * 3)
    w = Phase.omega(5, 2)
    assert TensorElement.scalar(w, 2) == TensorElement(w, [KElement.identity(5)] * 2)
    assert TensorElement.scalar(w, 2).as_scalar() == w
    for n_sites in (0, -1):
        with pytest.raises(ShapeMismatchError):
            TensorElement.identity(5, n_sites)
        with pytest.raises(ShapeMismatchError):
            TensorElement.scalar(w, n_sites)
    with pytest.raises(ValueError, match="p must be prime"):
        TensorElement.identity(6, 2)


@pytest.mark.parametrize(
    "cls, data, field, kind",
    [
        (LevelCoefficients, {"p": "5", "theta": [[1, 2]]}, "p", "str"),
        (LevelCoefficients, {"p": 5, "theta": [[1, True]]}, "theta", "bool"),
        (HWElement, {"c": {"p": 5, "M": 0, "e": 0}, "a": ["1"], "b": [0]}, "a", "str"),
        (HWElement, {"c": {"p": 5, "M": 0, "e": 0}, "a": [1], "b": [False]}, "b", "bool"),
    ],
    ids=["levels-p", "levels-theta", "hw-a", "hw-b"],
)
def test_from_json_takes_only_integers(cls, data, field, kind):
    """Integer fields read from JSON refuse a string or a boolean by name."""
    with pytest.raises(TypeError, match=f"JSON field '{field}' takes integers, got {kind}"):
        cls.from_json(data)
