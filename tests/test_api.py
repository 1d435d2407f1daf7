"""The public surface: exported names, and copying or pickling exact values."""

import copy
import pickle

import pytest

import vtl
from vtl.diagrams import e_diagram, identity_diagram
from vtl.elements import AlgebraElement
from vtl.expressions import gen_e, gen_v
from vtl.linalg import DenseMatrix
from vtl.scalars import QuadScalar


def test_every_exported_name_resolves():
    missing = [name for name in vtl.__all__ if not hasattr(vtl, name)]
    assert not missing


ROOT5 = QuadScalar(1, 2, 5)
VALUES = [
    ROOT5,
    e_diagram(1, 3),
    AlgebraElement(2, {identity_diagram(2): ROOT5, e_diagram(1, 2): QuadScalar(-3)}),
    gen_e(1).scale(ROOT5) + gen_v(2),
    DenseMatrix([[ROOT5, 0, 0], [0, 0, QuadScalar(1, 2)]]),
    DenseMatrix.zero(0, 3),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_exact_values_copy_and_pickle(value, clone):
    out = clone(value)
    assert type(out) is type(value)
    assert out == value
