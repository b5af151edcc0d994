"""Index arithmetic on the implicit looped k-ary tree."""

import pytest

from karyfire.analysis import FlattenedPermutation, PropertyVerdict
from karyfire.bounds import BoundReport
from karyfire.engine import Configuration, FiringMove
from karyfire.tree import (
    TreeShape,
    child_index,
    children,
    embed_vertex,
    is_left_child,
    is_right_child,
    layer,
    layer_size,
    layer_start,
    parent,
    relative_index,
    straight_descendant,
    zigzag_path,
)


def test_arity_must_be_at_least_two():
    with pytest.raises(ValueError):
        TreeShape(1)
    with pytest.raises(ValueError):
        TreeShape(0)
    assert TreeShape(2).k == 2


def test_binary_frozen_indices():
    s = TreeShape(2)
    assert children(s, 0) == [1, 2]
    assert children(s, 2) == [5, 6]
    assert parent(s, 6) == 2
    assert parent(s, 5) == 2
    assert parent(s, 1) == 0
    assert layer(s, 0) == 1
    assert layer(s, 2) == 2
    assert layer(s, 4) == 3
    assert layer_start(s, 1) == 0
    assert layer_start(s, 3) == 3
    assert layer_start(s, 4) == 7
    assert layer_size(s, 3) == 4


def test_quaternary_frozen_indices():
    s = TreeShape(4)
    assert children(s, 0) == [1, 2, 3, 4]
    assert children(s, 2) == [9, 10, 11, 12]
    assert parent(s, 9) == 2
    assert layer_start(s, 3) == 5
    assert layer_start(s, 4) == 21
    assert layer(s, 20) == 3


def test_root_is_its_own_parent():
    for k in range(2, 7):
        assert parent(TreeShape(k), 0) == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_parent_child_roundtrip(k):
    s = TreeShape(k)
    for v in range(400):
        for c in children(s, v):
            assert parent(s, c) == v
    for v in range(1, 400):
        assert children(s, parent(s, v))[child_index(s, v) - 1] == v


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_layer_bookkeeping(k):
    s = TreeShape(k)
    for m in range(1, 8):
        first = layer_start(s, m)
        assert layer(s, first) == m
        assert layer(s, first + layer_size(s, m) - 1) == m
        assert first + layer_size(s, m) == layer_start(s, m + 1)


def test_left_right_split():
    # slots 1..floor(k/2) are left children, the rest right
    s2 = TreeShape(2)
    assert is_left_child(s2, 1) and is_right_child(s2, 2)
    assert is_left_child(s2, 5) and is_right_child(s2, 6)
    s3 = TreeShape(3)
    assert [is_left_child(s3, v) for v in children(s3, 0)] == [True, False, False]
    s4 = TreeShape(4)
    assert [is_left_child(s4, v) for v in children(s4, 0)] == [True, True, False, False]
    s5 = TreeShape(5)
    assert [is_left_child(s5, v) for v in children(s5, 0)] == [True, True, False, False, False]


def test_child_index_refuses_the_root():
    with pytest.raises(ValueError):
        child_index(TreeShape(2), 0)


def test_straight_descendant():
    s = TreeShape(2)
    assert straight_descendant(s, 0, "left", 2) == 3
    assert straight_descendant(s, 0, "right", 2) == 6
    assert straight_descendant(s, 5, "left", 0) == 5
    assert straight_descendant(TreeShape(4), 1, "right", 1) == 8
    assert straight_descendant(TreeShape(4), 0, "left", 2) == 5
    with pytest.raises(ValueError):
        straight_descendant(s, 0, "up", 1)
    with pytest.raises(ValueError):
        straight_descendant(s, 0, "left", -1)


def test_zigzag_path_binary():
    s = TreeShape(2)
    assert zigzag_path(s, 0, 4) == [0, 1, 4, 9]
    assert zigzag_path(s, 0, 4, mirrored=True) == [0, 2, 5, 12]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("mirrored", [False, True])
def test_zigzag_alternates(k, mirrored):
    """After each step, a left child is followed by its rightmost child and a
    right child by its leftmost, so consecutive turns alternate direction."""
    s = TreeShape(k)
    path = zigzag_path(s, 0, 8, mirrored=mirrored)
    assert path[1] == (s.k if mirrored else 1)
    for here, there in zip(path[1:], path[2:]):
        assert parent(s, there) == here
        if is_left_child(s, here):
            assert child_index(s, there) == k
        else:
            assert child_index(s, there) == 1


def test_zigzag_mirror_only_matters_at_the_root():
    for k in (2, 3, 4):
        s = TreeShape(k)
        assert zigzag_path(s, 3, 5, mirrored=True) == zigzag_path(s, 3, 5, mirrored=False)


def test_index_validation():
    s = TreeShape(3)
    with pytest.raises(ValueError):
        children(s, -1)
    with pytest.raises(ValueError):
        parent(s, -2)
    with pytest.raises(ValueError):
        layer(s, -1)
    with pytest.raises(ValueError):
        layer_start(s, 0)
    with pytest.raises(ValueError):
        layer_size(s, 0)
    with pytest.raises(ValueError):
        zigzag_path(s, 0, 0)


@pytest.mark.parametrize("k,ell", [(2, 4), (3, 3)])
def test_relative_index_roundtrip(k, ell):
    shape = TreeShape(k)
    vertices = range(layer_start(shape, ell + 1))
    for top in vertices:
        for v in vertices:
            u = v
            while u > top:
                u = parent(shape, u)
            rel = relative_index(shape, top, v)
            if u == top:
                assert rel is not None and embed_vertex(shape, top, rel) == v, (top, v)
            else:
                assert rel is None, (top, v)
    assert relative_index(shape, 1, 1) == 0
    assert embed_vertex(shape, 1, 1) == k + 1


@pytest.mark.parametrize(
    "cls, fields, text",
    [
        (TreeShape, {"k": 2}, "TreeShape(k=2)"),
        (FiringMove, {"vertex": 0, "selected": (1, 2, 3)}, "FiringMove(vertex=0, selected=(1, 2, 3))"),
        (Configuration, {"k": 2, "chips": ((0, (1, 2)),)}, "Configuration(k=2, chips=((0, (1, 2)),))"),
        (
            PropertyVerdict,
            {"property": "ballot", "holds": True, "witnesses": ()},
            "PropertyVerdict(property='ballot', holds=True, witnesses=())",
        ),
        (
            FlattenedPermutation,
            {"sequence": (1, 2), "rule": "inorder"},
            "FlattenedPermutation(sequence=(1, 2), rule='inorder')",
        ),
        (BoundReport, {"kind": "naive", "k": 2, "ell": 3, "value": 120}, "BoundReport(kind='naive', k=2, ell=3, value=120)"),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else "",
)
def test_value_types_are_frozen_and_compare_by_their_fields(cls, fields, text):
    """Equal to instances of the same class only, hashed as the field tuple
    (so set order follows the fields), printed field by field, immutable."""
    values = tuple(fields.values())
    value = cls(*values)
    assert value == cls(**fields)
    assert hash(value) == hash(cls(**fields)) == hash(values)
    assert repr(value) == text
    assert value != values
    assert type("Derived", (cls,), {})(*values) != value
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_a_verdict_has_no_witnesses_by_default():
    assert PropertyVerdict("ballot", True).witnesses == ()
