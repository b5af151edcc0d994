"""Index arithmetic for the infinite looped k-ary tree.

Vertices are numbered breadth-first: the root is 0 and the j-th leftmost
child of vertex v is k*v + j.  For k = 2 the first three layers look like

            0
          /   \\
         1     2
        / \\   / \\
       3   4 5   6

The root additionally carries a self-loop, so every vertex has degree
k + 1.  The tree is never materialized; everything here is plain
arithmetic on indices.  A child in slot 1..floor(k/2) counts as a *left*
child, slots floor(k/2)+1..k are *right* children.
"""

from __future__ import annotations

from dataclasses import dataclass

VertexId = int


@dataclass(frozen=True)
class TreeShape:
    """Arity of the tree; k must be at least 2."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"arity must be an integer >= 2, got {self.k!r}")


def children(shape: TreeShape, v: VertexId) -> list[VertexId]:
    """All k children of v, leftmost first."""
    if v < 0:
        raise ValueError(f"vertex index must be >= 0, got {v}")
    return [shape.k * v + j for j in range(1, shape.k + 1)]


def parent(shape: TreeShape, v: VertexId) -> VertexId:
    """Parent of v; the root is its own parent via the self-loop."""
    if v < 0:
        raise ValueError(f"vertex index must be >= 0, got {v}")
    if v == 0:
        return 0
    return (v - 1) // shape.k


def layer(shape: TreeShape, v: VertexId) -> int:
    """1-based layer of v: the root is on layer 1, its children on layer 2."""
    if v < 0:
        raise ValueError(f"vertex index must be >= 0, got {v}")
    m = 1
    while v > 0:
        v = (v - 1) // shape.k
        m += 1
    return m


def layer_start(shape: TreeShape, m: int) -> VertexId:
    """Index of the leftmost vertex on layer m, i.e. (k^(m-1) - 1) / (k - 1).

    Equivalently this is the number of vertices on layers 1..m-1, so
    ``layer_start(shape, m + 1)`` is the chip count that exactly fills m
    layers with one chip per vertex.
    """
    if m < 1:
        raise ValueError(f"layer must be >= 1, got {m}")
    return (shape.k ** (m - 1) - 1) // (shape.k - 1)


def layer_size(shape: TreeShape, m: int) -> int:
    """Number of vertices on layer m."""
    if m < 1:
        raise ValueError(f"layer must be >= 1, got {m}")
    return shape.k ** (m - 1)


def child_index(shape: TreeShape, v: VertexId) -> int:
    """Slot a in 1..k such that v is the a-th leftmost child of its parent."""
    if v <= 0:
        raise ValueError("the root occupies no child slot")
    return (v - 1) % shape.k + 1


def is_left_child(shape: TreeShape, v: VertexId) -> bool:
    return child_index(shape, v) <= shape.k // 2


def is_right_child(shape: TreeShape, v: VertexId) -> bool:
    return child_index(shape, v) > shape.k // 2


def straight_descendant(shape: TreeShape, v: VertexId, side: str, depth: int) -> VertexId:
    """Descendant reached from v by `depth` repeated leftmost or rightmost steps."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    step = 1 if side == "left" else shape.k
    for _ in range(depth):
        v = shape.k * v + step
    return v


def zigzag_path(shape: TreeShape, start: VertexId, length: int, mirrored: bool = False) -> list[VertexId]:
    """Alternating descent: a left child steps to its rightmost child, any other
    vertex steps to its leftmost child, so successive steps zig and zag.

    The root carries no child slot; it opens the path toward its leftmost child
    (rightmost when ``mirrored``), after which the slot rule takes over.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    path = [start]
    while len(path) < length:
        v = path[-1]
        go_right = mirrored if v == 0 else is_left_child(shape, v)
        path.append(shape.k * v + (shape.k if go_right else 1))
    return path


def relative_index(shape: TreeShape, top: VertexId, v: VertexId) -> VertexId | None:
    """Index of v in the subtree rooted at `top`, numbered as if `top` were the
    root, or None when v lies outside that subtree.

    The depth-d descendants of `top` are the contiguous indices
    top * k^d + layer_start(d + 1) .. top * k^d + layer_start(d + 2) - 1.
    """
    depth = layer(shape, v) - layer(shape, top)
    if depth < 0:
        return None
    rel = v - top * shape.k**depth
    if not layer_start(shape, depth + 1) <= rel < layer_start(shape, depth + 2):
        return None
    return rel


def embed_vertex(shape: TreeShape, top: VertexId, rel: VertexId) -> VertexId:
    """Inverse of `relative_index`: the vertex at subtree index `rel` under `top`."""
    return top * shape.k ** (layer(shape, rel) - 1) + rel
