"""Dense batched tensors and trainable parameters for the reverse-mode core.

Everything in this package works on one layout: dense float32 arrays of shape
(batch, channels, height, width). Scalars are tensors of shape (1, 1, 1, 1).
Gradient bookkeeping lives directly on the tensor: ops attach a tuple of parent
tensors plus a closure that maps the output gradient to per-parent gradients.
A graph is consumed by its backward: the sweep detaches each node once it has
passed it, so the graph's arrays are freed as it goes. A caller who needs
several gradients builds the graph once per backward.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

DTYPE = np.float32

#: shape of every scalar produced by reductions
SCALAR_SHAPE = (1, 1, 1, 1)


class ShapeError(ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


class GraphError(RuntimeError):
    """Invalid use of the computation graph (non-scalar backward, etc.)."""


def _as4d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=DTYPE)
    if arr.ndim != 4:
        raise ShapeError(
            f"tensors are strictly 4-D (N, C, H, W); got {arr.ndim}-D data of "
            f"shape {arr.shape}"
        )
    if not all(d > 0 for d in arr.shape):
        raise ShapeError(f"all dims must be positive, got shape {arr.shape}")
    return arr


class Tensor4:
    """A (batch, channels, height, width) float32 array, optionally tracked.

    Ops never mutate operand data. When ``requires_grad`` is set on any operand
    of an op, the op output carries ``_parents`` and ``_grad_fn`` so that
    :func:`sepattn.diffcore.ops.backward` can run the reverse sweep. Only
    leaves (tensors made directly, not by an op) ever receive ``.grad``. The
    sweep consumes the graph: an op output it has passed keeps its ``data``
    but no parents, and backpropagating through it again raises
    :class:`GraphError`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as4d(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grad_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    # -- views ----------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return self._grad_fn is None

    def item(self) -> float:
        if self.data.shape != SCALAR_SHAPE:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data[0, 0, 0, 0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(DTYPE, copy=True)
        else:
            self.grad = self.grad + g.astype(DTYPE, copy=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = ", tracked" if self.requires_grad else ""
        return f"Tensor4(shape={self.data.shape}{tag})"


@dataclass
class Parameter:
    """A named trainable tensor.

    Construction marks the tensor ``requires_grad``. A model is frozen by
    clearing that flag on its parameters' tensors for the span of a graph,
    which leaves their ``.grad`` untouched.
    """

    id: str
    tensor: Tensor4

    def __post_init__(self):
        if not self.id:
            raise ValueError("parameter id must be a non-empty string")
        self.tensor.requires_grad = True


def topo_order(root: Tensor4) -> list:
    """Reverse-sweep ordering of the graph reachable from ``root``.

    Iterative DFS (training graphs can be thousands of nodes deep). The result
    lists parents before children; the backward sweep walks it reversed.
    """
    order: list = []
    seen: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))
    return order


def _consumed(g: np.ndarray):
    """The ``_grad_fn`` of a node that a backward sweep has already passed."""
    raise GraphError("graph already consumed by backward; build it again")


def backward(loss: Tensor4) -> None:
    """Reverse-mode sweep from a scalar loss, consuming the graph as it goes.

    Populates ``.grad`` on every reachable leaf with ``requires_grad`` set,
    accumulating additively so that several graphs sharing leaves (or several
    uses of one tensor) sum their contributions. Intermediate op outputs pass
    their gradient on to their parents and keep no ``.grad``.

    Once a node's closure has run, the node drops its parents and its closure,
    and its ``_grad_fn`` then raises :class:`GraphError`; so each intermediate
    array is freed as soon as the sweep has passed it, unless the caller holds
    that tensor. A graph therefore serves one backward; a caller who needs
    several gradients builds the graph once per backward.
    """
    if loss.shape != SCALAR_SHAPE:
        raise GraphError(
            f"backward requires a scalar loss of shape {SCALAR_SHAPE}, got {loss.shape}"
        )
    flow: dict[int, np.ndarray] = {id(loss): np.ones(SCALAR_SHAPE, dtype=DTYPE)}
    order = topo_order(loss)
    while order:
        node = order.pop()
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            if node.requires_grad:
                node.accumulate_grad(g)
            continue
        parents = node._parents
        parent_grads = node._grad_fn(g)
        if len(parent_grads) != len(parents):
            raise GraphError(
                f"grad_fn returned {len(parent_grads)} gradients for "
                f"{len(parents)} parents"
            )
        node._parents = ()
        node._grad_fn = _consumed
        for parent, pg in zip(parents, parent_grads):
            if parent is None or pg is None:
                continue
            key = id(parent)
            if key in flow:
                flow[key] = flow[key] + pg
            else:
                flow[key] = pg
        # the loop's own references would keep this node's arrays alive
        # through the next node's closure
        node = g = parents = parent_grads = parent = pg = None
