"""Bucket elimination over the edge variables of a check graph.

Both exact sums of the package, ln Z over edge spins and Z_corr over edge
subsets, are the same tensor network: a binary variable x_e on every edge
and, on every node a, a table T_a over a's incident edges.  A table is
indexed by the local bitmask whose bit k is the variable of
``graph.adjacency[a][k]``, the layout of ``ActivityTable.K``.  The network's
value is

    sum over x in {0,1}^E of prod_a T_a(x restricted to a's edges),

evaluated by eliminating one edge variable at a time (bucket elimination,
Dechter 1999).  A variable sits in at most two tables at any time, so each
step multiplies at most two tables and sums one axis out.

A table may carry a trailing payload axis of length L: a per-node count that
saturates at L - 1.  When two tables multiply, payloads i and j land in
min(i + j, L - 1).  The number of touched nodes and the "some node has
degree one" flag are both such counts.  Contraction runs in the (+, x)
semiring, or in (max, x) on nonnegative tables for largest-term queries.

The elimination order is greedy: the next edge is the one whose bucket union
(the variables of the tables that hold it) is smallest, ties to the lowest
edge index.  It is computed from the graph alone, and a plan whose largest
intermediate would exceed ``MAX_ENTRIES`` is refused before any table is
allocated.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._layout import MAX_ENTRIES
from .exceptions import BudgetError
from .graphs import CheckGraph


@dataclass(frozen=True)
class _Step:
    """Eliminate one edge: multiply table ``left`` by ``right``, sum ``axis``.

    ``left`` is reshaped to ``left_shape``; ``right`` is transposed by
    ``right_perm`` and reshaped to ``right_shape``, so both broadcast over
    the bucket union.  The result is appended as a new table.
    """

    left: int
    right: Optional[int]
    left_shape: tuple[int, ...]
    right_perm: tuple[int, ...]
    right_shape: tuple[int, ...]
    axis: int


@dataclass(frozen=True)
class EliminationPlan:
    """A greedy elimination order for one graph, ready to contract.

    ``width`` is the largest bucket union, in variables; ``payload`` is the
    longest payload axis the plan was budgeted for.
    """

    node_shapes: tuple[tuple[int, ...], ...]
    steps: tuple[_Step, ...]
    finals: tuple[int, ...]     # tables with no variables, never consumed
    width: int
    payload: int


def plan_elimination(graph: CheckGraph, payload: int = 1) -> EliminationPlan:
    """Greedy order for ``graph``; BudgetError if it would build too much.

    ``payload`` is the longest payload axis the plan will contract.  The
    estimate ``2^width * payload`` is checked as the order is built, so a
    dense host fails before its order is complete.
    """
    # a table's axes run from the highest local bit to the lowest, so that
    # reshaping the flat bitmask table needs no transpose
    scopes: list[tuple[int, ...]] = [tuple(reversed(adj))
                                     for adj in graph.adjacency]
    # the tables that hold each edge: at first, those of its two ends
    holders: list[list[int]] = graph.layout.ends.tolist()

    def union(e: int) -> tuple[int, ...]:
        first = scopes[holders[e][0]]
        if len(holders[e]) == 1:
            return first
        seen = set(first)
        return first + tuple(v for v in scopes[holders[e][1]]
                             if v not in seen)

    size = [len(union(e)) for e in range(graph.num_edges)]
    heap = [(s, e) for e, s in enumerate(size)]
    heapq.heapify(heap)
    done = [False] * graph.num_edges
    steps = []
    width = 0
    while heap:
        s, e = heapq.heappop(heap)
        if done[e] or s != size[e]:
            continue
        if (1 << s) * payload > MAX_ENTRIES:
            raise BudgetError(
                f"elimination would build a table of 2^{s} x {payload} = "
                f"{(1 << s) * payload:,} entries, over the cap of "
                f"{MAX_ENTRIES:,}")
        width = max(width, s)
        done[e] = True
        u = union(e)
        left, *rest = holders[e]
        right = rest[0] if rest else None
        if right is None:
            step = _Step(left, None, (2,) * len(u), (), (), u.index(e))
        else:
            rscope = scopes[right]
            step = _Step(
                left, right,
                (2,) * len(scopes[left]) + (1,) * (len(u) - len(scopes[left])),
                tuple(rscope.index(v) for v in u if v in rscope),
                tuple(2 if v in rscope else 1 for v in u),
                u.index(e))
        steps.append(step)
        new = len(scopes)
        scopes.append(tuple(v for v in u if v != e))
        for v in scopes[new]:
            holders[v] = [f for f in holders[v] if f not in (left, right)]
            holders[v].append(new)
        for v in scopes[new]:
            size[v] = len(union(v))
            heapq.heappush(heap, (size[v], v))
    return EliminationPlan(
        node_shapes=tuple((2,) * len(sc) for sc in scopes[:graph.n]),
        steps=tuple(steps),
        finals=tuple(f for f, sc in enumerate(scopes) if not sc),
        width=width,
        payload=payload,
    )


def _combine(a: np.ndarray, b: np.ndarray, maximize: bool) -> np.ndarray:
    """Broadcast product of two tables, with their payloads added (saturating)."""
    L = a.shape[-1]
    if L == 1:
        return a * b
    add = np.maximum if maximize else np.add
    top = L - 1
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in range(L):
        term = a[..., i:i + 1] * b
        add(out[..., i:top], term[..., :top - i], out=out[..., i:top])
        add(out[..., top], add.reduce(term[..., top - i:], axis=-1),
            out=out[..., top])
    return out


def contract(plan: EliminationPlan, tables: Sequence[np.ndarray],
             maximize: bool = False) -> tuple[np.ndarray, float]:
    """Contract the network with node tables ``tables``.

    ``tables[a]`` has shape ``(2**deg_a,)`` or ``(2**deg_a, L)``.  Returns
    ``(values, log_scale)``: the network's value for payload k is
    ``values[k] * exp(log_scale)``.  After every step the new table is
    divided by its largest absolute entry, whose log goes into
    ``log_scale``; values keep their sign.
    """
    first = np.asarray(tables[0])
    L = first.shape[1] if first.ndim == 2 else 1
    if L > plan.payload:
        raise ValueError(f"payload {L} exceeds the planned {plan.payload}")
    live: list[Optional[np.ndarray]] = [
        np.reshape(np.asarray(t, dtype=np.float64), shape + (L,))
        for t, shape in zip(tables, plan.node_shapes, strict=True)]
    reduce = np.maximum.reduce if maximize else np.add.reduce
    log_scale = 0.0

    def rescale(t: np.ndarray) -> np.ndarray:
        nonlocal log_scale
        m = float(np.max(np.abs(t)))
        if m > 0.0 and math.isfinite(m):
            log_scale += math.log(m)
            return t / m
        return t

    for st in plan.steps:
        prod = live[st.left].reshape(st.left_shape + (L,))
        live[st.left] = None
        if st.right is not None:
            right = live[st.right].transpose(
                st.right_perm + (len(st.right_perm),))
            live[st.right] = None
            prod = _combine(prod, right.reshape(st.right_shape + (L,)),
                            maximize)
        live.append(rescale(reduce(prod, axis=st.axis)))
    out = np.zeros(L)
    out[0] = 1.0
    for f in plan.finals:
        out = rescale(_combine(out, live[f], maximize))
    return out, log_scale
