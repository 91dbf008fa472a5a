"""Bucket elimination over the edge variables of a check graph.

Both exact sums of the package, ln Z over edge spins and Z_corr over edge
subsets, are the same tensor network: a binary variable x_e on every edge
and, on every node a, a table T_a over a's incident edges.  A table is
indexed by the local bitmask whose bit k is the variable of
``graph.adjacency[a][k]``, the layout of ``ActivityTable.K``.  The network's
value is

    sum over x in {0,1}^E of prod_a T_a(x restricted to a's edges),

evaluated by bucket elimination (Dechter 1999).  A variable sits in exactly
two tables until it is summed out, so each step multiplies two tables and
sums out all their shared edges: n minus the number of components steps.

A table may carry a leading payload axis: a per-node count that saturates
at L - 1.  When two tables multiply, payloads i and j land in
min(i + j, L - 1).  The number of touched nodes and the "some node has
degree one" flag are both such counts.  A table stores its payloads only up
to its reach, the highest that can be nonzero: a node table's is read from
its data, a product's is the sum of its factors' reaches, capped at L - 1.
Contraction runs in the (+, x) semiring, or in (max, x) on nonnegative
tables for largest-term queries.

The elimination order is greedy: the next step merges the two tables that
hold the edge whose bucket union (the variables of those tables) is
smallest, ties to the lowest edge index.  It depends on the graph alone, so
one plan, ``CheckGraph.elimination_plan``, serves every contraction on a
host.  ``check_budget`` refuses, before any table is allocated, a bucket
over ``MAX_ENTRIES`` entries, or 2^width x L for a payload L.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._layout import MAX_ENTRIES, Rows
from .exceptions import BudgetError

if TYPE_CHECKING:
    from .graphs import CheckGraph


@dataclass(frozen=True)
class _Step:
    """Multiply table ``left`` by ``right`` and sum out ``axis``, their
    shared edges.  Past its payload axis, ``left`` is reshaped to
    ``left_shape`` and ``right`` transposed by ``right_perm`` and reshaped to
    ``right_shape``, so both broadcast over the bucket union.  The result is
    appended as a new table.
    """

    left: int
    right: int
    left_shape: tuple[int, ...]
    right_perm: tuple[int, ...]
    right_shape: tuple[int, ...]
    axis: tuple[int, ...]


@dataclass(frozen=True)
class EliminationPlan:
    """A greedy elimination order for one graph, ready to contract;
    ``width`` is the largest bucket union, in variables."""

    node_shapes: tuple[tuple[int, ...], ...]
    steps: tuple[_Step, ...]
    finals: tuple[int, ...]     # tables with no variables, never consumed
    width: int


def check_budget(width: int, payload: int) -> None:
    """BudgetError if 2^width x payload entries pass ``MAX_ENTRIES``."""
    if (1 << width) * payload > MAX_ENTRIES:
        raise BudgetError(
            f"elimination would build a table of 2^{width} x {payload} = "
            f"{(1 << width) * payload:,} entries, over the cap of "
            f"{MAX_ENTRIES:,}")


def plan_elimination(graph: CheckGraph) -> EliminationPlan:
    """Greedy order for ``graph``; BudgetError at the first bucket that
    would build more than ``MAX_ENTRIES`` entries, so a dense host fails
    before its order is complete."""
    # a table's axes run from the highest local bit to the lowest, so that
    # reshaping the flat bitmask table needs no transpose
    scopes: list[tuple[int, ...]] = [tuple(reversed(adj))
                                     for adj in graph.adjacency]
    sets = [frozenset(sc) for sc in scopes]
    # the two tables that hold each edge: at first, those of its ends
    holders: list[list[int]] = graph.layout.ends.tolist()
    size = [len(sets[a] | sets[b]) for a, b in holders]
    heap = [(s, e) for e, s in enumerate(size)]
    heapq.heapify(heap)
    done: set[int] = set()    # edges summed out
    steps = []
    width = 0
    while heap:
        s, e = heapq.heappop(heap)
        if e in done or s != size[e]:
            continue
        check_budget(s, 1)
        width = max(width, s)
        left, right = holders[e]
        lscope, rscope = scopes[left], scopes[right]
        shared = sets[left] & sets[right]
        rest = [v for v in rscope if v not in shared]
        u = lscope + tuple(rest)
        steps.append(_Step(
            left, right,
            (2,) * len(lscope) + (1,) * len(rest),
            (0,) + tuple(1 + rscope.index(v) for v in u if v in rscope),
            tuple(2 if v in rscope else 1 for v in u),
            tuple(1 + k for k, v in enumerate(u) if v in shared)))
        new = len(scopes)
        scopes.append(tuple(v for v in u if v not in shared))
        sets.append(frozenset(scopes[new]))
        done |= shared
        for v in scopes[new]:
            # v's other holder keeps its place; the new table comes second
            other = holders[v][holders[v][0] in (left, right)]
            holders[v] = [other, new]
            size[v] = len(sets[other] | sets[new])
            heapq.heappush(heap, (size[v], v))
    return EliminationPlan(
        node_shapes=tuple((2,) * len(sc) for sc in scopes[:graph.n]),
        steps=tuple(steps),
        finals=tuple(f for f, sc in enumerate(scopes) if not sc),
        width=width,
    )


def _combine(a: np.ndarray, b: np.ndarray, top: int,
             maximize: bool) -> np.ndarray:
    """Broadcast product of two tables, payloads added and saturated at
    ``top``; the loop runs over the payloads of the table of smaller reach."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        return a * b
    add = np.maximum if maximize else np.add
    rb = len(b) - 1
    r = min(len(a) - 1 + rb, top)
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((r + 1,) + shape)
    term = np.empty((rb + 1,) + shape)    # one buffer for every product
    if len(a) - 1 + rb > top:
        # tail[j]: b's payloads j and up, which land in r beside a's r - j
        tail = add.accumulate(b[::-1])[::-1]
    for i, ai in enumerate(a):
        if i + rb <= r:
            np.multiply(ai, b, out=term)
            add(out[i:i + rb + 1], term, out=out[i:i + rb + 1])
            continue
        j = r - i
        if j:
            np.multiply(ai, b[:j], out=term[:j])
            add(out[i:r], term[:j], out=out[i:r])
        np.multiply(ai, tail[j], out=term[:1])
        add(out[r:], term[:1], out=out[r:])
    return out


def contract(plan: EliminationPlan, tables: Rows,
             maximize: bool = False) -> tuple[np.ndarray, float]:
    """Contract the network with node tables ``tables``.

    ``tables.values`` has one row per entry: shape ``(N,)``, or ``(N, L)``
    with a payload axis of length L; ``tables[a]`` holds node a's
    ``2**deg_a`` entries.  BudgetError, before any table is allocated, if
    ``2^width x L`` passes ``MAX_ENTRIES``.  Returns ``(values, log_scale)``:
    the network's value for payload k is ``values[k] * exp(log_scale)``.
    After every step the new table is divided by its largest absolute
    entry, whose log goes into ``log_scale``; values keep their sign.
    """
    values = tables.values.reshape(len(tables.values), -1)
    L = values.shape[1]
    check_budget(plan.width, L)
    # each node table's reach: its highest payload with a nonzero entry
    reach = np.maximum.reduceat(
        np.max(np.where(values != 0.0, np.arange(L), 0), axis=1),
        tables.offsets[:-1]).tolist()
    live: list[np.ndarray | None] = [
        values[lo:hi, :r + 1].T.reshape((r + 1,) + shape)
        for lo, hi, r, shape in zip(tables.offsets[:-1].tolist(),
                                    tables.offsets[1:].tolist(), reach,
                                    plan.node_shapes, strict=True)]
    reduce = np.maximum.reduce if maximize else np.add.reduce
    log_scale = 0.0

    def rescale(t: np.ndarray) -> np.ndarray:
        nonlocal log_scale
        m = float(np.abs(t).max())
        if m > 0.0 and math.isfinite(m):
            log_scale += math.log(m)
            t /= m
        return t

    for st in plan.steps:
        a, b = live[st.left], live[st.right]
        live[st.left] = live[st.right] = None
        prod = _combine(a.reshape((len(a),) + st.left_shape),
                        b.transpose(st.right_perm).reshape(
                            (len(b),) + st.right_shape), L - 1, maximize)
        live.append(rescale(reduce(prod, axis=st.axis)))
    out = np.ones(1)
    for f in plan.finals:
        out = rescale(_combine(out, live[f], L - 1, maximize))
    return np.concatenate([out, np.zeros(L - len(out))]), log_scale
