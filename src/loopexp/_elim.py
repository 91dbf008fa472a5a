"""Bucket elimination over the edge variables of a check graph.

Both exact sums of the package, ln Z over edge spins and Z_corr over edge
subsets, are the same tensor network: a binary variable x_e on every edge
and, on every node a, a table T_a over a's incident edges.  A table is
indexed by the local bitmask whose bit k is the variable of
``graph.layout.eid[a, k]``, the layout of ``ActivityTable.K``.  The network's
value is

    sum over x in {0,1}^E of prod_a T_a(x restricted to a's edges),

evaluated by bucket elimination (Dechter 1999).  A variable sits in exactly
two tables until it is summed out, so each step merges two tables over all
their shared edges: n minus the number of components steps.  A step is one
product: the left table as a matrix of (kept, shared) edges times the right
as one of (shared, kept) edges.  Its inner product is the semiring's: a
matmul in (+, x), a broadcast product maximised over the shared axis in
(max, x), so neither builds the table over both tables' edges.

A table may carry a leading payload axis: a per-node count that saturates
at L - 1.  When two tables multiply, payloads i and j land in
min(i + j, L - 1); the step takes the products of all payload pairs at once
and folds them into their sums i + j in one reduction.  The number of
touched nodes and the "some node has degree one" flag are both such counts.
A table stores its payloads only up to its reach, the highest that can be
nonzero: a node table's is read from its data, a product's is the sum of its
factors' reaches, capped at L - 1.  Contraction runs in the (+, x)
semiring, or in (max, x) on nonnegative tables for largest-term queries.

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

from ._layout import Rows, check_budget

if TYPE_CHECKING:
    from .graphs import CheckGraph


@dataclass(frozen=True)
class _Step:
    """Merge table ``left`` with ``right`` over their shared edges.  Past
    its payload axis, ``left`` is transposed by ``left_perm`` to its kept
    edges, then the shared ones, and ``right`` by ``right_perm`` to the
    shared edges, then its kept ones.  ``sizes`` are 2^kept_left, 2^shared
    and 2^kept_right, the shapes of the two as matrices.  Their product, a
    table over the left's kept edges then the right's, is appended as a new
    table.
    """

    left: int
    right: int
    left_perm: tuple[int, ...]
    right_perm: tuple[int, ...]
    sizes: tuple[int, int, int]


@dataclass(frozen=True)
class EliminationPlan:
    """A greedy elimination order for one graph, ready to contract;
    ``width`` is the largest bucket union, in variables."""

    steps: tuple[_Step, ...]
    finals: tuple[int, ...]     # tables with no variables, never consumed
    width: int


def plan_elimination(graph: CheckGraph) -> EliminationPlan:
    """Greedy order for ``graph``; BudgetError at the first bucket that
    would build more than ``MAX_ENTRIES`` entries, so a dense host fails
    before its order is complete."""
    # a table's axes run from the highest local bit to the lowest, so that
    # reshaping the flat bitmask table needs no transpose
    lay = graph.layout
    scopes: list[tuple[int, ...]] = [
        tuple(row[:k][::-1])
        for row, k in zip(lay.eid.tolist(), lay.deg.tolist())]
    sets = [frozenset(sc) for sc in scopes]
    # the two tables that hold each edge: at first, those of its ends
    holders: list[list[int]] = lay.ends.tolist()
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
        check_budget(1 << s, "elimination table of 2^{} x 1", s)
        width = max(width, s)
        left, right = holders[e]
        lscope, rscope = scopes[left], scopes[right]
        shared = tuple(v for v in lscope if v in sets[right])
        lkept = tuple(v for v in lscope if v not in shared)
        rkept = tuple(v for v in rscope if v not in shared)
        steps.append(_Step(
            left, right,
            (0,) + tuple(1 + lscope.index(v) for v in lkept + shared),
            (0,) + tuple(1 + rscope.index(v) for v in shared + rkept),
            (1 << len(lkept), 1 << len(shared), 1 << len(rkept))))
        new = len(scopes)
        scopes.append(lkept + rkept)
        sets.append(frozenset(scopes[new]))
        done.update(shared)
        for v in scopes[new]:
            # v's other holder keeps its place; the new table comes second
            other = holders[v][holders[v][0] in (left, right)]
            holders[v] = [other, new]
            size[v] = len(sets[other] | sets[new])
            heapq.heappush(heap, (size[v], v))
    return EliminationPlan(
        steps=tuple(steps),
        finals=tuple(f for f, sc in enumerate(scopes) if not sc),
        width=width,
    )


def _inner(a: np.ndarray, b: np.ndarray, maximize: bool,
           out: np.ndarray | None = None) -> np.ndarray:
    """The semiring's product of the matrix stacks ``a`` (..., M, S) and
    ``b`` (..., S, N), broadcast over the leading axes: a matmul in
    (+, x), a broadcast product maximised over S in (max, x)."""
    if maximize:
        return np.maximum.reduce(a[..., None] * b[..., None, :, :], axis=-2,
                                 out=out)
    return np.matmul(a, b, out=out)


def _merge(a: np.ndarray, b: np.ndarray, top: int, cap: int,
           maximize: bool) -> np.ndarray:
    """The product of tables ``a`` (Pa, M, S) and ``b`` (Pb, S, N) over
    their shared axis S, as (r + 1, M, N): payloads i and j land in
    min(i + j, ``top``), r = min(Pa + Pb - 2, top).

    A block of a's payloads takes one ``_inner`` product with all of b's.
    Row i of the block is written i places to the right in a zeroed buffer,
    so one reduction over the rows adds, or maximises, the pairs of equal
    i + j; one more folds the payloads past ``top``.  Blocks are sized so
    that no temporary passes ``cap`` entries.
    """
    pa, m, s = a.shape
    pb, _, n = b.shape
    add = np.maximum if maximize else np.add
    step = max(1, cap // (m * n * (s if maximize else 1) * (pa + pb)))
    out = None if step >= pa else np.zeros((min(pa + pb - 2, top) + 1, m, n))
    for i0 in range(0, pa, step):
        ai = a[i0:i0 + step]
        k = len(ai)
        if k == 1:    # one row of pairs: nothing to shift
            part = _inner(ai, b, maximize)
        else:
            # the products land in rows of k + pb; seen as rows of
            # k + pb - 1 (``diag``), row i starts i places to the right, so
            # diag[i, i + j] is pair (i0 + i, j)
            buf = np.zeros(k * (k + pb) * m * n)
            _inner(ai[:, None], b[None], maximize,
                   out=buf.reshape(k, k + pb, m, n)[:, :pb])
            diag = buf[:k * (k + pb - 1) * m * n].reshape(k, k + pb - 1, m, n)
            part = add.reduce(diag, axis=0)    # payloads i0, i0 + 1, ...
        lo = top - i0
        if len(part) > lo + 1:
            part[lo] = add.reduce(part[lo:], axis=0)
            part = part[:lo + 1]
        if out is None:
            return part
        add(out[i0:i0 + len(part)], part, out=out[i0:i0 + len(part)])
    return out


def contract(plan: EliminationPlan, tables: Rows,
             maximize: bool = False) -> tuple[np.ndarray, float]:
    """Contract the network with node tables ``tables``.

    ``tables.values`` has one row per entry: shape ``(N,)``, or ``(N, L)``
    with a payload axis of length L; ``tables[a]`` holds node a's
    ``2**deg_a`` entries.  BudgetError, before any table is allocated, if
    ``2^width x L`` passes ``MAX_ENTRIES``.  Each step is one product of
    two tables over their shared edges, all payload pairs at once
    (``_merge``).  Returns ``(values, log_scale)``: the network's value for
    payload k is ``values[k] * exp(log_scale)``.  After every step the new
    table is divided by its largest absolute entry, whose log goes into
    ``log_scale``; values keep their sign.
    """
    values = tables.values.reshape(len(tables.values), -1)
    L = values.shape[1]
    cap = (1 << plan.width) * L
    check_budget(cap, "elimination table of 2^{} x {}", plan.width, L)
    # each node table's reach: its highest payload with a nonzero entry
    reach = np.maximum.reduceat(
        np.max(np.where(values != 0.0, np.arange(L), 0), axis=1),
        tables.offsets[:-1]).tolist()
    live: list[np.ndarray | None] = [
        values[lo:hi, :r + 1].T
        for lo, hi, r in zip(tables.offsets[:-1].tolist(),
                             tables.offsets[1:].tolist(), reach,
                             strict=True)]
    log_scale = 0.0

    def rescale(t: np.ndarray) -> np.ndarray:
        nonlocal log_scale
        m = float(np.maximum.reduce(np.abs(t), axis=None))
        if m > 0.0 and math.isfinite(m):
            log_scale += math.log(m)
            t /= m
        return t

    for st in plan.steps:
        a, b = live[st.left], live[st.right]
        live[st.left] = live[st.right] = None
        m, s, n = st.sizes
        a = a.reshape((len(a),) + (2,) * (len(st.left_perm) - 1)).transpose(
            st.left_perm).reshape(len(a), m, s)
        b = b.reshape((len(b),) + (2,) * (len(st.right_perm) - 1)).transpose(
            st.right_perm).reshape(len(b), s, n)
        live.append(rescale(_merge(a, b, L - 1, cap, maximize)).reshape(
            -1, m * n))
    out = np.ones((1, 1, 1))
    for f in plan.finals:
        out = rescale(_merge(out, live[f][:, :, None], L - 1, cap, maximize))
    return np.concatenate([out.ravel(), np.zeros(L - len(out))]), log_scale
