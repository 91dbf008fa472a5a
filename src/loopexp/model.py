"""Edge-spin vertex models and their exact partition functions.

Spins sigma_ab in {+1,-1} live on edges; each node a carries a factor over
its incident spins.  All three supported factor kinds share the shape

    f_a(sigma) = (1 + t_a * prod_b sigma_ab) / 2 * prod_b exp(h_ab sigma_ab / 2)

with a parity coupling t_a per node:

    cycle-code            t_a = 1        (hard parity check)
    softened-cycle-code   t_a = 1 - eps  (parity violations cost eps)
    high-temperature      t_a = tanh(J_a)

The partition function Z sums prod_a f_a over all 2^{|E|} spin assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._elim import contract
from ._layout import BLOCK_ENTRIES, check_budget, columns, node_tables
from .graphs import CheckGraph

__all__ = ["FactorSpec", "exact_log_partition", "KINDS"]

KINDS = ("cycle-code", "softened-cycle-code", "high-temperature")


def _check_coupling(J) -> np.ndarray:
    """``J`` as a float array of at least one entry; ValueError if an
    entry is NaN."""
    J = np.atleast_1d(np.asarray(J, dtype=np.float64))
    if np.isnan(J).any():
        raise ValueError("coupling J is NaN")
    return J


def _check_eps(eps: float) -> None:
    """ValueError unless the softening ``eps`` lies in [0, 1]."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")


@dataclass(frozen=True)
class FactorSpec:
    """Factor kind plus its parameters: per-edge fields and the parity coupling.

    ``h`` has one entry per edge.  ``eps`` applies to the softened kind;
    ``J`` (scalar or per-node) to the high-temperature kind.  ValueError
    for a NaN or infinite field and a NaN ``J``; an infinite ``J`` is a
    hard parity constraint, t = +-1.
    """

    kind: str
    h: np.ndarray
    eps: float = 0.0
    J: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        object.__setattr__(self, "h", np.asarray(self.h, dtype=np.float64))
        bad = np.flatnonzero(~np.isfinite(self.h))
        if bad.size:
            raise ValueError(f"field h[{bad[0]}] = {self.h.flat[bad[0]]} "
                             f"is not finite")
        if self.kind == "softened-cycle-code":
            _check_eps(self.eps)
        if self.kind == "high-temperature":
            if self.J is None:
                raise ValueError("high-temperature kind needs J")
            object.__setattr__(self, "J", _check_coupling(self.J))

    @classmethod
    def cycle_code(cls, h) -> "FactorSpec":
        return cls(kind="cycle-code", h=h)

    @classmethod
    def softened(cls, h, eps: float) -> "FactorSpec":
        return cls(kind="softened-cycle-code", h=h, eps=eps)

    @classmethod
    def high_temperature(cls, h, J) -> "FactorSpec":
        return cls(kind="high-temperature", h=h, J=J)

    def parity_couplings(self, graph: CheckGraph) -> np.ndarray:
        """t_a for every node of ``graph``; ValueError unless ``h`` has one
        entry per edge and ``J`` is scalar or per node."""
        if len(self.h) != graph.num_edges:
            raise ValueError(f"field vector has {len(self.h)} entries, "
                             f"graph has {graph.num_edges} edges")
        if self.kind == "cycle-code":
            return np.ones(graph.n)
        if self.kind == "softened-cycle-code":
            return np.full(graph.n, 1.0 - self.eps)
        J = self.J
        if len(J) == 1:
            return np.full(graph.n, math.tanh(float(J[0])))
        if len(J) != graph.n:
            raise ValueError("J must be scalar or one value per node")
        return np.tanh(J)


def _edge_messages(graph: CheckGraph, eta) -> np.ndarray:
    """``eta`` as float messages of shape (E, 2), or ValueError.

    Accepts the (E, 2) array of a MessageSet and the flat directed-edge
    vector of length 2E; any other shape names itself and the expected one.
    """
    eta = np.asarray(eta, dtype=np.float64)
    E = graph.num_edges
    if eta.shape not in ((E, 2), (2 * E,)):
        raise ValueError(f"messages of shape {eta.shape} for a graph with "
                         f"{E} edges: expected ({E}, 2) or ({2 * E},)")
    return eta.reshape(E, 2)


def _bind(graph: CheckGraph, spec: FactorSpec) -> tuple:
    """Where a spec meets its host: the couplings t_a and h/2 of every
    slot's edge, slot-major (dmax, n), contiguous, 0 on padded slots.
    ValueError unless ``spec`` fits ``graph``."""
    t = spec.parity_couplings(graph)
    hh = np.ascontiguousarray(0.5 * spec.h[graph.layout.eid.T])
    hh[graph.layout.pad.T] = 0.0
    return t, hh


def _tilted_tables(graph: CheckGraph, spec: FactorSpec,
                   eta: Optional[np.ndarray] = None):
    """``(deg, nodes, top, weights)`` per degree class, in blocks of nodes
    whose tables of 2^deg entries fill at most ``BLOCK_ENTRIES``: with
    L[s, i] = ln f_a at node a = ``nodes[i]`` in local configuration s (bit
    k set: spin -1 on slot k), plus the incoming messages if ``eta`` (E x
    2) is given, exactly -inf where f_a forbids s, ``top`` is max L[:, i]
    (0 where f_a forbids every s) and the weights exp(L - top), (2^deg,
    len(nodes)).  L is built by doubling over the slots: deg passes over
    2^deg entries per node.  Raised on the call, before anything is
    allocated: ValueError unless ``spec`` fits ``graph``, and BudgetError
    naming the first node whose deg passes over 2^deg entries would pass
    ``MAX_ENTRIES`` (degree 20 and above)."""
    t, hh = _bind(graph, spec)
    lay = graph.layout
    # by least node: the first class refused holds the least node refused
    for d, nodes in sorted(lay.classes, key=lambda c: c[1][0]):
        check_budget(d << d, "node table of degree {} (node {})", d,
                     nodes[0], unit="entry passes")
    ext = None if eta is None else np.append(eta.reshape(-1), 0.0)
    # ln((1 + t_a parity)/2) of every node: row 0 for a configuration of
    # even parity (an even number of -1 spins), row 1 for odd
    with np.errstate(divide="ignore"):    # ln 0 = -inf
        log_c = np.log(0.5 * (1.0 + np.multiply.outer([1.0, -1.0], t)))

    def blocks():
        for d, members in lay.classes:
            step = max(1, BLOCK_ENTRIES >> d)
            parity = np.bitwise_count(np.arange(1 << d)) & 1
            for nodes in np.split(members, range(step, len(members), step)):
                W = columns(hh[:d], nodes)
                if ext is not None:
                    W = ext[columns(lay.inc.T[:d], nodes)] + W
                L = np.empty((1 << d, len(nodes)))
                L[0] = 0.0
                # slot k: rows [2^k, 2^(k+1)), bit k set, are rows
                # [0, 2^k) with spin -1 on slot k, and those take +1
                for k in range(d):
                    lo = L[:1 << k]
                    np.subtract(lo, W[k], out=L[1 << k:2 << k])
                    lo += W[k]
                L += columns(log_c, nodes)[parity]
                top = np.maximum.reduce(L)
                top[top == -np.inf] = 0.0    # not NaN weights, but 0
                L -= top
                yield d, nodes, top, np.exp(L, out=L)

    return blocks()


def exact_log_partition(graph: CheckGraph, spec: FactorSpec) -> float:
    """ln Z, summed exactly over all 2^{|E|} spin configurations.

    The sum is contracted by bucket elimination over the edge spins, on the
    host's ``elimination_plan``, with the tilted factor tables as node
    tensors; its cost follows the elimination width, not 2^{|E|}.  Raises
    BudgetError, before any table is allocated, when the elimination would
    build too large a table or a node has degree 20 or more (its table
    would cost deg passes over 2^deg entries, past 2^24), and ValueError
    if Z vanishes.
    """
    blocks = _tilted_tables(graph, spec)
    plan = graph.elimination_plan
    top = np.empty(graph.n)

    def weights():
        for d, nodes, shift, weights in blocks:
            top[nodes] = shift
            yield d, nodes, weights

    vals, log_scale = contract(plan, node_tables(graph.layout, weights()))
    if not vals[0] > 0.0:
        raise ValueError("partition function vanished")
    return float(np.sum(top)) + log_scale + math.log(vals[0])
