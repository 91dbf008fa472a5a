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
from ._layout import BLOCK_ENTRIES, MAX_ENTRIES, Rows, node_tables
from .exceptions import BudgetError
from .graphs import CheckGraph

__all__ = ["FactorSpec", "exact_log_partition", "KINDS"]

KINDS = ("cycle-code", "softened-cycle-code", "high-temperature")


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
        if self.kind == "softened-cycle-code" and not 0 <= self.eps <= 1:
            raise ValueError("eps must lie in [0, 1]")
        if self.kind == "high-temperature":
            if self.J is None:
                raise ValueError("high-temperature kind needs J")
            object.__setattr__(self, "J",
                               np.atleast_1d(np.asarray(self.J, dtype=np.float64)))
            if np.isnan(self.J).any():
                raise ValueError("coupling J is NaN")

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
        """t_a for every node of ``graph``.

        This is where a spec meets a graph: it raises ValueError unless
        ``h`` has one entry per edge and ``J`` is scalar or per node.
        """
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


def _log_factor_blocks(graph: CheckGraph, spec: FactorSpec,
                       eta: Optional[np.ndarray] = None):
    """``(deg, nodes, L)`` per degree class, in blocks of nodes whose rows of
    2^deg entries fill at most ``BLOCK_ENTRIES``: L[i, s] is ln f_a at node
    a = ``nodes[i]``, plus the incoming messages if ``eta`` (E x 2) is
    given, in local configuration s (bit k set: spin -1 on slot k), and
    exactly -inf where f_a forbids s.  Raised on the call, before anything
    is allocated: ValueError unless ``spec`` fits ``graph``, and BudgetError
    naming the first node whose 2^deg x deg spin matrix would pass
    ``MAX_ENTRIES`` entries (degree 20 and above)."""
    t = spec.parity_couplings(graph)
    lay = graph.layout
    over = [nodes[0] for d, nodes in lay.classes if d << d > MAX_ENTRIES]
    if over:
        a = min(over)
        raise BudgetError(f"node degree {lay.deg[a]} exceeds the node-table "
                          f"budget of {MAX_ENTRIES:,} entries (node {a})")
    hh = lay.half_fields(spec.h)
    ext = None if eta is None else np.append(eta.reshape(-1), 0.0)

    def blocks():
        for d, members in lay.classes:
            # the spins in chunks of configurations, built for each block
            # of nodes, so no 2^d x d matrix outlives its chunk
            chunk = BLOCK_ENTRIES // max(d, 1)
            step = max(1, BLOCK_ENTRIES >> d)
            for nodes in np.split(members, range(step, len(members), step)):
                W = hh[nodes, :d] if ext is None else \
                    ext[lay.inc[nodes, :d]] + hh[nodes, :d]
                L = np.empty((len(nodes), 1 << d))
                for lo in range(0, 1 << d, chunk):
                    configs = np.arange(lo, min(lo + chunk, 1 << d))[:, None]
                    S = 1.0 - 2.0 * (configs >> np.arange(d) & 1)
                    with np.errstate(divide="ignore"):    # ln 0 = -inf
                        log_c = np.log(0.5 * (1.0 + t[nodes, None]
                                              * np.prod(S, axis=1)))
                    L[:, lo:lo + chunk] = W @ S.T + log_c
                yield d, nodes, L

    return blocks()


def exact_log_partition(graph: CheckGraph, spec: FactorSpec) -> float:
    """ln Z, summed exactly over all 2^{|E|} spin configurations.

    The sum is contracted by bucket elimination over the edge spins, on the
    host's ``elimination_plan``, with the factor tables f_a, each row
    shifted by its largest log entry, as node tensors; its cost follows the
    elimination width, not 2^{|E|}.  Raises BudgetError, before any table is
    allocated, when the elimination would build too large a table or a node
    has degree 20 or more, and ValueError if Z vanishes.
    """
    blocks = _log_factor_blocks(graph, spec)
    plan = graph.elimination_plan
    logs = node_tables(graph.layout, blocks)
    top = np.maximum.reduceat(logs.values, logs.offsets[:-1])
    top[top == -np.inf] = 0.0    # a row the factor forbids stays zero
    vals, log_scale = contract(plan, Rows(
        np.exp(logs.values - np.repeat(top, 1 << graph.layout.deg)),
        logs.offsets))
    if not vals[0] > 0.0:
        raise ValueError("partition function vanished")
    return float(np.sum(top)) + log_scale + math.log(vals[0])
