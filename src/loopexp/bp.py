"""Belief propagation on edge spins and the Bethe free energy.

Messages eta_{a->b} live on directed edges, in half log-likelihood units.
The flooding update for every factor kind closes to

    eta_{a->c} = h_ac/2 + atanh( t_a * prod_{b in da, b != c} tanh(eta_{b->a} + h_ab/2) )

with the parity coupling t_a of the factor (1, 1-eps, or tanh J_a).  At a
fixed point every degree-one loop activity vanishes, which is what reduces
the correction series to loop subsets.

One kernel runs the sweep for ``bp_sweep`` and ``solve_fixed_point``.  It
keeps the messages slot-major, as rows of (slot, node) in preallocated
buffers: a sweep is one fixed gather of the incoming messages, the
leave-one-out products from prefix and suffix products over the rows, and
ufuncs writing into the buffers, so it allocates nothing.  Messages are
converted from edge order once when a solve starts and back once when it
returns, so ``MessageSet.eta`` keeps its edge order, and the iterates are
those of the edge-order update (see ``_Sweeper``).

A raw update that is non-finite before clamping (the tanh product hit +-1)
raises DivergenceError from ``bp_sweep``; ``solve_fixed_point`` catches it
and reports a non-converged MessageSet with the overflow flag instead.
Messages whose shape does not fit the graph raise ValueError at every
entry point that takes them; the sweep also refuses non-finite messages,
while the Bethe value and the activity tables take them.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._csvio import read_csv, write_csv
from .exceptions import DivergenceError
from .graphs import CheckGraph
from .model import FactorSpec, _log_factor_blocks

__all__ = ["MessageSet", "BetheValue", "bp_sweep", "solve_fixed_point",
           "bethe_log_partition", "write_messages_csv", "read_messages_csv"]

logger = logging.getLogger(__name__)

# Messages are clipped to [-CLAMP, CLAMP] after each sweep; clipping sets the
# overflow flag.
CLAMP = 30.0


@dataclass(frozen=True)
class MessageSet:
    """Messages on directed edges plus solver metadata.

    ``eta[e, 0]`` is the message u->v and ``eta[e, 1]`` the message v->u for
    edge e = (u, v) with u < v.  ``residual`` is the undamped residual
    max |update - eta| as of the last sweep.
    """

    eta: np.ndarray
    sweeps: int = 0
    residual: float = math.inf
    converged: bool = False
    overflow: bool = False

    @classmethod
    def zeros(cls, graph: CheckGraph) -> "MessageSet":
        return cls(eta=np.zeros((graph.num_edges, 2)))

    def flat(self) -> np.ndarray:
        """Directed-edge vector: index 2e + dir."""
        return self.eta.reshape(-1)


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


class _Sweeper:
    """The flooding sweep of one model, run in place on slot-major buffers.

    Message k of node a (out of a along slot k) sits at ``k * n + a`` of
    ``msg``, whose last entry is a zero that padded slots read; ``src``
    holds, for every slot, the position of the message coming in along it.
    ``load`` and ``edge_messages`` convert from and to edge order.  Every
    temporary is allocated once, so a sweep allocates nothing.  ``update``
    runs the same operations in the same order as the edge-order update,
    so the iterates are unchanged: bit for bit when no node has more than
    three slots, and up to the association of the leave-one-out product
    (prefix times suffix) above that.  Padded slots take tanh 1, and their
    raw update and message are held at exactly 0, so the residual and the
    checks, taken over the whole buffer, see the real messages only.

    Raises ValueError for a damping outside [0, 1) (1 freezes the messages,
    larger values overflow) and for fields or couplings of the wrong length.
    """

    def __init__(self, graph: CheckGraph, spec: FactorSpec, damping: float):
        if not 0.0 <= damping < 1.0:
            raise ValueError(f"damping must lie in [0, 1), got {damping}")
        t = spec.parity_couplings(graph)
        self.t = None if np.all(t == 1.0) else t    # x * 1 is x
        lay = graph.layout
        self.hh = np.ascontiguousarray(lay.half_fields(spec.h).T)
        self.damping = damping
        dmax, n = self.hh.shape
        pos = np.empty(2 * graph.num_edges + 1, dtype=np.intp)
        pos[lay.out.T] = np.arange(dmax * n).reshape(dmax, n)
        pos[-1] = dmax * n    # padded slots read the trailing zero
        self.pos = pos[:-1]
        self.src = pos[lay.inc.T]
        self.pad = np.ascontiguousarray(lay.pad.T) if lay.pad.any() else None
        self.msg = np.zeros(dmax * n + 1)
        self.eta = self.msg[:-1].reshape(dmax, n)
        self.raw = np.empty((dmax, n))
        self.tmp = np.empty((dmax, n))
        self.flags = np.empty((dmax, n), dtype=bool)

    def load(self, eta: np.ndarray) -> None:
        """Messages from edge order, shape (E, 2); ValueError names the
        first edge whose message is not finite."""
        bad = np.flatnonzero(~np.isfinite(eta).all(axis=1))
        if bad.size:
            raise ValueError(f"message on edge {bad[0]} is not finite")
        self.msg[self.pos] = eta.reshape(-1)

    def edge_messages(self) -> np.ndarray:
        """The messages in edge order, shape (E, 2), as a new array."""
        return self.msg[self.pos].reshape(-1, 2)

    def update(self) -> float:
        """Raw update of every message into ``raw``; returns the residual
        max |raw - eta|, or raises DivergenceError on a non-finite update.
        The messages are finite (``load`` checks them, ``mix`` clips
        them), so a non-finite update makes the residual non-finite."""
        T, raw = self.tmp, self.raw
        # every index is valid; "clip" spares the buffered copy that
        # np.take makes of ``out`` under the default "raise"
        np.take(self.msg, self.src, out=T, mode="clip")
        np.add(T, self.hh, out=T)
        np.tanh(T, out=T)
        if self.pad is not None:
            np.copyto(T, 1.0, where=self.pad)
        _leave_one_out(T, raw)
        if self.t is not None:
            np.multiply(raw, self.t, out=raw)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.arctanh(raw, out=raw)
        np.add(raw, self.hh, out=raw)
        if self.pad is not None:
            np.copyto(raw, 0.0, where=self.pad)
        if not raw.size:
            return 0.0
        np.subtract(raw, self.eta, out=T)
        residual = float(np.abs(T, out=T).max())
        if not math.isfinite(residual):
            raise DivergenceError("non-finite message update (tanh product hit 1)")
        return residual

    def mix(self) -> bool:
        """Damped step ``eta <- (1 - damping) raw + damping eta``, clipped to
        [-CLAMP, CLAMP]; returns whether any message was clipped."""
        eta, raw, T = self.eta, self.raw, self.tmp
        np.multiply(raw, 1.0 - self.damping, out=raw)
        np.multiply(eta, self.damping, out=eta)
        np.add(raw, eta, out=eta)
        if not np.greater(np.abs(eta, out=T), CLAMP, out=self.flags).any():
            return False
        np.clip(eta, -CLAMP, CLAMP, out=eta)
        return True


def _leave_one_out(T: np.ndarray, L: np.ndarray) -> None:
    """``L[k]`` = product of the rows ``T[j]``, j != k, as prefix times
    suffix product; ``L[0]`` holds the running suffix until it is done."""
    d = len(T)
    if d < 2:
        L[:] = 1.0
        return
    L[1] = T[0]
    for k in range(2, d):
        np.multiply(L[k - 1], T[k - 1], out=L[k])
    suffix = T[d - 1]
    if d == 2:
        L[0] = suffix
    for k in range(d - 2, 0, -1):
        np.multiply(L[k], suffix, out=L[k])
        suffix = np.multiply(suffix, T[k], out=L[0])


def bp_sweep(graph: CheckGraph, spec: FactorSpec, messages: MessageSet,
             damping: float = 0.0) -> MessageSet:
    """One flooding sweep: all directed edges updated from the old messages.

    Runs the slot-major kernel of ``solve_fixed_point`` once, with the same
    iterates as the edge-order update.  Returns the damped, clamped
    messages with the undamped residual recorded.  Raises DivergenceError
    if the raw update is non-finite and ValueError for messages whose shape
    does not fit the graph or that are not finite.
    """
    sweeper = _Sweeper(graph, spec, damping)
    sweeper.load(_edge_messages(graph, messages.eta))
    residual = sweeper.update()
    clipped = sweeper.mix()
    return MessageSet(eta=sweeper.edge_messages(), sweeps=messages.sweeps + 1,
                      residual=residual, converged=False,
                      overflow=bool(messages.overflow or clipped))


def solve_fixed_point(graph: CheckGraph, spec: FactorSpec,
                      tol: float = 1e-12, damping: float = 0.5,
                      max_sweeps: int = 10_000,
                      init: Optional[Union[MessageSet, np.ndarray]] = None
                      ) -> MessageSet:
    """Iterate damped flooding sweeps to a fixed point.

    Convergence means the *undamped* residual dropped to ``tol``; the returned
    messages are the pre-update ones, so one further undamped sweep moves no
    message by more than ``tol``.  Non-convergence and divergence are reported
    through the flags, never raised; a damping outside [0, 1), a NaN
    ``tol`` (-inf never converges) and an ``init`` whose shape does not fit
    the graph or whose messages are not finite raise ValueError.

    The messages live in slot-major buffers for the whole solve: one
    gather per sweep, leave-one-out products from prefix and suffix
    products, and no allocation per sweep.  The iterates, ``sweeps``,
    ``residual`` and flags are those of the edge-order update (see
    ``_Sweeper``).  One DEBUG record on this module's logger reports the
    size, sweeps, residual, flags and wall time of the solve.
    """
    if math.isnan(tol):
        raise ValueError("tol must be a number, got nan")
    debug = logger.isEnabledFor(logging.DEBUG)
    start = time.perf_counter() if debug else 0.0
    sweeper = _Sweeper(graph, spec, damping)
    if init is not None:
        eta = init.eta if isinstance(init, MessageSet) else init
        sweeper.load(_edge_messages(graph, eta))
    out = _iterate(sweeper, tol, max_sweeps)
    if debug:
        logger.debug("BP on %d nodes: %d sweeps, residual %.3g, converged %s, "
                     "overflow %s, %.4f s", graph.n, out.sweeps, out.residual,
                     out.converged, out.overflow, time.perf_counter() - start)
    return out


def _iterate(sweeper: _Sweeper, tol: float, max_sweeps: int) -> MessageSet:
    overflow = False
    residual = math.inf
    for k in range(1, max_sweeps + 1):
        try:
            residual = sweeper.update()
        except DivergenceError:
            return MessageSet(eta=sweeper.edge_messages(), sweeps=k,
                              residual=math.inf, converged=False, overflow=True)
        if residual <= tol:
            return MessageSet(eta=sweeper.edge_messages(), sweeps=k,
                              residual=residual, converged=True,
                              overflow=overflow)
        overflow = sweeper.mix() or overflow
    return MessageSet(eta=sweeper.edge_messages(), sweeps=max_sweeps,
                      residual=residual, converged=False, overflow=overflow)


@dataclass(frozen=True)
class BetheValue:
    """Bethe free entropy split into its node and edge parts."""

    node_term: float
    edge_term: float

    @property
    def total(self) -> float:
        return self.node_term - self.edge_term


def bethe_log_partition(graph: CheckGraph, spec: FactorSpec,
                        messages: MessageSet) -> BetheValue:
    """Bethe functional at the given messages (any messages, not only fixed points).

    Node term: sum over nodes of ln sum_{local configs} f_a * exp(incoming
    messages), each node sum taken over all 2^deg local configurations.
    Edge term: sum over edges of ln 2 cosh(eta_{a->b} + eta_{b->a}).
    ValueError for messages whose shape does not fit the graph and for a
    vanishing node sum; BudgetError, before anything is allocated, for a
    node of degree 20 or more (its 2^deg x deg spins pass 2^24 entries).
    """
    eta = _edge_messages(graph, messages.eta)
    vals = np.empty(graph.n)
    # a configuration the factor forbids is exactly -inf, so it neither
    # sets the shift nor adds to the sum
    with np.errstate(divide="ignore", invalid="ignore"):
        for _, nodes, L in _log_factor_blocks(graph, spec, eta):
            top = L.max(axis=1, keepdims=True)
            vals[nodes] = top[:, 0] + np.log(np.exp(L - top).sum(axis=1))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"node sum vanished at node {bad[0]}")
    node_term = float(np.sum(vals))
    # ln 2 cosh q = |q| + ln(1 + e^{-2|q|}), overflow-safe for large q
    q = eta[:, 0] + eta[:, 1]
    edge_term = float(np.sum(np.abs(q) + np.log1p(np.exp(-2.0 * np.abs(q)))))
    return BetheValue(node_term=node_term, edge_term=edge_term)


def write_messages_csv(graph: CheckGraph, messages: MessageSet, path) -> None:
    """Rows ``a,b,eta`` for every directed edge, with the solver's sweeps,
    residual and flags as metadata, in the package's CSV format."""
    meta = {"sweeps": messages.sweeps, "residual": messages.residual,
            "converged": int(messages.converged),
            "overflow": int(messages.overflow)}
    rows = []
    for e, (u, v) in enumerate(graph.edges):
        rows += [[u, v, float(messages.eta[e, 0])],
                 [v, u, float(messages.eta[e, 1])]]
    write_csv(path, meta, ["a", "b", "eta"], rows)


def read_messages_csv(graph: CheckGraph, path) -> MessageSet:
    """The messages written by :func:`write_messages_csv`.  Raises ValueError
    without the header, or for an edge not in ``graph`` or a directed edge
    repeated or missing."""
    meta, rows = read_csv(path, ["a", "b", "eta"])
    eta = np.full((graph.num_edges, 2), np.nan)
    for row in rows:
        a, b = int(row[0]), int(row[1])
        key = (min(a, b), max(a, b))
        if key not in graph.edge_index:
            raise ValueError(f"{path}: edge {key} not present in the graph")
        e = graph.edge_index[key]
        direction = int(a > b)    # edge e is (min, max)
        if not np.isnan(eta[e, direction]):
            raise ValueError(f"{path}: directed edge {a}->{b} repeated")
        eta[e, direction] = float(row[2])
    if np.any(np.isnan(eta)):
        raise ValueError(f"{path}: missing directed edges")
    return MessageSet(eta=eta, sweeps=int(float(meta.get("sweeps", 0))),
                      residual=float(meta.get("residual", math.inf)),
                      converged=bool(float(meta.get("converged", 0))),
                      overflow=bool(float(meta.get("overflow", 0))))
