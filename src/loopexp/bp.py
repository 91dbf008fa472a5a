"""Belief propagation on edge spins and the Bethe free energy.

Messages eta_{a->b} live on directed edges, in half log-likelihood units.
The flooding update for every factor kind closes to

    eta_{a->c} = h_ac/2 + atanh( t_a * prod_{b in da, b != c} tanh(eta_{b->a} + h_ab/2) )

with the parity coupling t_a of the factor (1, 1-eps, or tanh J_a).  At a
fixed point every degree-one loop activity vanishes, which is what reduces
the correction series to loop subsets.

A raw update that is non-finite before clamping (the tanh product hit +-1)
raises DivergenceError from ``bp_sweep``; ``solve_fixed_point`` catches it
and reports a non-converged MessageSet with the overflow flag instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import logsumexp

from ._layout import Layout, spins
from .exceptions import DivergenceError
from .graphs import CheckGraph
from .model import FactorSpec

__all__ = ["MessageSet", "BetheValue", "bp_sweep", "solve_fixed_point",
           "bethe_log_partition", "write_messages_csv", "read_messages_csv"]

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


def _sweep_inputs(graph: CheckGraph, spec: FactorSpec, damping: float):
    """Layout, half fields and parity couplings for sweeps of one model.

    Raises ValueError for a damping outside [0, 1) (1 freezes the messages,
    larger values overflow) and for fields or couplings of the wrong length.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must lie in [0, 1), got {damping}")
    t = spec.parity_couplings(graph)
    lay = graph.layout
    return lay, lay.half_fields(spec.h), t


def _raw_sweep(lay: Layout, hh: np.ndarray, t: np.ndarray,
               flat: np.ndarray) -> np.ndarray:
    eta_ext = np.append(flat, 0.0)
    T = np.tanh(eta_ext[lay.inc] + hh)
    T[lay.pad] = 1.0
    loo = np.empty_like(T)
    for k in range(lay.dmax):
        cols = [j for j in range(lay.dmax) if j != k]
        loo[:, k] = np.prod(T[:, cols], axis=1) if cols else 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        upd = hh + np.arctanh(t[:, None] * loo)
    real = ~lay.pad
    new_flat = np.empty_like(flat)
    new_flat[lay.out[real]] = upd[real]
    if not np.all(np.isfinite(new_flat)):
        raise DivergenceError("non-finite message update (tanh product hit 1)")
    return new_flat


def bp_sweep(graph: CheckGraph, spec: FactorSpec, messages: MessageSet,
             damping: float = 0.0) -> MessageSet:
    """One flooding sweep: all directed edges updated from the old messages.

    Returns the damped, clamped messages with the undamped residual recorded.
    Raises DivergenceError if the raw update is non-finite.
    """
    inputs = _sweep_inputs(graph, spec, damping)
    flat = messages.flat()
    raw = _raw_sweep(*inputs, flat)
    residual = float(np.max(np.abs(raw - flat))) if flat.size else 0.0
    mixed = (1.0 - damping) * raw + damping * flat
    overflow = bool(messages.overflow or np.any(np.abs(mixed) > CLAMP))
    eta = np.clip(mixed, -CLAMP, CLAMP).reshape(-1, 2)
    return MessageSet(eta=eta, sweeps=messages.sweeps + 1,
                      residual=residual, converged=False, overflow=overflow)


def solve_fixed_point(graph: CheckGraph, spec: FactorSpec,
                      tol: float = 1e-12, damping: float = 0.5,
                      max_sweeps: int = 10_000,
                      init: Optional[Union[MessageSet, np.ndarray]] = None
                      ) -> MessageSet:
    """Iterate damped flooding sweeps to a fixed point.

    Convergence means the *undamped* residual dropped to ``tol``; the returned
    messages are the pre-update ones, so one further undamped sweep moves no
    message by more than ``tol``.  Non-convergence and divergence are reported
    through the flags, never raised; a damping outside [0, 1) raises
    ValueError.
    """
    inputs = _sweep_inputs(graph, spec, damping)
    if init is None:
        flat = np.zeros(2 * graph.num_edges)
    elif isinstance(init, MessageSet):
        flat = init.flat().copy()
    else:
        flat = np.asarray(init, dtype=np.float64).reshape(-1).copy()
    overflow = False
    residual = math.inf
    for k in range(1, max_sweeps + 1):
        try:
            raw = _raw_sweep(*inputs, flat)
        except DivergenceError:
            return MessageSet(eta=flat.reshape(-1, 2), sweeps=k,
                              residual=math.inf, converged=False, overflow=True)
        residual = float(np.max(np.abs(raw - flat))) if flat.size else 0.0
        if residual <= tol:
            return MessageSet(eta=flat.reshape(-1, 2), sweeps=k,
                              residual=residual, converged=True,
                              overflow=overflow)
        mixed = (1.0 - damping) * raw + damping * flat
        if np.any(np.abs(mixed) > CLAMP):
            overflow = True
            mixed = np.clip(mixed, -CLAMP, CLAMP)
        flat = mixed
    return MessageSet(eta=flat.reshape(-1, 2), sweeps=max_sweeps,
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
    """
    t = spec.parity_couplings(graph)
    lay = graph.layout
    hh = lay.half_fields(spec.h)
    ext = np.append(messages.flat(), 0.0)
    vals = np.empty(graph.n)
    with np.errstate(divide="ignore"):
        for d, nodes in lay.blocks(lambda d: 1 << d):
            S, parity = spins(d)
            W = ext[lay.inc[nodes, :d]] + hh[nodes, :d]
            vals[nodes] = logsumexp(W @ S.T, axis=1,
                                    b=0.5 * (1.0 + t[nodes, None] * parity))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"node sum vanished at node {bad[0]}")
    node_term = float(np.sum(vals))
    eta = messages.eta
    # ln 2 cosh q = |q| + ln(1 + e^{-2|q|}), overflow-safe for large q
    q = eta[:, 0] + eta[:, 1]
    edge_term = float(np.sum(np.abs(q) + np.log1p(np.exp(-2.0 * np.abs(q)))))
    return BetheValue(node_term=node_term, edge_term=edge_term)


def write_messages_csv(graph: CheckGraph, messages: MessageSet, path) -> None:
    """CSV rows ``a,b,eta`` for every directed edge, metadata in comments."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# sweeps={messages.sweeps}\n")
        fh.write(f"# residual={messages.residual!r}\n")
        fh.write(f"# converged={int(messages.converged)}\n")
        fh.write(f"# overflow={int(messages.overflow)}\n")
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "eta"])
        for e, (u, v) in enumerate(graph.edges):
            writer.writerow([u, v, repr(float(messages.eta[e, 0]))])
            writer.writerow([v, u, repr(float(messages.eta[e, 1]))])


def read_messages_csv(graph: CheckGraph, path) -> MessageSet:
    meta = {"sweeps": 0, "residual": math.inf, "converged": 0, "overflow": 0}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition("=")
                key = key.strip()
                if key in meta:
                    meta[key] = float(val)
                continue
            rows.append(line)
    reader = csv.reader(rows)
    header = next(reader, None)
    if header is None or header[:3] != ["a", "b", "eta"]:
        raise ValueError(f"{path}: expected header a,b,eta, got {header}")
    eta = np.full((graph.num_edges, 2), np.nan)
    for row in reader:
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
    return MessageSet(eta=eta, sweeps=int(meta["sweeps"]),
                      residual=float(meta["residual"]),
                      converged=bool(meta["converged"]),
                      overflow=bool(meta["overflow"]))
