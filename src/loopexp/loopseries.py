"""Loop-series correction to the Bethe free energy and its polymer expansion.

For any messages eta the partition function factors exactly as

    ln Z = ln Z_Bethe(eta) + ln Z_corr(eta),

where Z_corr sums, over all edge subsets g, products of local activities

    K_a(S) = sum_{local configs} p_a(sigma) prod_{b in S} sigma_ab
             * exp(-sigma_ab (eta_{a->b} + eta_{b->a}))

with p_a the factor tilted by the incoming messages and normalized.  At a BP
fixed point every degree-one activity vanishes, so only loop subsets (no
induced degree one) survive, and the correction regroups into connected
min-degree-2 polymers gamma with activities K(gamma) and a hard-core
node-disjointness constraint:

    Z_corr = sum over collections of pairwise node-disjoint polymers
             of prod K(gamma).

ln Z_corr then has the Mayer expansion over connected clusters, truncatable
at order M with Ursell signs.  With every activity scaled by lambda, Z_corr
is the hard-core polynomial Xi(lambda), a product over groups of overlapping
supports, and the order-M term is the lambda^M coefficient of ln Xi, taken
group by group.  The convergence criterion
sup_a sum_{gamma owns a} e^{|gamma|} |K(gamma)| < 1 controls the expansion.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._elim import check_budget, contract
from ._layout import MAX_ENTRIES, Rows, node_tables
from .bp import MessageSet, _edge_messages, bethe_log_partition
from .exceptions import BudgetError
from .graphs import CheckGraph, PolymerCatalog, enumerate_polymers
from .model import FactorSpec, _log_factor_blocks, exact_log_partition

__all__ = [
    "ActivityTable",
    "CorrectionScan",
    "scan_correction",
    "z_corr_polymer_form",
    "MayerExpansion",
    "mayer_expansion",
    "convergence_criterion",
    "SplitReport",
    "split_report",
    "ExpansionReport",
    "build_expansion_report",
]

logger = logging.getLogger(__name__)


class ActivityTable:
    """All local activities of a model at fixed messages.

    The table is an immutable snapshot: perturbing messages means building a
    new table.  ``K[a]`` holds K_a(S) for every subset S of a's incident
    edges, indexed by the local bitmask aligned with ``graph.adjacency[a]``.

    With incoming fields w_k = eta_{b_k->a} + h_k/2 and edge sums
    q_k = eta_{a->b_k} + eta_{b_k->a}, K_a(S) is the average under the
    tilted local weights (the model's log factor tables, shifted by their
    largest entry) of prod_{k in S} sigma_k exp(-sigma_k q_k), by one
    two-point pass per slot over a row of 2^d weights: BudgetError at
    degree 20, before any table is allocated.  ValueError names the first
    node whose local normalizer vanished or, failing that, whose table is
    not finite, and refuses messages whose shape does not fit the graph.
    """

    def __init__(self, graph: CheckGraph, spec: FactorSpec,
                 messages: MessageSet):
        self.graph = graph
        self.spec = spec
        eta = _edge_messages(graph, messages.eta)
        blocks = _log_factor_blocks(graph, spec, eta)
        q = np.sum(eta, axis=1)

        def activities():
            for d, nodes, L in blocks:
                K = np.exp(L - np.max(L, axis=1, keepdims=True))
                qk = q[graph.layout.eid[nodes, :d]][:, :, None, None]
                down, up = np.exp(-qk), np.exp(qk)
                # slot k pairs the entries with bit k clear and set: spin +1
                # and -1 before the pass, subset without and with k after
                for k in range(d):
                    pairs = K.reshape(len(nodes), -1, 2, 1 << k)
                    x0, x1 = pairs[:, :, 0], pairs[:, :, 1]
                    x0[...], x1[...] = x0 + x1, down[:, k] * x0 - up[:, k] * x1
                # entry 0 sums all weights: NaN here if the normalizer vanished
                yield d, nodes, K / K[:, :1]

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            self.K = node_tables(graph.layout, activities())
        bad = np.flatnonzero(np.isnan(self.K.values[self.K.offsets[:-1]]))
        if bad.size:
            raise ValueError(f"local normalizer vanished at node {bad[0]}")
        infinite = np.flatnonzero(~np.isfinite(self.K.values))
        if infinite.size:
            a = np.searchsorted(self.K.offsets, infinite[0], side="right") - 1
            raise ValueError(f"activity table not finite at node {a}")

    def polymer_activities(self, catalog: PolymerCatalog) -> np.ndarray:
        """K(gamma) of every polymer, gathered from the flat tables.

        The catalog's slot masks index each support node's table directly,
        and the product runs over the columns of ``slot_masks``, in
        ascending node order, one column at a time, so temporaries hold
        one entry per polymer.  Padded entries (node n, mask 0) read the
        1.0 appended past the last table.  ValueError for a catalog of
        another host.
        """
        _check_host(self.graph, catalog.host)
        values, out = np.append(self.K.values, 1.0), np.ones(len(catalog))
        for start, masks in zip(self.K.offsets[catalog.support_nodes.T],
                                catalog.slot_masks.T):
            out *= values[start[catalog.support] + masks]
        return out


@dataclass(frozen=True)
class CorrectionScan:
    """Exact sums of activity products over all 2^{|E|} edge subsets."""

    z_all: float            # sum over all subsets (exact Z/Z_Bethe)
    z_loops: float          # restricted to loop subsets (no degree-1 node)
    max_nonloop_abs: float  # largest |K(g)| among non-loop subsets
    tail_abs: float         # sum of |K(g)| over subsets touching >= n/2 nodes
    num_subsets: int


def scan_correction(graph: CheckGraph, table: ActivityTable) -> CorrectionScan:
    """All four subset sums, each as one contraction of the K_a network.

    Every output is a bucket elimination over edge-membership variables
    with a different node tensor: ``K_a`` for ``z_all``; ``K_a`` with its
    degree-one entries zeroed for ``z_loops``; ``|K_a|`` with a count of
    touched nodes, saturating at ceil(n/2), for ``tail_abs``; ``|K_a|`` in
    the (max, x) semiring with an "any degree-one node" flag for
    ``max_nonloop_abs``.  ``z_all`` never comes from ln Z, so the identity
    check stays non-circular.  All four share the host's
    ``elimination_plan``.  ValueError for a table of another host;
    BudgetError, before the first contraction, for a plan too large for the
    tail's payload.
    """
    _check_host(graph, table.graph)
    # ties at exactly n/2 touched nodes count as large, matching the split
    # rule: 2 * touched >= n  <=>  touched >= ceil(n/2)
    half = (graph.n + 1) // 2
    plan = graph.elimination_plan
    check_budget(plan.width, half + 1)
    K, offsets = table.K.values, table.K.offsets
    # the subset size of every entry: the popcount of its local bitmask
    size = np.bitwise_count(np.arange(len(K)) - np.repeat(offsets[:-1],
                                                          np.diff(offsets)))
    z_all = contract(plan, table.K)
    z_loops = contract(plan, Rows(np.where(size == 1, 0.0, K), offsets))
    tail = contract(plan, _tagged(table.K, size > 0, half + 1))
    nonloop = contract(plan, _tagged(table.K, size == 1, 2), maximize=True)
    return CorrectionScan(
        z_all=_scaled(z_all, 0),
        z_loops=_scaled(z_loops, 0),
        max_nonloop_abs=_scaled(nonloop, 1),
        tail_abs=_scaled(tail, half),
        num_subsets=1 << graph.num_edges,
    )


def _check_host(graph: CheckGraph, *hosts: CheckGraph) -> None:
    """ValueError unless all ``hosts`` have ``graph``'s nodes and edges."""
    if any(g.n != graph.n or not np.array_equal(g.layout.ends,
                                                graph.layout.ends)
           for g in hosts):
        raise ValueError("table or catalog built on another host graph")


def _tagged(table: Rows, tag: np.ndarray, length: int) -> Rows:
    """|table| with a payload axis: each entry at payload index ``tag``."""
    out = np.zeros((len(table.values), length))
    out[np.arange(len(out)), tag.astype(np.int64)] = np.abs(table.values)
    return Rows(out, table.offsets)


def _scaled(result: tuple[np.ndarray, float], k: int) -> float:
    """Payload ``k`` of a ``contract`` result, with its log scale applied."""
    vals, log_scale = result
    return float(vals[k]) * math.exp(log_scale)


def _by_support(catalog: PolymerCatalog,
                activities) -> list[tuple[int, float]]:
    """(node bitmask, summed activity) of each support that carries a
    nonzero-activity polymer, in catalog order.

    Exact for the hard-core sum and every Mayer order, since two polymers on
    one support always conflict; sums of |K| such as the criterion are not.
    """
    vals = catalog.activity_vector(activities)
    sums = _support_sums(catalog, vals)
    live = np.flatnonzero(_support_sums(catalog, vals != 0.0))
    items = [(catalog.support_masks[i], float(sums[i])) for i in live]
    logger.debug("%d polymers on %d supports",
                 np.count_nonzero(vals), len(items))
    return items


def _support_sums(catalog: PolymerCatalog, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each run of ``catalog.support``, one per
    support, in ``np.add.reduceat``'s order (bincount's moves last bits)."""
    starts = np.searchsorted(catalog.support,
                             np.arange(len(catalog.support_masks)))
    return np.add.reduceat(values, starts)


def _polynomials(items: list[tuple[int, float]],
                 top: Optional[int] = None) -> list[list[float]]:
    """Coefficients of the hard-core polynomial of each group of supports.

    The supports are split into groups that share no node; collections
    from different groups never conflict, so the hard-core polynomial
    Xi(lambda) = sum over collections of pairwise node-disjoint supports of
    prod(lambda w) is the product of one polynomial per group.  For each
    group this returns c_0..c_t, where c_k sums prod(w) over the sets of k
    pairwise disjoint supports of the group and t is ``top``, or its support
    count when ``top`` is None.

    One depth-first walk visits each such set of at most t supports once:
    each step passes down the later supports of the group, in the order of
    ``items``, that miss the set chosen so far, and the last level adds
    prod * sum(w) to c_t without building lists.  The pair comparisons of
    a step are counted before they are made; BudgetError once the count
    would pass ``MAX_ENTRIES``.
    """
    groups: list[int] = []    # node sets of the groups, pairwise disjoint
    for m, _ in items:
        # the groups that m touches are disjoint: their sum is their union
        touched = sum(g for g in groups if g & m)
        groups = [g for g in groups if not g & m] + [m | touched]
    compared = 0

    def walk(cands, prod, c, k):
        nonlocal compared
        c[k] += prod
        if k + 1 == len(c) - 1:
            c[k + 1] += prod * sum(v for _, v in cands)
            return
        compared += len(cands) * (len(cands) - 1) // 2
        if compared > MAX_ENTRIES:
            raise BudgetError(f"hard-core walk over {len(items):,} supports "
                              f"exceeds {MAX_ENTRIES:,} pair comparisons")
        for j, (m, v) in enumerate(cands):
            walk([it for it in cands[j + 1:] if not it[0] & m], prod * v,
                 c, k + 1)

    out = []
    for g in groups:
        members = [it for it in items if it[0] & g]
        c = [0.0] * (1 + (len(members) if top is None else top))
        walk(members, 1.0, c, 0)
        out.append(c)
    return out


def _hard_core_sum(items: list[tuple[int, float]], used: int = 0) -> float:
    """Sum of prod(w) over collections of pairwise node-disjoint supports
    that avoid the nodes in ``used``: the product of the group sums."""
    free = [it for it in items if not it[0] & used]
    return math.prod((sum(c) for c in _polynomials(free)), start=1.0)


def z_corr_polymer_form(catalog: PolymerCatalog,
                        activities: np.ndarray) -> float:
    """Z_corr as the hard-core polymer partition function.

    Exact when the catalog covers the host (node_cap >= n); with a smaller
    cap this is the truncation to small polymers.  BudgetError as for the
    walk of ``_polynomials``.
    """
    return _hard_core_sum(_by_support(catalog, activities))


@dataclass(frozen=True)
class MayerExpansion:
    """Truncated cluster expansion of ln Z_corr.

    ``orders[M-1]`` is the order-M contribution, the lambda^M coefficient of
    ln Xi(lambda) for the hard-core polynomial Xi, summed over the groups of
    overlapping supports; partial sums approximate ln Z_corr with error
    controlled by the convergence criterion.
    """

    orders: tuple[float, ...]
    num_polymers: int   # polymers with nonzero activity
    num_supports: int   # distinct node sets among them

    @property
    def partial_sums(self) -> tuple[float, ...]:
        return tuple(itertools.accumulate(self.orders))

    @property
    def total(self) -> float:
        return self.partial_sums[-1] if self.orders else 0.0


def mayer_expansion(catalog: PolymerCatalog, activities: np.ndarray,
                    M_max: int = 3) -> MayerExpansion:
    """Mayer/cluster expansion of ln Z_corr through order ``M_max`` (<= 5).

    With every activity scaled by lambda, Z_corr is the hard-core polynomial
    Xi(lambda), and the order-M Mayer term (connected clusters of M
    polymers with their Ursell coefficients) is the lambda^M coefficient of
    ln Xi.  Xi is a product over groups of overlapping supports, so ln Xi is
    a sum over them: from a group's coefficients c_0..c_{M_max}, those of
    its logarithm follow from k a_k = k c_k - sum_{j<k} j a_j c_{k-j}.
    Exact per order.  BudgetError as for the walk of ``_polynomials``.
    """
    if not 1 <= M_max <= 5:
        raise ValueError("M_max must lie in 1..5")
    supports = _by_support(catalog, activities)
    orders = [0.0] * M_max
    for c in _polynomials(supports, M_max):
        a = [0.0] * (M_max + 1)
        for k in range(1, M_max + 1):
            a[k] = c[k] - sum(j * a[j] * c[k - j] for j in range(1, k)) / k
            orders[k - 1] += a[k]
    return MayerExpansion(orders=tuple(orders), num_supports=len(supports),
                          num_polymers=int(np.count_nonzero(activities)))


def convergence_criterion(catalog: PolymerCatalog,
                          activities: np.ndarray) -> float:
    """sup over nodes of sum_{polymers touching the node} e^{|gamma|} |K(gamma)|.

    Values below 1 certify absolute convergence of the cluster expansion.
    An empty catalog gives 0.  Every polymer on a support V touches all of
    V and has |gamma| = |V|, so |K| is summed per support and e^{|V|}
    times that sum is added to each node of V.
    """
    vals = np.abs(catalog.activity_vector(activities))
    if not len(vals):
        return 0.0
    nodes, n = catalog.support_nodes, catalog.host.n
    weighted = np.exp(np.count_nonzero(nodes < n, axis=1)) * _support_sums(
        catalog, vals)
    total = np.bincount(nodes.ravel(), np.repeat(weighted, nodes.shape[1]),
                        minlength=n + 1)    # entry n: padded entries
    return float(np.max(total[:n]))


@dataclass(frozen=True)
class SplitReport:
    """Small/large polymer split of Z_corr at threshold n/2 touched nodes.

    ``z_small`` is the hard-core sum over small polymers only; each large
    polymer contributes K(gamma) times the small-polymer sum on the nodes it
    leaves free (``ratios`` holds Z_small(given gamma)/Z_small).  When two
    node-disjoint large polymers exist the one-large-polymer reconstruction
    is not exact and ``unique_large`` is False.
    """

    n: int
    z_small: float
    tail_abs: float
    large_ids: tuple[int, ...]
    ratios: dict[int, float]
    reconstructed: float
    z_polymer_all: float
    unique_large: bool
    truncated: bool


def split_report(graph: CheckGraph, spec: FactorSpec, messages: MessageSet,
                 catalog: Optional[PolymerCatalog] = None,
                 table: Optional[ActivityTable] = None) -> SplitReport:
    if table is None:
        table = ActivityTable(graph, spec, messages)
    if catalog is None:
        catalog = enumerate_polymers(graph, graph.n)
    _check_host(graph, catalog.host, table.graph)
    vals = table.polymer_activities(catalog)
    size = np.count_nonzero(catalog.support_nodes < graph.n, axis=1)
    large_ids = np.flatnonzero(
        2 * size[catalog.support] >= graph.n).tolist()
    large_masks = [catalog.support_masks[s]
                   for s in catalog.support[large_ids].tolist()]
    supports = _by_support(catalog, vals)
    small_items = [(m, w) for m, w in supports
                   if 2 * m.bit_count() < graph.n]
    z_small = _hard_core_sum(small_items)
    # one id per large support: its polymers share cond and overlap
    witness = dict(zip(large_masks, large_ids))
    cond = {m: _hard_core_sum(small_items, m) for m in witness}
    ratios = {i: cond[m] / z_small for i, m in zip(large_ids, large_masks)}
    reconstructed = z_small + sum(w * cond[m] for m, w in supports
                                  if m in cond)
    pair = next(((i, j) for (mi, i), (mj, j)
                 in itertools.combinations(witness.items(), 2)
                 if not mi & mj), None)
    if pair is not None:
        logger.warning("two node-disjoint large polymers (ids %d, %d); "
                       "single-large-polymer split is not exact here", *pair)
    return SplitReport(
        n=graph.n,
        z_small=z_small,
        tail_abs=float(np.sum(np.abs(vals[large_ids]))),
        large_ids=tuple(large_ids),
        ratios=ratios,
        reconstructed=reconstructed,
        z_polymer_all=_hard_core_sum(supports),
        unique_large=pair is None,
        truncated=not catalog.covers_host,
    )


@dataclass(frozen=True)
class ExpansionReport:
    """Everything one instance yields: Bethe value, corrections, diagnostics.

    The identity residual |ln Z - ln Z_Bethe - ln Z_corr| is recomputed from
    the stored pieces, never stored.
    """

    n: int
    d: int
    num_edges: int
    kind: str
    params: dict = field(default_factory=dict)
    converged: bool = False
    sweeps: int = 0
    bp_residual: float = math.nan
    overflow: bool = False
    bethe_node: float = math.nan
    bethe_edge: float = math.nan
    exact_log_z: Optional[float] = None
    z_corr_all: Optional[float] = None
    z_corr_loops: Optional[float] = None
    max_nonloop_abs: Optional[float] = None
    tail_abs: Optional[float] = None
    z_corr_polymer: Optional[float] = None
    catalog_size: Optional[int] = None
    catalog_cap: Optional[int] = None
    catalog_truncated: Optional[bool] = None
    criterion: Optional[float] = None
    mayer_orders: Optional[tuple[float, ...]] = None

    @property
    def bethe_total(self) -> float:
        return self.bethe_node - self.bethe_edge

    def ln_z_corr(self) -> Optional[float]:
        if self.z_corr_all is None or self.z_corr_all <= 0:
            return None
        return math.log(self.z_corr_all)

    def identity_residual(self) -> Optional[float]:
        lnc = self.ln_z_corr()
        if self.exact_log_z is None or lnc is None:
            return None
        return abs(self.exact_log_z - self.bethe_total - lnc)

    def correction_per_node(self) -> Optional[float]:
        lnc = self.ln_z_corr()
        return None if lnc is None else lnc / self.n

    def to_json_dict(self) -> dict:
        def conv(x):
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            if isinstance(x, tuple):
                return list(x)
            return x

        out = {"format_version": 1}
        for name in self.__dataclass_fields__:
            out[name] = conv(getattr(self, name))
        out["bethe_total"] = self.bethe_total
        out["ln_z_corr"] = self.ln_z_corr()
        out["identity_residual"] = self.identity_residual()
        out["correction_per_node"] = self.correction_per_node()
        return out

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, allow_nan=True)
            fh.write("\n")


def build_expansion_report(graph: CheckGraph, spec: FactorSpec,
                           messages: MessageSet, *,
                           node_cap: Optional[int] = None,
                           mayer_max: int = 3,
                           params: Optional[dict] = None) -> ExpansionReport:
    """Assemble the full per-instance report at the given messages.

    An exact sum whose elimination plan is over the ``MAX_ENTRIES`` budget
    leaves its fields None, and the refusal, which names the width, is
    logged at INFO; large instances still produce criterion/polymer data.
    """
    bv = bethe_log_partition(graph, spec, messages)
    table = ActivityTable(graph, spec, messages)
    exact = scan = None
    # Both sums contract on the host's one plan, and the scan's budget is
    # the stricter one (its payload is >= 1): a refused ln Z means a refused
    # scan, so skipping it leaves a trial at most one refused plan to pay.
    try:
        exact = exact_log_partition(graph, spec)
        scan = scan_correction(graph, table)
    except BudgetError as exc:
        logger.info("%s left unset: %s", "correction scan" if exact is not None
                    else "exact ln Z and correction scan", exc)
    cat = enumerate_polymers(graph, graph.n if node_cap is None else node_cap)
    vals = table.polymer_activities(cat)
    mayer = (mayer_expansion(cat, vals, M_max=mayer_max)
             if len(cat) and mayer_max >= 1 else None)
    return ExpansionReport(
        n=graph.n, d=graph.d, num_edges=graph.num_edges,
        kind=spec.kind, params=params or {},
        converged=messages.converged, sweeps=messages.sweeps,
        bp_residual=messages.residual, overflow=messages.overflow,
        bethe_node=bv.node_term, bethe_edge=bv.edge_term,
        exact_log_z=exact,
        z_corr_all=None if scan is None else scan.z_all,
        z_corr_loops=None if scan is None else scan.z_loops,
        max_nonloop_abs=None if scan is None else scan.max_nonloop_abs,
        tail_abs=None if scan is None else scan.tail_abs,
        z_corr_polymer=z_corr_polymer_form(cat, vals),
        catalog_size=len(cat),
        catalog_cap=cat.node_cap,
        catalog_truncated=not cat.covers_host,
        criterion=convergence_criterion(cat, vals),
        mayer_orders=None if mayer is None else mayer.orders,
    )
