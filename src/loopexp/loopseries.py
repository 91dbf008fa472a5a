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
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._elim import contract
from ._layout import (BLOCK_ENTRIES, Rows, check_budget, columns, components,
                      node_tables, runs, set_bits, word_bit)
from .bp import MessageSet, bethe_log_partition
from .exceptions import BudgetError
from .graphs import CheckGraph, PolymerCatalog, enumerate_polymers
from .model import (FactorSpec, _edge_messages, _tilted_tables,
                    exact_log_partition)

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
    edges, indexed by the local bitmask whose bit k is edge
    ``graph.layout.eid[a, k]``.

    With incoming fields w_k = eta_{b_k->a} + h_k/2 and edge sums
    q_k = eta_{a->b_k} + eta_{b_k->a}, K_a(S) is the average under the
    model's tilted local weights of prod_{k in S} sigma_k
    exp(-sigma_k q_k), by one two-point pass per slot over the 2^d rows of
    a block, each row one entry per node: BudgetError at degree 20 (a
    node's table would cost deg passes over 2^deg entries, past 2^24),
    before any table is allocated.  ValueError names the first
    node whose local normalizer vanished or, failing that, whose table is
    not finite, and refuses messages whose shape does not fit the graph.
    One DEBUG record on this module's logger reports the nodes, degree
    classes, blocks and wall time of a table built.
    """

    def __init__(self, graph: CheckGraph, spec: FactorSpec,
                 messages: MessageSet):
        debug = logger.isEnabledFor(logging.DEBUG)
        start = time.perf_counter() if debug else 0.0
        self.graph = graph
        self.spec = spec
        eta = _edge_messages(graph, messages.eta)
        blocks = _tilted_tables(graph, spec, eta)
        q = np.sum(eta, axis=1)
        count = 0

        def activities():
            nonlocal count
            for d, nodes, _, K in blocks:
                count += 1
                qk = q[columns(graph.layout.eid.T[:d], nodes)]
                down, up = np.exp(-qk), np.exp(qk)
                # slot k pairs the rows with bit k clear and set: spin +1
                # and -1 before the pass, subset without and with k after;
                # (x0, x1) <- (x0 + x1, down x0 - up x1)
                for k in range(d):
                    pairs = K.reshape(-1, 2, 1 << k, len(nodes))
                    x0, x1 = pairs[:, 0], pairs[:, 1]
                    total = x0 + x1
                    x0 *= down[k]
                    x1 *= up[k]
                    np.subtract(x0, x1, out=x1)
                    x0[...] = total
                # row 0 sums all weights: NaN there if the normalizer vanished
                K /= K[0]
                yield d, nodes, K

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            self.K = node_tables(graph.layout, activities())
        bad = np.flatnonzero(np.isnan(self.K.values[self.K.offsets[:-1]]))
        if bad.size:
            raise ValueError(f"local normalizer vanished at node {bad[0]}")
        infinite = np.flatnonzero(~np.isfinite(self.K.values))
        if infinite.size:
            a = np.searchsorted(self.K.offsets, infinite[0], side="right") - 1
            raise ValueError(f"activity table not finite at node {a}")
        if debug:
            logger.debug("activity table on %d nodes: %d degree classes, %d "
                         "blocks, %.4f s", graph.n, len(graph.layout.classes),
                         count, time.perf_counter() - start)

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
    """All four subset sums from three contractions of the K_a network.

    Every output is a bucket elimination over edge-membership variables
    with a different node tensor: ``K_a`` with a "this node has degree one"
    flag, saturating at 1, gives ``z_loops`` as payload 0 and ``z_all`` as
    payload 0 plus payload 1; ``|K_a|`` with a count of touched nodes,
    saturating at ceil(n/2), gives ``tail_abs``; ``|K_a|`` in the (max, x)
    semiring with the degree-one flag gives ``max_nonloop_abs``.
    ``z_all`` never comes from ln Z, so the identity check stays
    non-circular.  All three share the host's ``elimination_plan``.
    ValueError for a table of another host; BudgetError, before the first
    contraction, for a plan too large for the tail's payload.
    """
    _check_host(graph, table.graph)
    # ties at exactly n/2 touched nodes count as large, matching the split
    # rule: 2 * touched >= n  <=>  touched >= ceil(n/2)
    half = (graph.n + 1) // 2
    plan = graph.elimination_plan
    check_budget((1 << plan.width) * (half + 1),
                 "elimination table of 2^{} x {}", plan.width, half + 1)
    K, offsets = table.K.values, table.K.offsets
    # the subset size of every entry: the popcount of its local bitmask
    size = np.bitwise_count(np.arange(len(K)) - np.repeat(offsets[:-1],
                                                          np.diff(offsets)))
    absK = np.abs(K)
    flagged, scale = contract(plan, _tagged(K, offsets, size == 1, 2))
    tail = contract(plan, _tagged(absK, offsets, size > 0, half + 1))
    nonloop = contract(plan, _tagged(absK, offsets, size == 1, 2),
                       maximize=True)
    return CorrectionScan(
        z_all=float(flagged[0] + flagged[1]) * math.exp(scale),
        z_loops=float(flagged[0]) * math.exp(scale),
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


def _tagged(values: np.ndarray, offsets: np.ndarray, tag: np.ndarray,
            length: int) -> Rows:
    """``values`` with a payload axis: each entry at payload index ``tag``."""
    out = np.zeros((len(values), length))
    out[np.arange(len(out)), tag.astype(np.int64)] = values
    return Rows(out, offsets)


def _scaled(result: tuple[np.ndarray, float], k: int) -> float:
    """Payload ``k`` of a ``contract`` result, with its log scale applied."""
    vals, log_scale = result
    return float(vals[k]) * math.exp(log_scale)


def _by_support(catalog: PolymerCatalog,
                activities) -> tuple[np.ndarray, np.ndarray]:
    """The supports that carry a nonzero-activity polymer, as indices in
    catalog order, with their summed activities.

    Exact for the hard-core sum and every Mayer order, since two polymers on
    one support always conflict; sums of |K| such as the criterion are not.
    """
    vals = catalog.activity_vector(activities)
    sums = _support_sums(catalog, vals)
    live = np.flatnonzero(_support_sums(catalog, vals != 0.0))
    logger.debug("%d polymers on %d supports",
                 np.count_nonzero(vals), len(live))
    return live, sums[live]


def _support_sums(catalog: PolymerCatalog, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each run of ``catalog.support``, one per
    support, in ``np.add.reduceat``'s order (bincount's moves last bits)."""
    starts = np.searchsorted(catalog.support,
                             np.arange(len(catalog.support_nodes)))
    return np.add.reduceat(values, starts)


def _polynomials(nodes: np.ndarray, weights: np.ndarray, n: int,
                 top: Optional[int] = None, part: Optional[np.ndarray] = None,
                 parts: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the hard-core polynomial of each group of supports,
    one row per group; ``nodes`` (G, K) holds each support's host nodes,
    padded with ``n``, and ``weights`` its weight w.

    The supports are split into groups that share no node (``_groups``);
    collections from different groups never conflict, so the hard-core
    polynomial Xi(lambda) = sum over collections of pairwise node-disjoint
    supports of prod(lambda w) is the product of one polynomial per group.
    Row g holds c_0, c_1, ..., where c_k sums prod(w) over the sets of k
    pairwise disjoint supports of group g, up to c_t for t = ``top``, or
    else up to the largest such set of any group (zeros past a group's).
    ``part`` splits the supports into ``parts`` independent problems,
    whose groups never merge (all in part 0 when None); the second array
    returned holds each group's part.

    One level walk visits each such set of at most t supports once, in
    the order of the supports within their group, with the sums and the
    work budget of a depth-first recursion.  A state of level k is a set
    of k supports: its group, its product and its candidates, the later
    supports of the group that miss the set, as a row of packed words.
    Level 0 (the empty set of each group, c_0 = 1) has the group's
    supports as children, so level 1 is read off directly: c_1 = sum(w),
    and each support's candidates are its row of later node-disjoint
    supports.  A child adds candidate j: it multiplies the product by w_j
    and ANDs the row with j's.  A state of a group whose t is k + 1 adds
    prod * sum(w) over its candidates to c_t without children.  The
    groups are walked by width, those of W words a row (up to 64 W
    supports) together.  The pair comparisons of the recursion, C(m, 2)
    for a state with m candidates, are counted over the states that have
    children, the empty sets first, before anything is built for them;
    BudgetError once the count of one part passes ``MAX_ENTRIES``.
    Levels are walked in batches of about ``BLOCK_ENTRIES`` entries, depth
    first, so that every level's sums run in the order of the recursion.
    One DEBUG record on this module's logger reports the supports,
    groups, levels and pair comparisons of the walk.
    """
    if part is None:
        part = np.zeros(len(weights), dtype=np.int64)
    else:    # each part on its own copy of the nodes
        nodes = np.where(nodes < n, nodes + part[:, None] * n, n * parts)
        n *= parts
    gid, order, size = _groups(nodes, n)
    ng = len(size)
    home = np.zeros(ng, dtype=np.int64)    # the part of each group
    home[gid] = part
    # from here on the supports are numbered by group, then position;
    # level 0 is one state per group, whose children are its supports
    nodes, weight, g = nodes[order], weights[order], gid[order]
    last = np.full(ng, top) if top is not None else size
    cols = [np.ones(ng), np.bincount(g, weight, minlength=ng)]
    grow = (last > 1) & (size > 1)    # a lone support has no candidate
    compared = np.bincount(home, np.where(grow, size * (size - 1) // 2, 0),
                           minlength=parts)
    supports = np.bincount(part, minlength=parts)

    def check():
        worst = compared.argmax()
        check_budget(int(compared[worst]), "hard-core walk over {:,} "
                     "supports", supports[worst], unit="pair comparisons")

    check()
    start = np.cumsum(size) - size
    width = -(-size // 64)
    for W in sorted(set(width[grow].tolist())):
        # this width's supports, and each group's first among them
        sel = np.flatnonzero((grow & (width == W))[g])
        first = np.searchsorted(sel, start)
        w = weight[sel]
        later = _later(nodes[sel], n, sel - start[g[sel]], size[g[sel]], W)
        stack = [(1, g[sel], w, later, False)]
        batch = max(1, BLOCK_ENTRIES // (W + 2))
        while stack:
            k, gs, prod, cands, tested = stack.pop()
            if tested:
                # the children, whose products enter c_{k+1} as they are
                # made
                r, j = set_bits(cands)
                at = first[gs[r]] + j
                gs, prod = gs[r], prod[r] * w[at]
                if k + 1 == len(cols):
                    cols.append(np.zeros(ng))
                cols[k + 1] += np.bincount(gs, prod, minlength=ng)
                stack.append((k + 1, gs, prod, cands[r] & later[at], False))
                continue
            done = k + 1 == last[gs]
            if done.any():
                if k + 1 == len(cols):
                    cols.append(np.zeros(ng))
                r, j = set_bits(cands[done])
                sums = np.bincount(r, w[first[gs[done]][r] + j],
                                   minlength=np.count_nonzero(done))
                cols[k + 1] += np.bincount(gs[done], prod[done] * sums,
                                           minlength=ng)
                gs, prod, cands = gs[~done], prod[~done], cands[~done]
            kids = np.add.reduce(np.bitwise_count(cands), axis=1,
                                 dtype=np.int64)
            compared += np.bincount(home[gs], kids * (kids - 1) // 2,
                                    minlength=parts)
            check()
            has = kids > 0
            if not has.any():
                continue
            gs, prod, cands = gs[has], prod[has], cands[has]
            for lo, hi in runs(kids[has], batch):
                stack.append((k, gs[lo:hi], prod[lo:hi], cands[lo:hi], True))
    if top is not None:
        cols += [np.zeros(ng)] * (top + 1 - len(cols))
    logger.debug("hard-core walk: %d supports in %d groups, %d levels, "
                 "%d pair comparisons", len(weights), ng, len(cols) - 1,
                 compared.sum())
    return np.array(cols).T.reshape(ng, len(cols)), home


def _groups(nodes: np.ndarray,
            n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups of the supports ``nodes`` (G, K), padded with ``n``:
    the connected components of "shares a node".  Returns each support's
    group, numbered by least support; the supports ordered by group,
    then index; and each group's size.

    Each support is linked to the least support on each of its nodes
    (``_layout.components``).
    """
    G = len(nodes)
    s, k = np.nonzero(nodes < n)
    a = nodes[s, k]
    least = np.full(n, G)
    np.minimum.at(least, a, s)
    return components(s, least[a], G)


def _below(x: np.ndarray, W: int) -> np.ndarray:
    """Rows of W uint64 words with the positions below each ``x`` set."""
    word, col = x[:, None] >> 6, np.arange(W)
    return np.where(col < word, ~np.uint64(0),
                    np.where(col == word, word_bit(x[:, None]) - 1,
                             np.uint64(0)))


def _later(nodes: np.ndarray, n: int, pos: np.ndarray, size: np.ndarray,
           W: int) -> np.ndarray:
    """Per support (``nodes``, padded with ``n``, at position ``pos`` of a
    group of ``size``), the later supports of its group that share no
    node with it, as rows of W words over the positions."""
    G = len(nodes)
    s, k = np.nonzero(nodes < n)
    # on[a]: the positions of the supports on node a (groups share none)
    on = np.zeros((n + 1, W), dtype=np.uint64)
    np.bitwise_or.at(on, (nodes[s, k], pos[s] >> 6), word_bit(pos[s]))
    meets = np.zeros((G, W), dtype=np.uint64)
    for col in nodes.T:
        meets |= on[col]
    return ~meets & _below(size, W) & ~_below(pos + 1, W)


def _hard_core_sums(nodes: np.ndarray, weights: np.ndarray, n: int,
                    part: Optional[np.ndarray] = None,
                    parts: int = 1) -> list[float]:
    """Per part, the sum of prod(w) over collections of pairwise
    node-disjoint supports of that part: the product of its group sums,
    all from one walk of ``_polynomials``."""
    c, home = _polynomials(nodes, weights, n, part=part, parts=parts)
    out = [1.0] * parts
    for p, row in zip(home.tolist(), c.tolist()):
        out[p] *= sum(row)
    return out


def _log_orders(c: np.ndarray, M: int) -> tuple[float, ...]:
    """The lambda^1..lambda^M coefficients of ln Xi, summed over groups,
    from each group's coefficients c_0 = 1, c_1, ... (rows of ``c``): k
    a_k = k c_k - sum_{j<k} j a_j c_{k-j}, with c_k = 0 past the row;
    the callers check 1 <= M <= 5."""
    width = min(M + 1, c.shape[1])
    c = np.concatenate([c[:, :width].T, np.zeros((M + 1 - width, len(c)))])
    a = np.zeros_like(c)
    for k in range(1, M + 1):
        a[k] = c[k] - sum(j * a[j] * c[k - j] for j in range(1, k)) / k
    return tuple(np.add.reduce(a[1:], axis=1).tolist())


def z_corr_polymer_form(catalog: PolymerCatalog,
                        activities: np.ndarray) -> float:
    """Z_corr as the hard-core polymer partition function.

    Exact when the catalog covers the host (node_cap >= n); with a smaller
    cap this is the truncation to small polymers.  BudgetError as for the
    walk of ``_polynomials``.
    """
    live, w = _by_support(catalog, activities)
    return _hard_core_sums(catalog.support_nodes[live], w, catalog.host.n)[0]


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
    live, w = _by_support(catalog, activities)
    c, _ = _polynomials(catalog.support_nodes[live], w, catalog.host.n, M_max)
    return MayerExpansion(orders=_log_orders(c, M_max), num_supports=len(live),
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
    n = graph.n
    vals = table.polymer_activities(catalog)
    size = np.count_nonzero(catalog.support_nodes < n, axis=1)
    large_ids = np.flatnonzero(2 * size[catalog.support] >= n)
    large_sup = catalog.support[large_ids]
    live, w = _by_support(catalog, vals)
    nodes = catalog.support_nodes[live]
    small = np.flatnonzero(2 * size[live] < n)
    # the large supports, ascending (``support`` is nondecreasing): their
    # polymers share cond and overlap
    large = large_sup[np.diff(large_sup, prepend=-1) != 0]
    big = catalog.support_nodes[large]
    hit = np.zeros((len(big), n + 1), dtype=bool)
    hit[np.arange(len(big))[:, None], big] = True
    hit[:, n] = False
    # part 0: every support; 1: the small ones; 2 + i: the small ones that
    # miss the i-th large support
    big_at, free = np.nonzero(~hit[:, nodes[small]].any(axis=2))
    ids = np.concatenate([np.arange(len(live)), small, small[free]])
    part = np.concatenate([np.zeros(len(live), dtype=np.int64),
                           np.ones(len(small), dtype=np.int64), 2 + big_at])
    z_all, z_small, *rest = _hard_core_sums(nodes[ids], w[ids], n, part,
                                            2 + len(big))
    cond = dict(zip(large.tolist(), rest))
    ratios = {i: cond[s] / z_small
              for i, s in zip(large_ids.tolist(), large_sup.tolist())}
    reconstructed = z_small + sum(
        v * cond[s] for s, v in zip(live.tolist(), w.tolist()) if s in cond)
    # the first two large supports that share no node, each named by its
    # last polymer
    meet = hit.astype(np.int64) @ hit.T
    apart = np.argwhere(np.triu(meet == 0, k=1))
    last = np.searchsorted(catalog.support, large, side="right") - 1
    pair = tuple(last[apart[0]].tolist()) if len(apart) else None
    if pair is not None:
        logger.warning("two node-disjoint large polymers (ids %d, %d); "
                       "single-large-polymer split is not exact here", *pair)
    return SplitReport(
        n=graph.n,
        z_small=z_small,
        tail_abs=float(np.sum(np.abs(vals[large_ids]))),
        large_ids=tuple(large_ids.tolist()),
        ratios=ratios,
        reconstructed=reconstructed,
        z_polymer_all=z_all,
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
        # one write: json.dump would stream hundreds of small ones
        text = json.dumps(self.to_json_dict(), indent=2, allow_nan=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _check_report_args(node_cap: Optional[int], mayer_max: int) -> None:
    """ValueError unless ``build_expansion_report`` takes these scalars."""
    if not 0 <= mayer_max <= 5:
        raise ValueError("mayer_max must lie in 0..5")
    if node_cap is not None and node_cap < 0:
        raise ValueError("node_cap must be nonnegative")


def build_expansion_report(graph: CheckGraph, spec: FactorSpec,
                           messages: MessageSet, *,
                           node_cap: Optional[int] = None,
                           mayer_max: int = 3,
                           params: Optional[dict] = None) -> ExpansionReport:
    """Assemble the full per-instance report at the given messages.

    An exact sum whose elimination plan is over the ``MAX_ENTRIES`` budget
    leaves its fields None, and the refusal, which names the width, is
    logged at INFO; large instances still produce criterion/polymer data.
    The polymer form and the Mayer orders come from one hard-core walk
    (``_polynomials``): Z_corr is the product of the group sums, and the
    orders are the coefficients of ln Xi (``_log_orders``), as
    ``z_corr_polymer_form`` and ``mayer_expansion`` give them.
    ``mayer_max`` 0 leaves ``mayer_orders`` None, as does an empty
    catalog.  ValueError, before any work, unless 0 <= ``mayer_max`` <= 5
    and ``node_cap`` is None (the host size) or at least 0.
    """
    _check_report_args(node_cap, mayer_max)
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
    # one walk gives the hard-core sum and the Mayer orders
    live, w = _by_support(cat, vals)
    c, _ = _polynomials(cat.support_nodes[live], w, graph.n)
    z_polymer = math.prod((sum(row) for row in c.tolist()), start=1.0)
    mayer = _log_orders(c, mayer_max) if len(cat) and mayer_max else None
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
        z_corr_polymer=z_polymer,
        catalog_size=len(cat),
        catalog_cap=cat.node_cap,
        catalog_truncated=not cat.covers_host,
        criterion=convergence_criterion(cat, vals),
        mayer_orders=mayer,
    )
