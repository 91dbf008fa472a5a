"""Graphs, polymer enumeration and edge-expansion checks.

A check graph is a simple d-regular graph whose edges carry spins and whose
nodes carry factors.  Subgraphs are identified with subsets of the edge set,
stored as rows of edge ids.
A *loop* is an edge subset with no node of induced degree one; a *polymer* is
a connected edge subset in which every touched node has induced degree at
least two (hence it touches at least three nodes).

Irregular graphs are accepted by ``CheckGraph.from_edges`` so that trees,
disconnected hosts, and other oracle instances can reuse the subgraph
machinery; sampled and file-loaded graphs are validated as exactly d-regular.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from ._elim import EliminationPlan, plan_elimination
from ._layout import (BLOCK_ENTRIES, Layout, Rows, check_budget, components,
                      packed, runs, set_bits, word_bit, within_budget)
from .exceptions import PairingError

__all__ = [
    "CheckGraph",
    "PolymerCatalog",
    "ExpansionVerdict",
    "sample_regular_graph",
    "read_graph",
    "write_graph",
    "enumerate_polymers",
    "edge_boundary",
    "check_edge_expansion",
]

# Pairings ``sample_regular_graph`` draws before it gives up, and the
# largest catalog ``enumerate_polymers`` builds.
MAX_PAIRINGS = 10_000
MAX_POLYMERS = 200_000

logger = logging.getLogger(__name__)


class CheckGraph:
    """Simple undirected graph, stored as its validated slot arrays.

    Attributes
    ----------
    n : number of nodes
    d : nominal degree, no smaller than any node's degree (exact for
        sampled/loaded graphs, the max degree when ``from_edges`` infers it)
    layout : the ``Layout`` of the graph: endpoints ``ends`` (u < v, rows
        lexicographically sorted), degrees ``deg`` and the per-node slot
        arrays, each node's edges in ascending order: edge e is
        ``ends[e]``, and node a's incident edges are ``eid[a, :deg[a]]``

    ``elimination_plan``, the order of the exact sums, is built on first
    use.
    """

    def __init__(self, n: int, d: int,
                 edges: Sequence[tuple[int, int]] | np.ndarray):
        """``edges``: (u, v) pairs or an (E, 2) integer array, any order
        and orientation; ValueError names a self-loop, an out-of-range
        edge, a duplicate edge or a node of degree above ``d``."""
        if n <= 0:
            raise ValueError("need at least one node")
        pairs = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        u = np.minimum(pairs[:, 0], pairs[:, 1])
        v = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (u == v) | (u < 0) | (v >= n)
        if np.any(bad):
            a, b = pairs[np.argmax(bad)].tolist()
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        # sorting the keys u*n + v sorts the edges lexicographically
        key = np.sort(u * n + v)
        dup = key[1:] == key[:-1]
        if dup.any():
            k = int(key[dup.argmax()])
            raise ValueError(f"duplicate edge {divmod(k, n)}")
        self.n = int(n)
        self.d = int(d)
        self.layout = Layout(self.n, np.column_stack([key // n, key % n]))
        if self.layout.dmax > self.d:
            a = int(np.argmax(self.layout.deg > self.d))
            raise ValueError(f"node {a} has degree {self.layout.deg[a]}, "
                             f"above the nominal degree {self.d}")

    @property
    def num_edges(self) -> int:
        return len(self.layout.ends)

    @cached_property
    def elimination_plan(self) -> EliminationPlan:
        """The greedy elimination order (``plan_elimination``) that exact
        ln Z and the correction scan share; a refused one raises anew."""
        return plan_elimination(self)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   d: Optional[int] = None) -> "CheckGraph":
        """Build a graph from an explicit edge list.

        When ``d`` is omitted it is set to the maximum degree; regularity is
        not required here (oracle hosts may be trees or disconnected).
        """
        # no node of a simple graph on n nodes has degree above n - 1
        graph = cls(n, n - 1 if d is None else d, list(edges))
        if d is None:
            graph.d = graph.layout.dmax
        return graph

    def is_regular(self) -> bool:
        return bool(np.all(self.layout.deg == self.d))

    def components(self) -> list[list[int]]:
        """Connected components as sorted node lists, in order of smallest node."""
        ends = self.layout.ends
        _, order, size = components(ends[:, 0], ends[:, 1], self.n)
        return [c.tolist() for c in np.split(order, np.cumsum(size)[:-1])]

    def __repr__(self) -> str:
        return f"CheckGraph(n={self.n}, d={self.d}, edges={self.num_edges})"


def _check_graph_size(n: int, d: int) -> None:
    """ValueError unless a simple d-regular graph on n nodes exists."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if n < d + 1:
        raise ValueError(f"need n >= d+1 nodes for a simple {d}-regular graph")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")


def sample_regular_graph(n: int, d: int, seed) -> CheckGraph:
    """Sample a uniform simple d-regular graph by pairing half-edges.

    Each node contributes d stubs; a uniform perfect matching of the stubs is
    drawn and the result is rejected until it contains no self-loops or
    parallel edges.  Conditioned on acceptance the simple graph is uniform.
    PairingError after ``MAX_PAIRINGS`` rejected pairings.
    """
    _check_graph_size(n, d)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(MAX_PAIRINGS):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        u = np.minimum(pairs[:, 0], pairs[:, 1])
        v = np.maximum(pairs[:, 0], pairs[:, 1])
        if (u == v).any():
            continue
        key = np.sort(u * n + v)    # np.unique is far slower
        if (key[1:] != key[:-1]).all():
            return CheckGraph(n, d, pairs)
    raise PairingError(
        f"no simple {d}-regular graph on {n} nodes after {MAX_PAIRINGS} "
        f"pairings"
    )


def write_graph(graph: CheckGraph, path) -> None:
    """Write the edge-list format: first line ``n d``, then sorted ``u v``
    lines.  Creates the parent directory of ``path`` if it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.d}\n")
        np.savetxt(fh, graph.layout.ends, fmt="%d")


def read_graph(path) -> CheckGraph:
    """Read the edge-list format written by :func:`write_graph`.

    Validates simplicity, canonical ordering, and exact d-regularity.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: first line must be 'n d'")
    n, d = int(head[0]), int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError(f"{path}: edge {u} {v} not in u < v form")
        edges.append((u, v))
    if edges != sorted(edges):
        raise ValueError(f"{path}: edges not lexicographically sorted")
    g = CheckGraph(n, d, edges)
    if not g.is_regular():
        raise ValueError(f"{path}: graph is not {d}-regular")
    return g


@dataclass(frozen=True, eq=False)    # arrays have no single truth value
class PolymerCatalog:
    """All polymers of a host up to a node-count cap, as flat arrays.

    Polymer i touches exactly the nodes of support s = ``support[i]``, the
    host ids ``support_nodes[s]``, ascending and padded with ``host.n``; a
    support index is the only identity of a node set.  ``slot_masks[i, k]``
    is the polymer's local bitmask at node ``support_nodes[s, k]`` (bit j
    for slot j, as in ``ActivityTable.K``), 0 where padded.  The support
    and the slot masks are the whole polymer: ``edges`` and ``profiles``
    are read off them on first use.

    Order: supports ascending as host bitmasks of their nodes, so the
    polymers on one node set are contiguous; on one support, fewer removed
    edges of G[V] first, then the removed edge ids compared as a tuple.
    """

    host: CheckGraph
    node_cap: int
    support: np.ndarray          # (P,) int64 support index, nondecreasing
    support_nodes: np.ndarray    # (S, K) int64 host node ids, padded
    slot_masks: np.ndarray       # (P, K) unsigned local bitmasks

    def __len__(self) -> int:
        return len(self.support)

    @cached_property
    def edges(self) -> Rows:
        """Each polymer's edge ids, ascending, one row per polymer: the
        slots of its masks that lead to a higher node.  A node's slots
        and the lower ends of the host's edges both run in edge order, so
        the ids come out ascending."""
        lay = self.host.layout
        # padded entries have no slot bit, so any row stands in for node n
        at = np.minimum(self.support_nodes[self.support], self.host.n - 1)
        slot = np.arange(lay.dmax).astype(self.slot_masks.dtype)
        keep = ((self.slot_masks[..., None] >> slot & 1).astype(bool)
                & (lay.nbr[at] > at[..., None]))
        return Rows(lay.eid[at][keep], np.concatenate(
            [[0], np.cumsum(keep.sum(axis=(1, 2)))]))

    @cached_property
    def profiles(self) -> np.ndarray:
        """(P, d - 1) int64 tail profiles, d = ``host.d``: each polymer's
        numbers (n_2, ..., n_d) of nodes of induced degree 2..d, the
        popcounts of its slot masks, which sum to its size."""
        return (np.bitwise_count(self.slot_masks)[:, :, None]
                == np.arange(2, self.host.d + 1)).sum(axis=1)

    @property
    def covers_host(self) -> bool:
        """Cap at least the host size, so no polymer was excluded."""
        return self.node_cap >= self.host.n

    def activity_vector(self, activities) -> np.ndarray:
        """``activities`` as floats, one per polymer, or ValueError."""
        vals = np.asarray(activities, dtype=np.float64)
        if vals.shape != (len(self),):
            raise ValueError(
                f"{vals.size} activities for {len(self)} polymers")
        return vals


def enumerate_polymers(graph: CheckGraph, node_cap: int) -> PolymerCatalog:
    """Enumerate all polymers touching at most ``node_cap`` nodes.

    Locality: a polymer gamma on a node set V of at most c = ``node_cap``
    nodes has minimum degree 2, and every node of V lies within
    max(0, (c - 5) // 2) hops of a cycle of gamma.  Take x in V on no
    cycle of gamma.  Every edge at x is then a bridge, so removing x
    leaves at least two parts A and B, each joined to x by one edge.  In
    A only the node next to x can have degree below 2, and a forest with
    that property is empty, so A holds a cycle of gamma; so does B.  The
    path from x to the nearest cycle node of A has d_A edges, and A holds
    its d_A - 1 inner nodes and the at least 3 nodes of the cycle, so
    |V| >= 1 + (d_A + 2) + (d_B + 2), and the nearer of the two cycles
    lies within (c - 5) / 2 hops of x.  It has at most c nodes, so it is
    a cycle of the host of length <= c.  The search therefore marks the
    nodes of the host that lie on a cycle of length <= c, grows the
    marked set by max(0, (c - 5) // 2) hops, and grows polymers only on
    the subgraph induced by that region (``_near_short_cycles``).  A
    random regular graph has O(1) cycles of each fixed length, so the
    region, and the work, stays small however large the host.  The marked
    nodes are found from one row per node of its non-backtracking walks
    of up to ceil(c/2) steps, every node walked once: two walks with
    different first steps that meet close a cycle.  The region is the
    whole host when c >= n, and when a row would hold at least n walks
    (but no more than the search admits): then one row costs more than
    the host.

    Inside the region the search has two stages.  A node set V is the
    node set of some polymer iff the induced subgraph G[V] is connected
    with minimum degree 2, and the polymers on V are exactly the connected
    spanning subgraphs of G[V] of minimum degree 2.  Both stages are
    level walks, each level a batch of states held as rows of arrays.  The
    first enumerates the connected node sets of at most c nodes once each
    (ESU, anchored at the least node), each a row of packed uint64 words,
    level k holding the sets of k nodes, and keeps those of minimum
    induced degree 2, the supports (``_support_walk``).  The second is one
    walk over all supports at once: level k holds the polymers that are some
    G[V] minus k edges, each removed edge after the previous one, with
    both ends of degree above 2 and the graph still connected (for d = 3,
    a matching on the degree-3 nodes); connectivity is a rank test on the
    columns of a cycle-space basis of G[V] over GF(2).  The walk ends at
    the first level with no polymer, and one stable sort by support mask
    puts the polymers in catalog order (see ``PolymerCatalog``).  Region
    nodes keep their host order, so a capped catalog lists its polymers
    in the order of a walk over the whole host.
    Caps below 3 yield an empty catalog, since a polymer touches at least
    three nodes.  BudgetError: more than ``MAX_POLYMERS`` supports, raised
    by the support walk once they pass the budget, or polymers, raised
    during the removal walk before the level that passes the budget is
    allocated, or, before anything is allocated, a cap c < n so large
    that one node's row of walks, dmax (1 + (dmax - 1) + ... + (dmax -
    1)^(ceil(c/2) - 1)) of them, would pass 2^24 (from c = 45 for dmax
    = 3, 29 for 4, 17 for 8, 9 for 32 to 64).  One DEBUG record on this
    module's logger reports the region size, supports, polymers, walk
    levels, the support walk's levels and largest level (its sets and the
    words of one set) and wall time of the catalog, and the short-cycle
    search's row width, source blocks, rows that repeat an end node and
    wall time.
    """
    if node_cap < 0:
        raise ValueError("node_cap must be nonnegative")
    debug = logger.isEnabledFor(logging.DEBUG)
    start = time.perf_counter() if debug else 0.0
    region = np.arange(0)
    tally = dict(width=0, blocks=0, repeats=0)
    if node_cap >= 3 and graph.num_edges:
        # a cap of n or more excludes no polymer, and a row of n walks or
        # more costs more than the host: the region is the host
        whole = node_cap >= graph.n or graph.n <= (row := _row_width(
            graph.layout.dmax, (node_cap + 1) // 2)) and within_budget(row)
        region = (np.arange(graph.n) if whole
                  else _near_short_cycles(graph.layout, node_cap, tally))
    searched = time.perf_counter() if debug else 0.0
    grown = {} if debug else None
    catalog = _grow_polymers(graph, node_cap, region, grown)
    if debug:
        logger.debug("polymers on %d region nodes: %d supports, %d polymers, "
                     "%d walk levels, support walk: %d levels, largest %d "
                     "sets of %d words, %.4f s; short-cycle search: rows of "
                     "%d walks, %d source blocks, %d rows repeat an end "
                     "node, %.4f s", len(region), grown["supports"],
                     len(catalog), grown["levels"], grown["esu_levels"],
                     grown["largest"], grown["words"],
                     time.perf_counter() - searched, tally["width"],
                     tally["blocks"], tally["repeats"], searched - start)
    return catalog


def _near_short_cycles(lay: Layout, c: int,
                       tally: Optional[dict] = None) -> np.ndarray:
    """Nodes within max(0, (c - 5) // 2) hops of a cycle of length <= c,
    ascending: the region of a catalog capped at c nodes (the radius is
    proved in ``enumerate_polymers``).

    A node x lies on a cycle of length <= c iff two non-backtracking walks
    from x that never return to x, with different first steps and lengths
    l1 + l2 <= c, end at one node: together they hold a path between two
    neighbours of x that avoids x, and a cycle of length l through x gives
    two such walks of lengths floor(l/2) and ceil(l/2) that meet at the
    node opposite x.  So one row per source, of its walks of lengths up to
    ceil(c/2), finds every such x, and every source is walked once, in
    blocks of at most ``BLOCK_ENTRIES`` walks.

    A walk is held as its state ``b << sh | j``: it stands at node b,
    which it entered through b's slot j (``sh`` bits hold a slot).  Level
    l of a row is ``dmax (dmax - 1)^(l - 1)`` states, the children of
    state i of level l - 1 at positions ``(dmax - 1) i ..``, so the first
    step and the length of every position are fixed.  A level is advanced
    by one gather from ``turn``, the offsets from slot j to the other
    slots of a node, and one from ``hop``, the state a step along a slot
    leads to.  A walk that takes a padded slot, or returns to its source,
    holds the sentinel state ``n << sh`` (node n) from then on.

    Only a repeated end node can hold two meeting walks, and on a random
    regular graph few rows repeat one, so the pair test runs on those rows
    alone: sorted by end node, then by position (length, then first step),
    a row qualifies iff some walk has another first step than the shortest
    walk to its end node, and the two lengths sum to at most c.
    ``tally``, when given, receives the row ``width``, the number of
    source ``blocks`` and the ``repeats``, the rows that repeat an end
    node.  BudgetError, before anything is allocated, when one source's
    row would pass ``MAX_ENTRIES`` walks.
    """
    n, dmax = lay.nbr.shape
    top = (c + 1) // 2     # longest walk
    width = _row_width(dmax, top)
    check_budget(width, "short-cycle search for node cap {}", c, unit="walks")
    mark = np.zeros(n + 1, dtype=bool)   # entry n: the padding neighbour
    blocks = repeats = 0
    if width:
        sh = (dmax - 1).bit_length()
        # the slot of every edge at its far end, 0 on padded slots, whose
        # neighbour n then makes the sentinel state
        far = np.append(lay.slot.ravel(), 0)[lay.inc]
        states = (n + 1) << sh
        hop = np.full((n + 1, 1 << sh), n << sh, dtype=np.int32
                      if states <= np.iinfo(np.int32).max else np.int64)
        hop[:n, :dmax] = lay.nbr << sh | far
        flat = hop.ravel()
        k, j = np.arange(dmax - 1), np.arange(dmax)[:, None]
        turn = np.zeros((1 << sh, dmax - 1), dtype=np.int32)
        turn[:dmax] = k + (k >= j) - j
        # the length and the first step of every position of a row
        size = (dmax - 1) ** np.arange(top)
        level = np.repeat(np.arange(1, top + 1), dmax * size)
        first = np.repeat(np.arange(dmax * top) % dmax, np.repeat(size, dmax))
        step = max(1, BLOCK_ENTRIES // width)
        for lo in range(0, n, step):
            sources = np.arange(lo, min(lo + step, n))
            # np.take: fancy indexing is several times slower on these arrays
            state = np.take(hop, sources, axis=0)[:, :dmax]
            levels = [state]
            for length in range(2, top + 1):
                slot = np.take(turn, state & ((1 << sh) - 1), axis=0)
                state = np.take(flat, (state[..., None] + slot)
                                .reshape(len(sources), -1))
                if length > 2:     # x -> a -> x would backtrack
                    state[(state >> sh) == sources[:, None]] = n << sh
                levels.append(state)
            ends = np.concatenate(levels, axis=1) >> sh
            srt = np.sort(ends, axis=1)
            rows = np.flatnonzero(((srt[:, 1:] == srt[:, :-1])
                                   & (srt[:, 1:] < n)).any(axis=1))
            blocks += 1
            repeats += len(rows)
            if not len(rows):
                continue
            key = np.sort(ends[rows].astype(np.int64) * width
                          + np.arange(width), axis=1)
            end, pos = np.divmod(key, width)
            lengths, firsts = level[pos], first[pos]
            new = np.ones(end.shape, dtype=bool)
            new[:, 1:] = end[:, 1:] != end[:, :-1]
            # column of the shortest walk to each walk's end node
            lead = np.maximum.accumulate(np.where(new, np.arange(width), 0),
                                         axis=1)
            r = np.arange(len(rows))[:, None]
            hit = ((end < n) & (firsts != firsts[r, lead])
                   & (lengths[r, lead] + lengths <= c))
            mark[lo + rows[hit.any(axis=1)]] = True
    if tally is not None:
        tally.update(width=width, blocks=blocks, repeats=repeats)
    for _ in range((c - 5) // 2):     # none below c = 7
        grown = mark.copy()
        grown[:n] |= np.any(mark[lay.nbr], axis=1)
        if np.array_equal(grown, mark):
            break
        mark = grown
    return np.flatnonzero(mark[:n])


def _row_width(dmax: int, top: int) -> int:
    """Non-backtracking walks of lengths 1..top from a node of degree dmax
    in a dmax-regular tree."""
    return dmax * sum((dmax - 1) ** l for l in range(top))


def _grow_polymers(graph: CheckGraph, node_cap: int, nodes: np.ndarray,
                   tally: Optional[dict] = None) -> PolymerCatalog:
    """The catalog of polymers of at most ``node_cap`` nodes in the
    subgraph induced by ``nodes`` (ascending), in catalog order.

    The supports come from one level walk on packed words
    (``_support_walk``), as a support x region-node membership in
    ascending order of mask; the polymers on all of them from a second
    level walk (``_removal_walk``).  Every state of the second walk is a
    polymer, and it lists them by level, then by support, then by removed
    edges; one stable sort by support puts them in catalog order.
    ``tally``, when given, receives the numbers of ``supports`` and of
    removal-walk ``levels``, and the support walk's own figures.
    BudgetError once the supports, or the polymers of the levels so far,
    number more than ``MAX_POLYMERS``, and from ``_support_edges``.
    """
    lay = graph.layout
    # region nodes are numbered 0..R-1 in host order, so local bitmasks
    # sort as the host's do; slots leading out of the region are dropped
    nbr = lay.nbr[nodes]
    pos = np.searchsorted(nodes, nbr)
    local = np.where(nodes.take(pos, mode="clip") == nbr, pos, -1)
    words = _support_walk(local, node_cap, tally)
    S = len(words)
    levels = []
    if S:
        sid, member = set_bits(words)
        rows, slots, ends, bits, real = _support_edges(lay, nodes, local,
                                                       sid, member, S)
        levels = _removal_walk(ends, bits, real, slots)
    if tally is not None:
        tally.update(supports=S, levels=len(levels))
    if not S:
        return PolymerCatalog(
            host=graph, node_cap=node_cap, support=np.zeros(0, np.int64),
            support_nodes=np.zeros((0, 0), np.int64),
            slot_masks=np.zeros((0, 0), np.uint8))
    if len(levels) == 1:
        sup, slots = levels[0]
    else:
        sup, slots = (np.concatenate(x) for x in zip(*levels))
        order = np.argsort(sup, kind="stable")
        sup, slots = sup[order], slots[order]
    return PolymerCatalog(host=graph, node_cap=node_cap, support=sup,
                          support_nodes=rows, slot_masks=slots)


def _support_walk(local: np.ndarray, cap: int,
                  tally: Optional[dict] = None) -> np.ndarray:
    """The connected node sets of at most ``cap`` region nodes whose
    induced subgraph has minimum degree 2, as rows of W = ceil(R/64)
    uint64 words (bit a of a row: region node a), ascending by mask;
    ``local`` holds each region node's region-local neighbours, -1 where
    a slot leads out of the region or is padded.

    ESU (Wernicke 2006), one level at a time: each connected set is grown
    once, from its least node, by nodes of its extension set, to which a
    new node w adds only its open neighbours (above the least node, neither
    in the set nor next to it), and from which it drops w and the nodes
    below w.  Level k is one array of 3 + k blocks of W words per state,
    states last: the set, its extension set, its open nodes, then the
    neighbourhood of each member in order of addition, the least node
    first; on the last level, ``cap``, only the set is updated.  A member
    can later gain only neighbours in the extension set, so a state in
    which some member has fewer than two neighbours in the set and its
    extension set holds no support; one mask test drops those states, and
    the same counts find the supports.  A state's children are the set bits
    of its extension set, so they cost in proportion to their number.  A
    level past the first is walked in batches of about ``BLOCK_ENTRIES``
    entries, depth first, so the states held at once stay bounded whatever
    the size of a level; level 1 and the node table take 4W words per
    region node.  ``tally``, when given, receives the number of
    ``esu_levels``, the sets of the ``largest`` level and the ``words`` of
    one of its states.  BudgetError, before anything is allocated, when
    the node table's 4W(R + 1) words pass ``MAX_ENTRIES`` (a region of
    more than about 16,000 nodes), and once the supports number more than
    ``MAX_POLYMERS``.
    """
    R = len(local)
    W = -(-R // 64)
    cap = min(cap, R)
    if cap < 3:    # a support has at least three nodes
        if tally is not None:
            tally.update(esu_levels=0, largest=0, words=0)
        return np.zeros((0, W), dtype=np.uint64)
    check_budget(4 * W * (R + 1), "support walk over a region of {:,} "
                 "nodes", R, unit="node-table words")
    # per node w: its bit, its neighbours, the nodes above it and its
    # non-neighbours, for the update of a state that adds w
    a = np.arange(R)
    table = np.zeros((4, W, R + 1), dtype=np.uint64)    # column R: no node
    one, nbm, above, apart = table
    one[a >> 6, a] = word_bit(a)
    np.bitwise_or.reduce(one[:, local], axis=2, out=nbm[:, :R])
    np.invert(np.bitwise_or.accumulate(one, axis=1, out=above), out=above)
    np.invert(nbm, out=apart)
    table = table[:, :, :R]
    # level 1: each node, its neighbours above it, the other nodes above
    # it and its neighbours
    states = table[[0, 2, 3, 1]]
    states[1:3] &= table[1:3]
    sets = [0] * (cap + 1)    # states tested, per level
    stack = [(states, False)]
    found = [np.zeros((W, 0), dtype=np.uint64)]
    total = 0
    while stack:
        states, tested = stack.pop()
        if tested:
            # the children: one per set bit of each extension set
            # (np.take keeps the states last in memory, where fancy
            # indexing would not)
            p, w = set_bits(states[1].T)
            t = np.take(table, w, axis=2)
            child = np.empty((len(states) + 1, W, len(p)), dtype=np.uint64)
            np.take(states, p, axis=2, out=child[:-1], mode="clip")
            child[-1] = t[1]
            states = child
            if len(states) < 3 + cap:
                t[1] &= states[2]    # w's open neighbours
                # extension set: drop w and below; open: drop w's nbrs
                states[1:3] &= t[2:]
                states[:2] |= t[:2]
            else:    # on the last level only the set is read
                states[0] |= t[0]
        k, N = len(states) - 3, states.shape[2]
        sets[k] += N
        # per member, its neighbours in the set, and in the set and the
        # extension set
        counts = np.bitwise_count(states[3:, None] & states[None, :2])
        counts = (np.add.reduce(counts, axis=2) if W > 1
                  else counts.reshape(k, 2, N))
        if k < cap:
            counts[:, 1] += counts[:, 0]
        least = np.minimum.reduce(counts) >= 2
        if k >= 3:
            hits = states[0].compress(least[0], axis=1)
            total += hits.shape[1]    # G[V] is a polymer on V
            check_budget(total, "polymer catalog", unit="polymers",
                         cap=MAX_POLYMERS)
            found.append(hits)
        if k == cap:
            continue
        states = states.compress(least[1], axis=2)
        batch = max(1, BLOCK_ENTRIES // ((10 + 5 * k) * W))
        if states.shape[2] * (R - k) <= batch:    # cannot pass a batch
            if states.shape[2]:
                stack.append((states, True))
            continue
        kids = np.add.reduce(np.bitwise_count(states[1]), axis=0)
        for lo, hi in runs(kids, batch):
            stack.append((states[:, :, lo:hi], True))
    if tally is not None:
        k = max(k for k, s in enumerate(sets) if s)
        tally.update(esu_levels=k, largest=max(sets),
                     words=(3 + sets.index(max(sets))) * W)
    words = np.concatenate(found, axis=1)
    return words.T[np.lexsort(words)]


def _support_edges(lay: Layout, nodes: np.ndarray, local: np.ndarray,
                   sid: np.ndarray, member: np.ndarray,
                   S: int) -> tuple[np.ndarray, ...]:
    """The nodes and edges of G[V] for every support V, from the
    membership pairs (``sid``, ``member``) (support, region node), by
    support, then node: ``rows`` (S, K), its host nodes, ascending,
    padded with n; ``slots`` (S, K), their slot masks in G[V] (0 where
    padded) in the least unsigned dtype with a bit per slot, BudgetError
    past 64; ``ends`` (2, S, M), the ends (a, b), a < b, of its edges as
    positions in the row, in ascending order of edge id; ``bits`` (2, S,
    M), their slot bits at a and b; ``real`` (S, M), which of the M slots
    hold an edge.  ``local`` holds the region-local neighbour of each slot
    of the ``nodes``, -1 outside the region."""
    check_budget(lay.dmax, "node slot mask", unit="slot bits", cap=64)
    word = np.min_scalar_type((1 << lay.dmax) - 1)
    R = len(nodes)
    size = np.bincount(sid, minlength=S)
    col = np.arange(len(sid)) - np.searchsorted(sid, sid)    # in row
    key = sid * R + member    # ascending
    rows = np.full((S, size.max()), len(lay.deg))
    rows[sid, col] = nodes[member]
    nb = local[member]
    want = sid[:, None] * R + nb
    at = np.minimum(np.searchsorted(key, want), len(key) - 1)
    inside = (nb >= 0) & (key[at] == want)    # slot stays in V
    slots = np.zeros(rows.shape, dtype=word)    # distinct bits: sum = OR
    slots[sid, col] = np.add.reduce(inside << np.arange(local.shape[1]),
                                    axis=1)
    # each edge at its lower end: by support, then lower end, then slot,
    # which is ascending edge id within each support
    a, t = np.nonzero(inside & (nb > member[:, None]))
    b = at[a, t]
    e = lay.eid[nodes[member[a]], t]
    es = sid[a]
    m = np.bincount(es, minlength=S)
    j = np.arange(len(es)) - np.searchsorted(es, es)
    ends = np.zeros((2, S, int(m.max())), dtype=np.int64)
    bits = np.zeros(ends.shape, dtype=word)
    ends[:, es, j] = col[a], col[b]
    # a is the lower end, in the region as in the host: its slot is slot[e, 0]
    bits[:, es, j] = (1 << lay.slot[e].T).astype(word)
    return rows, slots, ends, bits, np.arange(ends.shape[2]) < m[:, None]


def _removal_walk(ends: np.ndarray, bits: np.ndarray, real: np.ndarray,
                  slots: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The polymers on every support, as the levels of one walk: per
    level, the (support, slot-mask row) of its states, ordered by
    support and then by the tuple of removed edges.

    A state is a spanning subgraph of G[V] for a support V (its edges
    among the slots of ``ends``, see ``_support_edges``), held as the slot
    masks of its nodes, whose popcounts are the degrees; level 0 holds
    G[V], with the masks ``slots``, for every support.  A state's children
    remove one more edge after the last one it removed, whose ends both
    have degree above 2 (its open edges) and whose removal keeps the graph
    connected.  That test runs for a whole level at once: G[V]
    minus a set R of edges is connected iff the columns of R in a
    cycle-space basis of G[V] are linearly independent over GF(2)
    (``_cycle_columns``), so each state carries its columns reduced
    modulo those of its removed edges, and an edge may go iff its
    reduced column is nonzero.  The walk stops at the first level
    without a child: supports with no open edge (triangles, bare cycles)
    cost no basis and no level.  BudgetError once the states so far and
    a level's children number more than ``MAX_POLYMERS``, before the
    children are allocated.
    """
    (S, K), M = slots.shape, real.shape[1]
    deg = np.bitwise_count(slots)
    sup = np.arange(S)
    levels = [(sup, slots)]
    if deg.max() <= 2:    # bare cycles
        return levels
    row = sup[:, None]
    open_ = real & (deg[row, ends[0]] > 2) & (deg[row, ends[1]] > 2)
    if not open_.any():
        return levels
    s, e = np.nonzero(real)
    inc = np.zeros((S, K, M), dtype=bool)
    inc[s, ends[0, s, e], e] = inc[s, ends[1, s, e], e] = True
    red = _cycle_columns(inc)    # reduced columns of each state's edges
    total = S
    while True:
        i, j = np.nonzero(open_ & np.any(red != 0, axis=0))
        total += len(i)
        check_budget(total, "polymer catalog", unit="polymers",
                     cap=MAX_POLYMERS)
        if not len(i):
            return levels
        # eliminate the removed edge's column from every column, on the
        # lowest coordinate where it is nonzero
        col = red[:, i, j]
        word = np.argmax(col != 0, axis=0)
        low = col[word, np.arange(len(i))]
        low &= ~low + np.uint64(1)
        hit = (red[word, i] & low[:, None]) != 0
        red = red[:, i]
        red ^= col[:, :, None] * hit    # a masked xor: where= is slower
        r = np.arange(len(i))
        sup, slots, open_ = sup[i], slots[i], open_[i]
        open_ &= np.arange(M) > j[:, None]
        a = ends[:, sup, j]    # both ends at once: they are two nodes
        slots[r, a] ^= bits[:, sup, j]
        low = np.bitwise_count(slots[r, a]) == 2
        open_ &= ~(inc[sup, a] & low[:, :, None]).any(axis=0)
        levels.append((sup, slots))


def _cycle_columns(inc: np.ndarray) -> np.ndarray:
    """Columns of a cycle-space basis of each of a batch of connected
    graphs, given by their node-edge incidences ``inc`` (S, K, M),
    packed into uint64 words: bit c of ``out[c // 64, s, e]`` is set iff
    edge e of graph s lies on basis cycle c.

    The cycle space is the null space over GF(2) of the incidence matrix,
    read off its reduced row echelon form, found row by row for all
    graphs at once on the rows packed into words (bit e of a row: edge
    e); each row's pivot is its lowest edge.  Each free column f gives
    one basis cycle, numbered f: the edge f and the pivot edges of the
    rows with a 1 in column f.  Removing a set R of edges disconnects a
    graph iff R holds a nonempty cut, a nonzero vector supported on R
    orthogonal to every cycle: iff the columns of R are linearly
    dependent.
    """
    S, K, M = inc.shape
    rows = packed(inc)    # (S, K, W)
    graphs = np.arange(S)
    word = np.zeros((S, K), dtype=np.int64)
    low = np.zeros((S, K), dtype=np.uint64)
    for k in range(K):
        row = rows[:, k].copy()
        word[:, k] = at = np.argmax(row != 0, axis=1)
        bit = row[graphs, at]
        bit &= ~bit + np.uint64(1)    # the lowest set bit, 0 if none
        low[:, k] = bit
        other = (rows[graphs, :, at] & bit[:, None]) != 0
        other[:, k] = False
        rows ^= row[:, None, :] * other[:, :, None]
    g, k = np.nonzero(low)
    e = word[g, k] * 64 + np.bitwise_count(low[g, k] - np.uint64(1))
    free = inc.any(axis=1)
    free[g, e] = False
    out = np.zeros((rows.shape[2], S, M), dtype=np.uint64)
    out[:, g, e] = (rows[g, k] & packed(free)[g]).T
    g, f = np.nonzero(free)
    out[f >> 6, g, f] = word_bit(f)
    return out


def edge_boundary(graph: CheckGraph, nodes: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in ``nodes``."""
    inside = np.zeros(graph.n, dtype=bool)
    inside[list(nodes)] = True
    u, v = graph.layout.ends.T
    return int(np.count_nonzero(inside[u] != inside[v]))


@dataclass(frozen=True)
class ExpansionVerdict:
    """Result of an edge-expansion check.

    ``is_expander`` is True/False for the exhaustive and components modes; in
    sampled mode it is False when a violating witness was found and None
    otherwise (sampling cannot certify expansion).
    """

    mode: str                     # "exhaustive", "sampled", or "components"
    kappa: float
    is_expander: Optional[bool]
    witness: Optional[tuple[int, ...]]
    subsets_checked: int


def _check_kappa(kappa: float) -> None:
    """ValueError unless kappa >= 0: no comparison could refute a NaN
    kappa, and every node set meets a negative one."""
    if not kappa >= 0:
        raise ValueError(f"kappa must be a number >= 0, got {kappa}")


def check_edge_expansion(graph: CheckGraph, kappa: float,
                         exhaustive_limit: int = 20,
                         num_samples: int = 20_000,
                         seed=0) -> ExpansionVerdict:
    """Check edge(T) >= kappa * |T| for all node sets T with |T| <= n/2.

    Hosts with several connected components fail immediately (the smallest
    component has empty boundary).  Up to ``exhaustive_limit`` nodes all
    subsets are scanned (BudgetError, before scanning, when 2^n exceeds
    ``MAX_ENTRIES``); larger graphs are spot-checked on uniform random
    subsets of admissible sizes, the first violator in draw order being the
    witness.  ValueError for a NaN or negative ``kappa``
    (``_check_kappa``) and for ``num_samples`` below 1.
    """
    _check_kappa(kappa)
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    n = graph.n
    comps = graph.components()
    if len(comps) > 1 and kappa > 0:
        smallest = min(comps, key=len)
        return ExpansionVerdict("components", kappa, False,
                                tuple(smallest), 0)
    half = n // 2
    u, v = graph.layout.ends.T

    def first_violator(inside: np.ndarray, sizes: np.ndarray) -> Optional[int]:
        # row of the first node set in ``inside`` (one set per row) whose
        # edge boundary is below kappa times its size
        boundary = np.count_nonzero(inside[:, u] != inside[:, v], axis=1)
        bad = boundary < kappa * sizes
        return int(np.argmax(bad)) if bad.any() else None

    if n <= exhaustive_limit:
        check_budget(1 << n, "exhaustive expansion check over {} nodes", n,
                     unit="node sets")
        checked = 0
        bits = np.arange(n, dtype=np.uint64)
        step = 1 << min(18, n)     # 2^18 sets (2 MiB of uint64) per block
        for lo in range(0, 1 << n, step):
            configs = np.arange(lo, lo + step, dtype=np.uint64)
            sizes = np.bitwise_count(configs)
            keep = (sizes >= 1) & (sizes <= half)
            inside = (configs[keep, None] >> bits & np.uint64(1)).astype(bool)
            checked += len(inside)
            j = first_violator(inside, sizes[keep])
            if j is not None:
                witness = tuple(np.flatnonzero(inside[j]).tolist())
                return ExpansionVerdict("exhaustive", kappa, False,
                                        witness, checked)
        return ExpansionVerdict("exhaustive", kappa, True, None, checked)

    # each block draws its sets one by one, with the RNG calls of a
    # set-by-set check, then counts their boundaries in one gather
    rng = np.random.default_rng(seed)
    step = max(1, BLOCK_ENTRIES // n)
    for lo in range(0, num_samples, step):
        inside = np.zeros((min(step, num_samples - lo), n), dtype=bool)
        sizes = np.empty(len(inside), dtype=np.int64)
        for k in range(len(inside)):
            sizes[k] = size = int(rng.integers(1, half + 1))
            inside[k, rng.choice(n, size=size, replace=False)] = True
        j = first_violator(inside, sizes)
        if j is not None:
            witness = tuple(np.flatnonzero(inside[j]).tolist())
            return ExpansionVerdict("sampled", kappa, False, witness,
                                    lo + j + 1)
    return ExpansionVerdict("sampled", kappa, None, None, num_samples)
