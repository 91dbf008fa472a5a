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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._layout import BLOCK_ENTRIES, MAX_ENTRIES, Layout, Rows
from .exceptions import BudgetError, PairingError

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


class CheckGraph:
    """Simple undirected graph, stored as its validated slot arrays.

    Attributes
    ----------
    n : number of nodes
    d : nominal degree, no smaller than any node's degree (exact for
        sampled/loaded graphs, the max degree when ``from_edges`` infers it)
    layout : the ``Layout`` of the graph: endpoints ``ends`` (u < v, rows
        lexicographically sorted), degrees ``deg`` and the per-node slot
        arrays, each node's edges in ascending order

    ``edges``, ``adjacency`` and ``edge_index`` are tuple views of the
    arrays for small-graph code, built on first use.
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
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(u, v) pairs with u < v, lexicographically sorted."""
        return tuple(map(tuple, self.layout.ends.tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per node, its incident edge indices, ascending: the slot order."""
        lay = self.layout
        return tuple(tuple(row[:k]) for row, k
                     in zip(lay.eid.tolist(), lay.deg.tolist()))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Edge index of every (u, v) pair with u < v."""
        return {uv: e for e, uv in enumerate(self.edges)}

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
        nbr = self.layout.nbr.tolist()
        seen = [False] * self.n + [True]    # entry n: padded slots
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                a = stack.pop()
                comp.append(a)
                for b in nbr[a]:
                    if not seen[b]:
                        seen[b] = True
                        stack.append(b)
            comps.append(sorted(comp))
        return comps

    def __repr__(self) -> str:
        return f"CheckGraph(n={self.n}, d={self.d}, edges={self.num_edges})"


def sample_regular_graph(n: int, d: int, seed) -> CheckGraph:
    """Sample a uniform simple d-regular graph by pairing half-edges.

    Each node contributes d stubs; a uniform perfect matching of the stubs is
    drawn and the result is rejected until it contains no self-loops or
    parallel edges.  Conditioned on acceptance the simple graph is uniform.
    PairingError after ``MAX_PAIRINGS`` rejected pairings.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if n < d + 1:
        raise ValueError(f"need n >= d+1 nodes for a simple {d}-regular graph")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
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
    """Write the edge-list format: first line ``n d``, then sorted ``u v`` lines."""
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

    Polymer i has the member edges ``edges[i]``, ascending, the touched
    nodes ``node_masks[i]`` and the tail profile ``profiles[i]``: its
    numbers (n_2, ..., n_d) of nodes of induced degree 2..d, d = ``host.d``,
    which sum to its size.

    Order: by node mask ascending, then by the edge-id row compared as a
    tuple, so the polymers on one node set are contiguous.
    """

    host: CheckGraph
    node_cap: int
    edges: Rows                  # int64 edge ids, one row per polymer
    node_masks: tuple[int, ...]  # bitmasks
    profiles: np.ndarray         # (len, d - 1) int64

    def __len__(self) -> int:
        return len(self.node_masks)

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

    Locality: a polymer gamma with at most c = ``node_cap`` nodes has
    minimum degree 2, so it contains a cycle C, of length at most c; every
    node of gamma is joined to C by a path inside gamma through nodes off C,
    so it lies within distance c - |C| <= c - 3 of C.  The search therefore
    marks the nodes of the host that lie on a cycle of length <= c, grows
    the marked set by c - 3 hops, and grows polymers only on the subgraph
    induced by that region (the whole host when c >= n).  A random regular
    graph has O(1) cycles of each fixed length, so the region, and the
    work, stays small however large the host.

    Inside the region the walk has two levels.  A node set V is the node
    set of some polymer iff the induced subgraph G[V] is connected with
    minimum degree 2, and the polymers on V are exactly the connected
    spanning subgraphs of G[V] of minimum degree 2.  The first level
    enumerates the connected node sets of at most c nodes once each (ESU,
    anchored at the least node) and keeps those of minimum induced degree
    2; the second removes edges of G[V] while both ends keep degree 2 and
    G[V] stays connected (for d = 3, a matching on the degree-3 nodes).
    Region nodes keep their host order, so a capped catalog lists its
    polymers in the order of a walk over the whole host.  Caps below 3
    yield an empty catalog, since a polymer touches at least three nodes.
    BudgetError: more than ``MAX_POLYMERS`` polymers, or a cap so large
    that the short-cycle search would hold more than 2^24 walks.
    """
    if node_cap < 0:
        raise ValueError("node_cap must be nonnegative")
    region = np.arange(0)
    if node_cap >= 3 and graph.num_edges:
        # a cap of n or more excludes no polymer: the region is the host
        region = (np.arange(graph.n) if node_cap >= graph.n
                  else _near_short_cycles(graph.layout, node_cap))
    return _grow_polymers(graph, node_cap, region)


def _near_short_cycles(lay: Layout, c: int) -> np.ndarray:
    """Nodes within distance c - 3 of a cycle of length <= c, ascending."""
    n, dmax = lay.nbr.shape
    # walks per source: at most dmax^(c/2), and at most one per first step
    # and directed edge once merged
    step = max(1, BLOCK_ENTRIES // min(dmax ** ((c + 1) // 2),
                                       2 * dmax * len(lay.ends)))
    mark = np.zeros(n + 1, dtype=bool)   # entry n: the padding neighbour
    for lo in range(0, n, step):
        mark[_on_short_cycle(lay, c, np.arange(lo, min(lo + step, n)))] = True
    for _ in range(c - 3):
        grown = mark.copy()
        grown[:n] |= np.any(mark[lay.nbr], axis=1)
        if np.array_equal(grown, mark):
            break
        mark = grown
    return np.flatnonzero(mark[:n])


def _on_short_cycle(lay: Layout, c: int, sources: np.ndarray) -> np.ndarray:
    """The nodes of ``sources`` that lie on a cycle of length <= c.

    A node x lies on such a cycle iff two non-backtracking walks from x
    that never return to x, with different first steps and lengths l1, l2
    <= ceil(c/2), end at one node with l1 + l2 <= c: together they hold a
    path between two neighbours of x that avoids x.  The walks advance
    for all sources at once, each one a sortable integer key; walks that
    agree in start, first step and last directed edge are merged, so their
    number stays polynomial.
    """
    n, dmax = lay.nbr.shape
    top = (c + 1) // 2     # longest walk
    # bit widths of the packed keys: node, first step, directed edge, length
    nb, fb = n.bit_length(), (dmax - 1).bit_length()
    db, lb = (2 * len(lay.ends)).bit_length(), top.bit_length()
    tails = lay.ends.ravel()    # directed edge 2e + j runs from tails[2e + j]
    real = ~lay.pad[sources].ravel()
    start = np.repeat(sources, dmax)[real]
    first = np.tile(np.arange(dmax), len(sources))[real]
    dedge = lay.out[sources].ravel()[real]
    seen = []   # (start, end, first step, length) of every walk
    for length in range(1, top + 1):
        cur = tails[dedge ^ 1]
        seen.append((((start << nb | cur) << fb | first) << lb) | length)
        if length == top:
            break
        if len(cur) * dmax > MAX_ENTRIES:
            raise BudgetError(f"short-cycle search for node cap {c} would "
                              f"hold {len(cur) * dmax:,} walks")
        nxt = lay.nbr[cur]
        i, k = np.nonzero((nxt < n) & (nxt != tails[dedge][:, None])
                          & (nxt != start[:, None]))
        if not len(i):
            break
        state = np.sort((start[i] << fb | first[i]) << db
                        | lay.out[cur[i], k])
        state = state[np.r_[True, state[1:] != state[:-1]]]
        start, first = state >> (fb + db), state >> db & ((1 << fb) - 1)
        dedge = state & ((1 << db) - 1)
    # the shortest walk per (start, end, first step), then the two shortest
    # with different first steps per (start, end)
    key = np.sort(np.concatenate(seen))
    walk = key >> lb
    keep = np.r_[True, walk[1:] != walk[:-1]]
    key = np.sort(walk[keep] >> fb << lb | key[keep] & ((1 << lb) - 1))
    ends, lengths = key >> lb, key & ((1 << lb) - 1)
    leader = np.r_[True, ends[1:] != ends[:-1]]
    pair = leader[:-1] & ~leader[1:] & (lengths[:-1] + lengths[1:] <= c)
    return ends[:-1][pair] >> nb


def _grow_polymers(graph: CheckGraph, node_cap: int,
                   nodes: np.ndarray) -> PolymerCatalog:
    """The catalog of polymers of at most ``node_cap`` nodes in the
    subgraph induced by ``nodes`` (ascending), in catalog order."""
    lay = graph.layout
    d = graph.d
    # region nodes are numbered 0..R-1 in host order, so local bitmasks
    # sort as the host's do; slots leading out of the region are dropped
    region = nodes.tolist()
    nbr, eid = lay.nbr[nodes], lay.eid[nodes]
    pos = np.searchsorted(nodes, nbr)
    local = np.where(np.append(nodes, -1)[pos] == nbr, pos, -1).tolist()
    nbm = [sum(1 << b for b in row if b >= 0) for row in local]
    up = [[(b, e) for b, e in zip(row, erow) if b > a]
          for a, (row, erow) in enumerate(zip(local, eid.tolist()))]

    blocks = []     # (support, its polymers), in walk order
    size = 0
    for support in _supports(nbm, node_cap):
        members = _bits_of(support)
        edges = sorted((e, a, b) for a in members for b, e in up[a]
                       if support >> b & 1)
        polymers = _spanning_polymers(
            edges, {a: nbm[a] & support for a in members}, d)
        size += len(polymers)
        if size > MAX_POLYMERS:
            raise BudgetError(
                f"polymer catalog exceeds {MAX_POLYMERS:,} polymers")
        blocks.append((support, polymers))

    edge_ids: list[int] = []
    offsets = [0]
    node_masks: list[int] = []
    profiles: list[int] = []    # n_2, ..., n_d per polymer
    for support, polymers in sorted(blocks, key=lambda block: block[0]):
        mask = sum(1 << region[a] for a in _bits_of(support))
        for row, profile in sorted(polymers):
            edge_ids.extend(row)
            offsets.append(len(edge_ids))
            node_masks.append(mask)
            profiles.extend(profile)

    return PolymerCatalog(
        host=graph,
        node_cap=node_cap,
        edges=Rows(np.array(edge_ids, dtype=np.int64), np.array(offsets)),
        node_masks=tuple(node_masks),
        profiles=np.array(profiles, dtype=np.int64).reshape(
            len(node_masks), max(d - 1, 0)),
    )


def _bits_of(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _supports(nbm: list[int], cap: int) -> Iterator[int]:
    """Connected node sets of at most ``cap`` nodes whose induced subgraph
    has minimum degree 2, as bitmasks; ``nbm[a]`` is node a's
    neighbourhood.

    ESU: each connected set is grown once, from its least node, by nodes
    of its extension set, to which a new node adds only its neighbours
    that are neither in the set nor next to it.  A member can later gain
    only neighbours in the extension set, so a branch in which some member
    has fewer than two neighbours in the set and its extension set holds
    no support.
    """
    for v in range(len(nbm)):
        above = -2 << v     # the nodes above v
        # members, set, extension set, set and its neighbours
        stack = [([v], 1 << v, nbm[v] & above, 1 << v | nbm[v])]
        while stack:
            members, S, ext, closed = stack.pop()
            reach = S | ext
            if any((nbm[a] & reach).bit_count() < 2 for a in members):
                continue
            if all((nbm[a] & S).bit_count() >= 2 for a in members):
                yield S
            if len(members) == cap:
                continue
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                stack.append((members + [w], S | low,
                              ext | nbm[w] & above & ~closed,
                              closed | nbm[w]))


def _spanning_polymers(edges: list[tuple[int, int, int]],
                       adj: dict[int, int],
                       d: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """(edge-id row, profile) of every connected spanning subgraph of
    minimum degree 2 of a graph with the edges ``edges`` (id, u, v),
    ascending, and the neighbourhoods ``adj`` (a bitmask per node).

    The walk removes edges in ascending order, each only if both of its
    ends keep degree at least 2 and the graph stays connected; a graph
    that falls apart stays apart, so the walk never extends such a
    removal.
    """
    deg = {a: m.bit_count() for a, m in adj.items()}
    counts = [0] * (d + 1)
    for k in deg.values():
        counts[k] += 1
    out = []

    def joined(a: int, b: int) -> bool:
        # b reachable from a
        seen = front = 1 << a
        while front:
            nxt = 0
            for x in _bits_of(front):
                nxt |= adj[x]
            front = nxt & ~seen
            if front >> b & 1:
                return True
            seen |= front
        return False

    def drop(a: int, step: int) -> None:
        counts[deg[a]] -= 1
        deg[a] += step
        counts[deg[a]] += 1

    def walk(start: int, removed: int) -> None:
        out.append((tuple(e for i, (e, _, _) in enumerate(edges)
                          if not removed >> i & 1), counts[2:]))
        for i in range(start, len(edges)):
            _, a, b = edges[i]
            if deg[a] == 2 or deg[b] == 2:
                continue
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            if joined(a, b):
                drop(a, -1)
                drop(b, -1)
                walk(i + 1, removed | 1 << i)
                drop(a, 1)
                drop(b, 1)
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a

    walk(0, 0)
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
    witness.
    """
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
        if 1 << n > MAX_ENTRIES:
            raise BudgetError(f"exhaustive expansion check of 2^{n} node "
                              f"sets exceeds the cap of {MAX_ENTRIES:,}")
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
