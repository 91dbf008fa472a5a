"""Shared fixtures and brute-force oracles.

The oracles recompute everything from first principles (itertools over spin
configurations, 2^|E| subset filters, ratio-form message updates) so the
library's vectorized/closed-form code paths are checked against independent
implementations, never against themselves.  The per-node loops of the Bethe
node term and the activity tables, the edge-subset polymer grower over the
whole host, the set-by-set sampled expansion check, the edge-order BP sweep,
the pair-based convergence criterion, the Mayer sum over connected
labeled graphs, the recursive removal walk per support, the
polymer-by-polymer bound check, a BFS per node for its shortest cycle,
a BFS for the connected components,
the one-edge-a-step greedy elimination order, ESU one Python step at a
time and the depth-first hard-core recursion are kept here as the
references for their batched, support-first, slot-major, per-support,
hard-core-polynomial, level-walk, array, walk-table, merged-step and
packed-word versions.
Edge subsets are tuples of edge ids.  The oracles read a host's edges,
incident edges and neighbours as Python tuples built by ``tuple_graph``
from its edge list, with that constructor's own slot order.
"""

import collections
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from loopexp.bp import CLAMP, MessageSet
from loopexp.exceptions import BudgetError, DivergenceError
from loopexp.graphs import CheckGraph, _near_short_cycles
from loopexp.model import FactorSpec

# Property tests draw the same examples on every run, so tier-1 results are
# reproducible; the example count keeps the brute-force oracles to seconds.
settings.register_profile("loopexp", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("loopexp")

# ------------------------------------------------------------------ hosts


@pytest.fixture
def k4():
    return CheckGraph(4, 3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def triangle():
    return CheckGraph(3, 2, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def c6():
    return CheckGraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def prism():
    return CheckGraph(6, 3, [(0, 1), (1, 2), (0, 2),
                             (3, 4), (4, 5), (3, 5),
                             (0, 3), (1, 4), (2, 5)])


@pytest.fixture
def path3():
    return CheckGraph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def two_triangles():
    return CheckGraph(6, 2, [(0, 1), (0, 2), (1, 2),
                             (3, 4), (3, 5), (4, 5)])


@pytest.fixture
def two_k4s():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(u + 4, v + 4) for u, v in edges[:6]]
    return CheckGraph(8, 3, edges)


def mixed_host():
    """Degrees 0 to 3 on one host: a triangle with a pendant edge at node 2,
    a lone edge (4, 5) and the isolated node 6."""
    return CheckGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)])


# ----------------------------------------------------- hypothesis hosts


@st.composite
def small_hosts(draw, max_nodes=6, max_edges=8, min_nodes=1, min_edges=0):
    """Irregular hosts from ``CheckGraph.from_edges``: trees, disconnected
    and edgeless graphs included, small enough for the 2^|E| oracles."""
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    top = min(max_edges, len(pairs))
    num_edges = draw(st.integers(min(min_edges, top), top))
    return CheckGraph.from_edges(n, draw(st.permutations(pairs))[:num_edges])


@st.composite
def interleaved_hosts(draw, max_nodes=30, max_parts=5):
    """``from_edges`` hosts whose components interleave in node order:
    each node draws a part, and the edges are any subset of the pairs
    within a part, so parts split further, and isolated nodes and
    edgeless hosts occur."""
    n = draw(st.integers(1, max_nodes))
    part = draw(st.lists(st.integers(0, max_parts - 1), min_size=n,
                         max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if part[u] == part[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    return CheckGraph.from_edges(n, edges)


def bfs_components(graph):
    """Connected components as sorted node lists, in order of smallest
    node, by a breadth-first search from each unseen node."""
    nbrs = tuples_of(graph).neighbors
    seen, comps = set(), []
    for start in range(graph.n):
        if start in seen:
            continue
        seen.add(start)
        queue, comp = collections.deque([start]), []
        while queue:
            a = queue.popleft()
            comp.append(a)
            for b in nbrs[a]:
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        comps.append(sorted(comp))
    return comps


@st.composite
def factor_specs(draw, graph):
    """Any of the three factor kinds with random fields on ``graph``."""
    unit = st.floats(-1.0, 1.0)
    h = np.array(draw(st.lists(unit, min_size=graph.num_edges,
                               max_size=graph.num_edges)))
    kind = draw(st.sampled_from(["cycle-code", "softened-cycle-code",
                                 "high-temperature"]))
    if kind == "cycle-code":
        return FactorSpec.cycle_code(h)
    if kind == "softened-cycle-code":
        return FactorSpec.softened(h, draw(st.floats(0.0, 0.9)))
    J = draw(st.one_of(unit, st.lists(unit, min_size=graph.n,
                                      max_size=graph.n)))
    return FactorSpec.high_temperature(h, J)


@st.composite
def arbitrary_messages(draw, graph):
    """Messages anywhere in a box, not only at a fixed point."""
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * graph.num_edges,
                         max_size=2 * graph.num_edges))
    return np.array(vals).reshape(graph.num_edges, 2)


# ----------------------------------------------------------------- oracles


TupleGraph = collections.namedtuple("TupleGraph",
                                    "edges adjacency neighbors edge_index")


def tuple_graph(n, edges):
    """The Python constructor the graph's arrays replaced: canonical edges,
    per-node incident edges (the slot order) and neighbours, and the edge
    index, with the same ValueError for a self-loop, an out-of-range or a
    duplicate edge."""
    if n <= 0:
        raise ValueError("need at least one node")
    canon = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        canon.append((min(u, v), max(u, v)))
    canon.sort()
    for i in range(1, len(canon)):
        if canon[i] == canon[i - 1]:
            raise ValueError(f"duplicate edge {canon[i]}")
    adjacency = [[] for _ in range(n)]
    neighbors = [[] for _ in range(n)]
    for e, (u, v) in enumerate(canon):
        adjacency[u].append(e)
        neighbors[u].append(v)
        adjacency[v].append(e)
        neighbors[v].append(u)
    return TupleGraph(tuple(canon), tuple(tuple(a) for a in adjacency),
                      tuple(tuple(a) for a in neighbors),
                      {uv: e for e, uv in enumerate(canon)})


def tuples_of(graph):
    """``tuple_graph`` of ``graph``'s edges: the Python form of a host the
    oracles read, with that constructor's own slot order."""
    return tuple_graph(graph.n, graph.layout.ends.tolist())


def set_sampler_edges(n, d, seed, max_tries=10_000):
    """Edges of the pairing sampler with a Python-set duplicate test, making
    the same RNG calls as ``sample_regular_graph``."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_tries):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        u = np.minimum(pairs[:, 0], pairs[:, 1])
        v = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(u == v):
            continue
        edges = {(int(a), int(b)) for a, b in zip(u, v)}
        if len(edges) == len(u):
            return tuple(sorted(edges))
    raise AssertionError("no simple pairing")


def node_factor(t_a, fields, local_spins):
    """(1 + t_a prod_k sigma_k)/2 exp(sum_k h_k sigma_k / 2): a node's
    factor at the spins of its edges, whose fields are ``fields``."""
    prod = 1.0
    expo = 0.0
    for h, s in zip(fields, local_spins):
        prod *= s
        expo += 0.5 * h * s
    return 0.5 * (1.0 + t_a * prod) * math.exp(expo)


def factor_value(spec, graph, a, local_spins):
    """f_a evaluated on the spins of a's incident edges.

    ``local_spins`` is aligned with ``tuples_of(graph).adjacency[a]``.
    ValueError, as from ``spec.parity_couplings``, unless ``spec`` fits
    ``graph``.
    """
    eids = tuples_of(graph).adjacency[a]
    if len(local_spins) != len(eids):
        raise ValueError(f"node {a} has degree {len(eids)}")
    t = spec.parity_couplings(graph)[a]
    return node_factor(t, [spec.h[e] for e in eids], local_spins)


def perturbed(messages, a, b, delta, graph):
    """Copy of ``messages`` with eta_{a->b} shifted by delta; solver
    metadata cleared."""
    e = tuples_of(graph).edge_index[(min(a, b), max(a, b))]
    eta = messages.eta.copy()
    eta[e, int(a > b)] += delta
    return MessageSet(eta=eta)


def brute_log_z(graph, spec):
    """ln Z via itertools over edge-spin tuples; no bit tricks, no chunking."""
    adjacency = tuples_of(graph).adjacency
    t = spec.parity_couplings(graph)
    fields = [[spec.h[e] for e in eids] for eids in adjacency]
    total = 0.0
    for spins in itertools.product((1.0, -1.0), repeat=graph.num_edges):
        w = 1.0
        for a, eids in enumerate(adjacency):
            w *= node_factor(t[a], fields[a], [spins[e] for e in eids])
        total += w
    if total <= 0.0:
        raise ValueError("partition function vanished")
    return math.log(total)


def brute_log_z_log_domain(graph, spec):
    """ln Z as a log-sum-exp, over edge-spin tuples, of sum_a ln f_a: the
    oracle for fields whose weights overflow a float."""
    t = spec.parity_couplings(graph)
    adjacency = tuples_of(graph).adjacency
    terms = []
    for spins in itertools.product((1.0, -1.0), repeat=graph.num_edges):
        total = 0.0
        for a, eids in enumerate(adjacency):
            parity = math.prod(spins[e] for e in eids)
            if 1.0 + t[a] * parity <= 0.0:
                total = -math.inf
                break
            total += math.log(0.5 * (1.0 + t[a] * parity)) + sum(
                0.5 * spec.h[e] * spins[e] for e in eids)
        terms.append(total)
    if max(terms) == -math.inf:
        raise ValueError("partition function vanished")
    return float(logsumexp(terms))


def single_variable_width(graph):
    """Width of the greedy order that sums out one edge per step: the next
    edge is the one whose bucket union (the variables of the tables that
    hold it, one or two) is smallest, ties to the lowest edge index; the
    union less that edge becomes a new table.  A set per table, a scan
    over all edges per step."""
    edges, adjacency, _, _ = tuples_of(graph)
    scopes = [set(adj) for adj in adjacency]
    holders = [list(uv) for uv in edges]
    live = set(range(graph.num_edges))
    width = 0
    while live:
        unions = {e: set().union(*(scopes[f] for f in holders[e]))
                  for e in live}
        e = min(live, key=lambda v: (len(unions[v]), v))
        width = max(width, len(unions[e]))
        live.discard(e)
        scopes.append(unions[e] - {e})
        for v in scopes[-1]:
            holders[v] = [f for f in holders[v] if f not in holders[e]]
            holders[v].append(len(scopes) - 1)
    return width


def incoming(tg, eta, a, e):
    """eta_{b->a} for edge e = (a, b) of the ``tuple_graph`` ``tg``: the
    message toward node a."""
    u, v = tg.edges[e]
    return eta[e, 1] if a == u else eta[e, 0]


def brute_node_activity(graph, spec, eta, a, edges_in_set):
    """K_a by direct summation over the 2^deg local spin assignments."""
    tg = tuples_of(graph)
    eids = tg.adjacency[a]
    t = spec.parity_couplings(graph)[a]
    fields = [spec.h[e] for e in eids]
    sset = set(edges_in_set)
    num = 0.0
    den = 0.0
    for spins in itertools.product((1.0, -1.0), repeat=len(eids)):
        w = node_factor(t, fields, spins)
        for e, s in zip(eids, spins):
            w *= math.exp(incoming(tg, eta, a, e) * s)
        den += w
        term = w
        for e, s in zip(eids, spins):
            if e in sset:
                q = eta[e, 0] + eta[e, 1]
                term *= s * math.exp(-s * q)
        num += term
    return num / den


def brute_correction(graph, spec, eta):
    """Sum over all 2^|E| edge subsets of prod_a K_a, via the brute K_a."""
    E = graph.num_edges
    adjacency = tuples_of(graph).adjacency
    total = 0.0
    for mask in range(1 << E):
        chosen = [e for e in range(E) if mask >> e & 1]
        term = 1.0
        for a in range(graph.n):
            local = [e for e in chosen if e in adjacency[a]]
            if local:
                term *= brute_node_activity(graph, spec, eta, a, local)
        total += term
    return total


def brute_scan(graph, spec, eta):
    """z_loops, tail_abs and max_nonloop_abs by filtering all 2^|E| subsets.

    A subset is a loop when no node has exactly one chosen edge; it is in
    the tail when it touches at least n/2 nodes.
    """
    E = graph.num_edges
    adjacency = tuples_of(graph).adjacency
    z_loops = tail_abs = max_nonloop_abs = 0.0
    for mask in range(1 << E):
        chosen = [e for e in range(E) if mask >> e & 1]
        term = 1.0
        touched = 0
        degree_one = False
        for a in range(graph.n):
            local = [e for e in chosen if e in adjacency[a]]
            if local:
                term *= brute_node_activity(graph, spec, eta, a, local)
                touched += 1
                degree_one |= len(local) == 1
        if degree_one:
            max_nonloop_abs = max(max_nonloop_abs, abs(term))
        else:
            z_loops += term
        if 2 * touched >= graph.n:
            tail_abs += abs(term)
    return z_loops, tail_abs, max_nonloop_abs


def induced_degrees(tg, edges):
    """Touched node -> number of the given edge ids of the ``tuple_graph``
    ``tg`` that meet it."""
    deg = {}
    for e in edges:
        for a in tg.edges[e]:
            deg[a] = deg.get(a, 0) + 1
    return deg


def local_mask(tg, a, edges):
    """Node a's local bitmask of the given edge ids: bit k for slot k of the
    ``tuple_graph`` ``tg``."""
    return sum(1 << k for k, e in enumerate(tg.adjacency[a]) if e in edges)


def loop_log_activity_bound(profile, h, alpha_d, alpha_mid):
    """ln of the activity bound of one profile (n_2, ..., n_d), term by
    term: n_d ln base_d, then n_i ln(alpha_mid h^{d-i}) for i = 2..d-1,
    with 0 ln 0 = 0."""
    d = len(profile) + 1
    base_d = 1.0 - alpha_d * (d / 2.0) * h * h
    with np.errstate(divide="ignore"):
        logval = 0.0 if profile[-1] == 0 else float(
            profile[-1] * np.log(base_d))
        for i, n_i in enumerate(profile[:-1], start=2):
            if n_i:
                logval += float(n_i * np.log(alpha_mid * h ** (d - i)))
    return logval


def loop_bound_violations(catalog, activities, h, alpha_d, alpha_mid,
                          rtol=1e-9):
    """(index, |K|, bound) of every polymer over its bound, one polymer
    at a time; each bound is ``np.exp`` of the scalar log bound, the
    package's exponential, which can differ from ``math.exp`` in the last
    bit."""
    out = []
    for idx, profile in enumerate(catalog.profiles.tolist()):
        bound = float(np.exp(loop_log_activity_bound(profile, h, alpha_d,
                                                     alpha_mid)))
        measured = abs(float(activities[idx]))
        if measured > bound * (1.0 + rtol) + 1e-15:
            out.append((idx, measured, bound))
    return out


def loop_profile_tally(host):
    """Nonempty loop subsets of ``host`` (no node of induced degree one),
    counted per tail profile (n_2, ..., n_d) over all edge combinations."""
    tg = tuples_of(host)
    tally = {}
    for r in range(1, host.num_edges + 1):
        for edges in itertools.combinations(range(host.num_edges), r):
            degs = list(induced_degrees(tg, edges).values())
            if 1 in degs:
                continue
            prof = tuple(degs.count(k) for k in range(2, host.d + 1))
            tally[prof] = tally.get(prof, 0) + 1
    return tally


def brute_polymers(graph, node_cap):
    """All connected min-degree-2 edge subsets touching 3..node_cap nodes."""
    E = graph.num_edges
    tg = tuples_of(graph)
    out = set()
    for mask in range(1, 1 << E):
        edges = [e for e in range(E) if mask >> e & 1]
        deg = induced_degrees(tg, edges)
        if min(deg.values()) < 2 or len(deg) > node_cap:
            continue
        reach, left = set(tg.edges[edges[0]]), edges[1:]
        while left:
            joined = [e for e in left if reach & set(tg.edges[e])]
            if not joined:
                break
            reach.update(a for e in joined for a in tg.edges[e])
            left = [e for e in left if e not in joined]
        if not left:
            out.add(frozenset(edges))
    return out


def brute_polymer_sum(masks, activities, used=0):
    """Hard-core sum of prod K over pairwise node-disjoint polymers.

    Recurses over polymers one by one, never grouping those on one node
    support; collections may not touch the nodes in ``used``.
    """
    items = [(m, float(v)) for m, v in zip(masks, activities) if v != 0.0]

    def rec(start, taken):
        total = 1.0
        for j in range(start, len(items)):
            m, v = items[j]
            if not m & taken:
                total += v * rec(j + 1, taken | m)
        return total

    return rec(0, used)


def hard_core_polynomials(items, top=None):
    """Coefficients of the hard-core polynomial of each group of supports
    (node bitmask, weight), by one depth-first recursion per group.

    The supports are split into groups that share no node; for each group
    this returns c_0..c_t, where c_k sums prod(w) over the sets of k
    pairwise disjoint supports of the group and t is ``top``, or its
    support count when ``top`` is None, keyed by the group's node set.
    Each step passes down the later supports of the group, in the order
    of ``items``, that miss the set chosen so far, and the last level adds
    prod * sum(w) to c_t.  Also returns the pair comparisons made, C(m, 2)
    for a step with m candidates that has children.
    """
    groups = []    # node sets of the groups, pairwise disjoint
    for m, _ in items:
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
        for j, (m, v) in enumerate(cands):
            walk([it for it in cands[j + 1:] if not it[0] & m], prod * v,
                 c, k + 1)

    out = {}
    for g in groups:
        members = [it for it in items if it[0] & g]
        c = [0.0] * (1 + (len(members) if top is None else top))
        walk(members, 1.0, c, 0)
        out[g] = c
    return out, compared


@functools.cache
def connected_labeled_graphs(M):
    """All connected simple graphs on vertices 0..M-1, as sorted edge tuples."""
    if M < 1:
        raise ValueError("need at least one vertex")
    pairs = list(itertools.combinations(range(M), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        parent = list(range(M))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(x) for x in range(M)}) == 1:
            out.append(edges)
    return tuple(out)


def dense_mayer_orders(catalog, activities, M_max):
    """Mayer orders over the dense per-polymer intersection matrix.

    Every connected labeled graph on M slots is summed on its own, with sign
    (-1)^{#edges}, as an einsum over the P x P matrix built pair by pair.
    """
    vals = np.asarray(activities, dtype=np.float64)
    masks = node_masks(catalog)
    keep = [i for i in range(len(vals)) if vals[i] != 0.0]
    K = vals[keep]
    P = len(keep)
    X = np.zeros((P, P))
    for i in range(P):
        for j in range(i, P):
            if masks[keep[i]] & masks[keep[j]]:
                X[i, j] = X[j, i] = 1.0
    letters = "abcde"
    orders = []
    for M in range(1, M_max + 1):
        total = 0.0
        for edges in connected_labeled_graphs(M):
            subs = [letters[i] for i in range(M)]
            ops = [K] * M
            for u, v in edges:
                subs.append(letters[u] + letters[v])
                ops.append(X)
            hom = np.einsum(",".join(subs) + "->", *ops, optimize=True)
            total += (-1.0) ** len(edges) * float(hom)
        orders.append(total / math.factorial(M))
    return orders


def loop_bethe_node_term(graph, spec, eta):
    """Bethe node term, one node at a time in node order."""
    t = spec.parity_couplings(graph)
    tg = tuples_of(graph)
    node_term = 0.0
    for a, eids in enumerate(tg.adjacency):
        w = np.array([incoming(tg, eta, a, e) + 0.5 * spec.h[e]
                      for e in eids])
        bits = (np.arange(1 << len(eids))[:, None] >> np.arange(len(eids))) & 1
        S = 1.0 - 2.0 * bits
        weights = 0.5 * (1.0 + t[a] * np.prod(S, axis=1))
        val = logsumexp(S @ w, b=weights)
        if not math.isfinite(val):
            raise ValueError(f"node sum vanished at node {a}")
        node_term += float(val)
    return node_term


def loop_node_table(graph, spec, eta, a):
    """K_a(S) for every local bitmask S, one subset at a time."""
    t = spec.parity_couplings(graph)[a]
    tg = tuples_of(graph)
    eids = tg.adjacency[a]
    deg = len(eids)
    w = np.array([incoming(tg, eta, a, e) + 0.5 * spec.h[e]
                  for e in eids])
    q = np.array([eta[e, 0] + eta[e, 1] for e in eids])
    bits = (np.arange(1 << deg)[:, None] >> np.arange(deg)) & 1
    S = 1.0 - 2.0 * bits
    expo = S @ w if deg else np.zeros(1)
    weights = (0.5 * (1.0 + t * np.prod(S, axis=1))
               * np.exp(expo - np.max(expo)))
    Z = float(np.sum(weights))
    if not (math.isfinite(Z) and Z > 0.0):
        raise ValueError(f"local normalizer vanished at node {a}")
    F = S * np.exp(-S * q)
    K = np.empty(1 << deg)
    for m in range(1 << deg):
        v = weights
        for k in range(deg):
            if m >> k & 1:
                v = v * F[:, k]
        K[m] = float(np.sum(v)) / Z
    return K


def one_subset_activity(graph, spec, eta, a, mask):
    """K_a of the one local bitmask ``mask``, summed over the 2^deg local
    configurations slot by slot, so no 2^deg x deg spin matrix is built."""
    t = spec.parity_couplings(graph)[a]
    tg = tuples_of(graph)
    eids = tg.adjacency[a]
    configs = np.arange(1 << len(eids))
    expo, parity, term = np.zeros(len(configs)), 1.0, 1.0
    for k, e in enumerate(eids):
        sigma = 1.0 - 2.0 * (configs >> k & 1)
        expo += sigma * (incoming(tg, eta, a, e) + 0.5 * spec.h[e])
        parity = parity * sigma
        if mask >> k & 1:
            term = term * sigma * np.exp(-sigma * (eta[e, 0] + eta[e, 1]))
    weights = 0.5 * (1.0 + t * parity) * np.exp(expo - np.max(expo))
    return float(np.sum(weights * term) / np.sum(weights))


def loop_polymer_activities(table, catalog):
    """K(gamma) per polymer: one local mask per (polymer, touched node)."""
    tg = tuples_of(table.graph)
    out = []
    for row in catalog.edges:
        edges = row.tolist()
        value = 1.0
        for a in sorted(induced_degrees(tg, edges)):
            value *= table.K[a][local_mask(tg, a, edges)]
        out.append(value)
    return np.array(out)


def loop_criterion(catalog, activities):
    """sup over nodes of sum e^{|gamma|} |K(gamma)| over the polymers
    touching the node, from a per-node list of polymer indices."""
    per_node = [[] for _ in range(catalog.host.n)]
    masks = node_masks(catalog)
    for idx, mask in enumerate(masks):
        for a in range(catalog.host.n):
            if mask >> a & 1:
                per_node[a].append(idx)
    sizes = [mask.bit_count() for mask in masks]
    weighted = np.abs(activities) * np.exp(sizes)
    return max((float(np.sum(weighted[ids])) for ids in per_node if ids),
               default=0.0)


def assert_catalog_is(catalog, polymers):
    """The catalog's arrays describe ``polymers`` (ascending edge-id
    tuples), in order."""
    graph = catalog.host
    assert catalog.edges.values.dtype == catalog.profiles.dtype == np.int64
    assert catalog.profiles.shape == (len(polymers), max(graph.d - 1, 0))
    assert [tuple(row.tolist()) for row in catalog.edges] == list(polymers)
    tg = tuples_of(graph)
    degs = [induced_degrees(tg, p) for p in polymers]
    masks = tuple(sum(1 << a for a in deg) for deg in degs)
    assert node_masks(catalog) == masks
    assert catalog.profiles.tolist() == [
        [list(deg.values()).count(k) for k in range(2, graph.d + 1)]
        for deg in degs]
    want = support_arrays(graph, masks, polymers)
    for name, ref in zip(("support", "support_nodes", "slot_masks"),
                         want[1:]):
        got = getattr(catalog, name)
        assert got.shape == ref.shape and np.array_equal(got, ref)
    assert support_masks(catalog) == want[0]
    assert catalog.support.dtype == catalog.support_nodes.dtype == np.int64
    assert_wide_enough(catalog)


def support_arrays(graph, masks, polymers):
    """(support masks, support, support nodes, slot masks) of polymers
    (edge-id tuples, in catalog order) with the node masks ``masks``: the
    distinct masks ascending, each polymer's index among them, their
    nodes padded with n, and each polymer's ``local_mask`` at those nodes,
    0 where padded."""
    tg = tuples_of(graph)
    distinct = tuple(sorted(set(masks)))
    nodes = [_bits_of(m) for m in distinct]
    K = max(map(len, nodes), default=0)
    support = [distinct.index(m) for m in masks]
    slots = [[local_mask(tg, a, p) for a in nodes[s]]
             + [0] * (K - len(nodes[s])) for s, p in zip(support, polymers)]
    return (distinct, np.array(support, dtype=np.int64),
            np.array([v + [graph.n] * (K - len(v)) for v in nodes],
                     dtype=np.int64).reshape(len(nodes), K),
            np.array(slots, dtype=np.int64).reshape(len(masks), K))


def assert_wide_enough(catalog):
    """``slot_masks`` is unsigned, with a bit for every slot of the host."""
    dtype = catalog.slot_masks.dtype
    assert dtype.kind == "u"
    if len(catalog):
        assert 8 * dtype.itemsize >= catalog.host.layout.dmax


def support_masks(catalog):
    """Host bitmask of each support's nodes, from ``support_nodes``."""
    n = catalog.host.n
    return tuple(sum(1 << a for a in row if a < n)
                 for row in catalog.support_nodes.tolist())


def node_masks(catalog):
    """Host bitmask of the nodes each polymer touches."""
    return tuple(map(support_masks(catalog).__getitem__,
                     catalog.support.tolist()))


def left_out(ids, polymer):
    """Order of the polymers (edge-id tuples) on one node set V, whose
    induced subgraph G[V] has the edges ``ids``, ascending: the number of
    those edges a polymer leaves out, then their ids."""
    out = tuple(e for e in ids if e not in polymer)
    return len(out), out


def in_catalog_order(graph, polymers):
    """``polymers`` (edge-id tuples) in catalog order: by node mask
    ascending, then by ``left_out`` on their node set."""
    tg = tuples_of(graph)

    def key(p):
        nodes = set(induced_degrees(tg, p))
        ids = [e for e, (u, v) in enumerate(tg.edges)
               if u in nodes and v in nodes]
        return sum(1 << a for a in nodes), left_out(ids, p)

    return sorted(polymers, key=key)


def shortest_cycle_through(tg, x):
    """Length of the shortest cycle through node x of the ``tuple_graph``
    ``tg``, or None.

    A BFS from x labels every node with the branch (neighbour of x) it was
    reached through; the shortest cycle is the least dist(u) + dist(v) + 1
    over the edges (u, v) away from x that join two branches.
    """
    nbrs = tg.neighbors
    dist, branch = {x: 0}, {}
    queue = collections.deque()
    for b in nbrs[x]:
        dist[b], branch[b] = 1, b
        queue.append(b)
    while queue:
        a = queue.popleft()
        for b in nbrs[a]:
            if b not in dist:
                dist[b], branch[b] = dist[a] + 1, branch[a]
                queue.append(b)
    lengths = [dist[u] + dist[v] + 1 for u, v in tg.edges
               if u in branch and v in branch and branch[u] != branch[v]]
    return min(lengths, default=None)


def near_short_cycles(graph, c, through=None):
    """Nodes within max(0, (c - 5) // 2) hops of a node on a cycle of
    length <= c, ascending: the region of a capped catalog, node by node.
    ``through`` may hold every node's ``shortest_cycle_through``, for
    reuse."""
    tg = tuples_of(graph)
    nbrs = tg.neighbors
    if through is None:
        through = [shortest_cycle_through(tg, x) for x in range(graph.n)]
    marked = {x for x, length in enumerate(through)
              if length is not None and length <= c}
    for _ in range((c - 5) // 2):
        marked |= {b for a in marked for b in nbrs[a]}
    return sorted(marked)


def global_polymers(graph, node_cap, max_polymers=200_000):
    """Polymers grown from every edge of the host, in anchor order, as
    ascending edge-id tuples.

    Each connected edge subset is a connected vertex set of the line graph,
    anchored at its minimal edge and grown with larger-indexed edges through
    an exclusive-neighbourhood extension list; no locality pruning.
    """
    E = graph.num_edges
    tg = tuples_of(graph)
    line_adj = [set() for _ in range(E)]
    for inc in tg.adjacency:
        for i, e in enumerate(inc):
            for f in inc[i + 1:]:
                line_adj[e].add(f)
                line_adj[f].add(e)
    line_adj = [sorted(s) for s in line_adj]
    polymers = []

    def extend(mask, node_deg, ext, near, anchor):
        if min(node_deg.values()) >= 2:
            if len(polymers) >= max_polymers:
                raise BudgetError(
                    f"polymer catalog exceeds max_polymers={max_polymers}")
            polymers.append(tuple(e for e in range(E) if mask >> e & 1))
        for i, w in enumerate(ext):
            u, v = tg.edges[w]
            grown = (u not in node_deg) + (v not in node_deg)
            if len(node_deg) + grown > node_cap:
                continue
            new_deg = dict(node_deg)
            new_deg[u] = new_deg.get(u, 0) + 1
            new_deg[v] = new_deg.get(v, 0) + 1
            fresh = [f for f in line_adj[w] if f > anchor and f not in near]
            extend(mask | (1 << w), new_deg, ext[i + 1:] + fresh,
                   near | set(fresh), anchor)

    if node_cap >= 2:
        for anchor in range(E):
            u, v = tg.edges[anchor]
            ext0 = [f for f in line_adj[anchor] if f > anchor]
            extend(1 << anchor, {u: 1, v: 1}, ext0, {anchor} | set(ext0),
                   anchor)
    return polymers


def spanning_polymers(edges, adj, d):
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

    def joined(a, b):
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

    def drop(a, step):
        counts[deg[a]] -= 1
        deg[a] += step
        counts[deg[a]] += 1

    def walk(start, removed):
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


def esu_supports(nbm, cap, tested=None):
    """Connected node sets of at most ``cap`` nodes whose induced subgraph
    has minimum degree 2, as bitmasks with their member lists;
    ``nbm[a]`` is node a's neighbourhood.  ``tested``, when given (a
    Counter), counts the sets the walk tests, by size.

    ESU one Python step at a time: each connected set is grown once, from
    its least node, by nodes of its extension set, to which a new node
    adds only its neighbours that are neither in the set nor next to it.
    A member can later gain only neighbours in the extension set, so a
    branch in which some member has fewer than two neighbours in the set
    and its extension set holds no support.
    """
    for v in range(len(nbm)):
        above = -2 << v     # the nodes above v
        # members, set, extension set, set and its neighbours
        stack = [([v], 1 << v, nbm[v] & above, 1 << v | nbm[v])]
        while stack:
            members, S, ext, closed = stack.pop()
            if tested is not None:
                tested[len(members)] += 1
            reach = S | ext
            if any((nbm[a] & reach).bit_count() < 2 for a in members):
                continue
            if all((nbm[a] & S).bit_count() >= 2 for a in members):
                yield S, members
            if len(members) >= cap:
                continue
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                stack.append((members + [w], S | low,
                              ext | nbm[w] & above & ~closed,
                              closed | nbm[w]))


def region_neighbourhoods(graph, nodes):
    """Region-local neighbourhood bitmask of every node of ``nodes``
    (ascending host ids), the package's numbering of a region."""
    nbr = graph.layout.nbr[nodes]
    pos = np.searchsorted(nodes, nbr)
    local = np.where(np.append(nodes, -1)[pos] == nbr, pos, -1).tolist()
    return [sum(1 << b for b in row if b >= 0) for row in local]


def removal_walk_catalog(graph, node_cap):
    """(edge ids, offsets, node masks, profiles, support masks, support,
    support nodes, slot masks) of the polymers of at most ``node_cap``
    nodes, in catalog order: the package's region, ESU one step at a time
    (``esu_supports``), then ``spanning_polymers`` on each support, one
    recursion per support,
    sorted by node mask, then by ``left_out``; the support arrays are
    ``support_arrays``'s."""
    d = graph.d
    nodes = np.arange(0)
    if node_cap >= 3 and graph.num_edges:
        nodes = (np.arange(graph.n) if node_cap >= graph.n
                 else _near_short_cycles(graph.layout, node_cap))
    lay = graph.layout
    region = nodes.tolist()
    nbr, eid = lay.nbr[nodes], lay.eid[nodes]
    pos = np.searchsorted(nodes, nbr)
    local = np.where(np.append(nodes, -1)[pos] == nbr, pos, -1).tolist()
    nbm = [sum(1 << b for b in row if b >= 0) for row in local]
    up = [[(b, e) for b, e in zip(row, erow) if b > a]
          for a, (row, erow) in enumerate(zip(local, eid.tolist()))]
    blocks = []
    for support, _ in esu_supports(nbm, node_cap):
        members = _bits_of(support)
        edges = sorted((e, a, b) for a in members for b, e in up[a]
                       if support >> b & 1)
        ids = [e for e, _, _ in edges]
        blocks.append((support, sorted(spanning_polymers(
            edges, {a: nbm[a] & support for a in members}, d),
            key=lambda polymer: left_out(ids, polymer[0]))))
    edge_ids, offsets, masks, profiles, rows = [], [0], [], [], []
    for support, polymers in sorted(blocks, key=lambda block: block[0]):
        mask = sum(1 << region[a] for a in _bits_of(support))
        for row, profile in polymers:
            edge_ids.extend(row)
            offsets.append(len(edge_ids))
            masks.append(mask)
            profiles.extend(profile)
            rows.append(row)
    return (np.array(edge_ids, dtype=np.int64), np.array(offsets),
            tuple(masks), np.array(profiles, dtype=np.int64).reshape(
                len(masks), max(d - 1, 0)),
            *support_arrays(graph, masks, rows))


def ratio_message_update(graph, spec, eta, a, c):
    """One message a->c as atanh of the cavity ratio of sums."""
    tg = tuples_of(graph)
    eids = tg.adjacency[a]
    e_ac = tg.edge_index[(min(a, c), max(a, c))]
    t = spec.parity_couplings(graph)[a]
    fields = [spec.h[e] for e in eids]
    num = 0.0
    den = 0.0
    for spins in itertools.product((1.0, -1.0), repeat=len(eids)):
        w = node_factor(t, fields, spins)
        s_ac = None
        for e, s in zip(eids, spins):
            if e == e_ac:
                s_ac = s
            else:
                w *= math.exp(incoming(tg, eta, a, e) * s)
        num += s_ac * w
        den += w
    return math.atanh(num / den)


def loop_raw_sweep(graph, spec, flat):
    """Undamped update of every directed edge from the flat messages (index
    2e + dir): the edge-order sweep, one leave-one-out product per slot.
    Raises DivergenceError if an update is non-finite."""
    lay = graph.layout
    hh = np.where(lay.pad, 0.0, 0.5 * spec.h[lay.eid])
    t = spec.parity_couplings(graph)
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


def loop_solve(graph, spec, tol=1e-12, damping=0.5, max_sweeps=10_000,
               init=None):
    """``solve_fixed_point`` on edge-order messages: damped sweeps of
    ``loop_raw_sweep`` until the undamped residual reaches ``tol``."""
    if init is None:
        flat = np.zeros(2 * graph.num_edges)
    else:
        flat = np.asarray(init, dtype=np.float64).reshape(-1).copy()
    overflow = False
    residual = math.inf
    for k in range(1, max_sweeps + 1):
        try:
            raw = loop_raw_sweep(graph, spec, flat)
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


def _bits_of(mask):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def pair_criterion(catalog, activities):
    """The convergence criterion summed over (polymer, touched node) pairs:
    e^{|gamma|} |K(gamma)| added to the node of every pair.  The pairs are
    the distinct keys polymer * n + node over both ends of every member
    edge, from the catalog's edge rows."""
    weighted = np.abs(activities) * np.exp(catalog.profiles.sum(axis=1))
    n = catalog.host.n
    owner = np.repeat(np.arange(len(catalog)), np.diff(catalog.edges.offsets))
    pairs = np.unique(owner[:, None] * n
                      + catalog.host.layout.ends[catalog.edges.values])
    return float(np.max(np.bincount(pairs % n, weighted[pairs // n],
                                    minlength=n)))


def sampled_expansion(graph, kappa, num_samples, seed):
    """(is_expander, witness, subsets_checked) of the sampled edge-expansion
    check, one random node set and one boundary count at a time."""
    half = graph.n // 2
    edges = tuples_of(graph).edges
    rng = np.random.default_rng(seed)
    for k in range(num_samples):
        size = int(rng.integers(1, half + 1))
        nodes = set(rng.choice(graph.n, size=size, replace=False).tolist())
        boundary = sum((u in nodes) != (v in nodes) for u, v in edges)
        if boundary < kappa * size:
            return False, tuple(sorted(nodes)), k + 1
    return None, None, num_samples


# ----------------------------------------- acceptance criterion reporting

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
