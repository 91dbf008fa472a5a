import collections
import itertools
import logging
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopexp as lx
from loopexp import _layout, cli, graphs
from loopexp.exceptions import BudgetError, PairingError
from loopexp.graphs import (CheckGraph, _grow_polymers, _near_short_cycles,
                            check_edge_expansion, edge_boundary,
                            enumerate_polymers, read_graph,
                            sample_regular_graph, write_graph)
from loopexp.loopseries import convergence_criterion

from conftest import (assert_catalog_is, assert_wide_enough,
                      bfs_components, brute_polymers, esu_supports,
                      global_polymers, in_catalog_order, interleaved_hosts,
                      loop_criterion, mixed_host, near_short_cycles,
                      node_masks, region_neighbourhoods,
                      removal_walk_catalog, sampled_expansion,
                      set_sampler_edges, shortest_cycle_through, small_hosts,
                      support_masks, tuple_graph, tuples_of)


def edge_sets(catalog):
    """The catalog's polymers as sets of edge ids."""
    return {frozenset(row.tolist()) for row in catalog.edges}


class TestCheckGraph:
    def test_canonical_edge_order(self):
        g = CheckGraph(4, 3, [(3, 2), (1, 0), (2, 0), (3, 1), (2, 1), (0, 3)])
        assert g.layout.ends.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2],
                                          [1, 3], [2, 3]]

    def test_adjacency_alignment(self, prism):
        lay = prism.layout
        for a in range(prism.n):
            for e, b in zip(lay.eid[a, :lay.deg[a]], lay.nbr[a]):
                assert sorted((a, b)) == lay.ends[e].tolist()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CheckGraph(3, 2, [(0, 0), (1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            CheckGraph(3, 2, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CheckGraph(3, 2, [(0, 3)])

    def test_rejects_degree_above_nominal(self):
        k4 = list(itertools.combinations(range(4), 2))
        with pytest.raises(ValueError, match="node 0 has degree 3"):
            CheckGraph(4, 2, k4)
        with pytest.raises(ValueError, match="node 2 has degree 2"):
            CheckGraph.from_edges(3, [(0, 2), (1, 2)], d=1)
        assert CheckGraph.from_edges(4, k4).d == 3

    def test_from_edges_infers_max_degree(self, path3):
        assert path3.d == 2
        assert not path3.is_regular()
        assert path3.layout.deg.tolist() == [1, 2, 1]

    def test_components(self, two_k4s, prism):
        assert two_k4s.components() == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert prism.components() == [[0, 1, 2, 3, 4, 5]]
        assert CheckGraph.from_edges(1, []).components() == [[0]]
        assert CheckGraph.from_edges(4, []).components() == [[0], [1], [2],
                                                             [3]]
        # interleaved, with isolated nodes 2 and 6
        assert CheckGraph.from_edges(
            7, [(0, 3), (3, 5), (1, 4)]).components() \
            == [[0, 3, 5], [1, 4], [2], [6]]

    @given(st.one_of(small_hosts(max_nodes=9, max_edges=12),
                     interleaved_hosts()))
    def test_components_match_bfs(self, graph):
        assert graph.components() == bfs_components(graph)


@st.composite
def pair_lists(draw):
    """(n, pairs) of either orientation, now and then with a self-loop, an
    out-of-range or a duplicate edge."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    bad = [(1, 1), (0, n), (-1, 1)]
    return n, draw(st.lists(st.sampled_from(pairs + bad), max_size=10))


class TestArrayGraph:
    """The array-built graph against the Python constructor it replaced."""

    @staticmethod
    def check(n, pairs):
        # nominal degree n - 1 covers every simple graph on n nodes
        try:
            edges, adjacency, neighbors, _ = tuple_graph(n, pairs)
        except ValueError as err:
            for given_pairs in (pairs, np.array(pairs, dtype=np.int64)):
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    CheckGraph(n, n - 1, given_pairs)
            return
        for given_pairs in (pairs, np.array(pairs, dtype=np.int64)):
            lay = CheckGraph(n, n - 1, given_pairs).layout
            assert lay.ends.shape == (len(edges), 2)
            assert list(map(tuple, lay.ends.tolist())) == list(edges)
            for a in range(n):
                k = len(adjacency[a])
                assert lay.deg[a] == k
                assert lay.eid[a, :k].tolist() == list(adjacency[a])
                pad = [n] * (lay.dmax - len(neighbors[a]))
                assert lay.nbr[a].tolist() == list(neighbors[a]) + pad

    @given(st.data())
    def test_small_hosts(self, data):
        g = data.draw(small_hosts())
        pairs = data.draw(st.permutations(tuples_of(g).edges))
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                   max_size=len(pairs)))
        self.check(g.n, [(v, u) if f else (u, v)
                         for (u, v), f in zip(pairs, flips)])

    @given(pair_lists())
    def test_pair_lists(self, case):
        self.check(*case)

    def test_large_n_path_builds_no_tuple_view(self):
        # the call sequence of the large-n benchmark path
        g = lx.sample_regular_graph(2000, 3, [3, 0])
        spec = lx.FactorSpec.cycle_code(lx.sample_bsc(g, 0.3, [3, 1]).h)
        msgs = lx.solve_fixed_point(g, spec, tol=1e-10)
        lx.bethe_log_partition(g, spec, msgs)
        table = lx.ActivityTable(g, spec, msgs)
        catalog = lx.enumerate_polymers(g, 5)
        acts = table.polymer_activities(catalog)
        lx.convergence_criterion(catalog, acts)
        lx.activity_bound_violations(catalog, acts,
                                     h=lx.half_llr_magnitude(0.3))
        assert len(catalog) > 0
        assert not any(hasattr(g, name)
                       for name in ("edges", "adjacency", "edge_index"))


class TestSampling:
    @pytest.mark.parametrize("n", [8, 20, 200])
    def test_matches_set_sampler(self, n):
        for seed in range(50):
            assert (tuples_of(sample_regular_graph(n, 3, seed)).edges
                    == set_sampler_edges(n, 3, seed))

    def test_seed_determinism(self):
        g1 = sample_regular_graph(10, 3, 42)
        g2 = sample_regular_graph(10, 3, 42)
        g3 = sample_regular_graph(10, 3, 43)
        assert np.array_equal(g1.layout.ends, g2.layout.ends)
        assert not np.array_equal(g1.layout.ends, g3.layout.ends)

    def test_output_is_simple_and_regular(self):
        for trial in range(20):
            for n, d in ((6, 3), (8, 3), (10, 4), (7, 2)):
                g = sample_regular_graph(n, d, [trial, n, d])
                assert g.is_regular()
                assert len(set(tuples_of(g).edges)) == g.num_edges

    def test_rejects_odd_stub_total(self):
        with pytest.raises((ValueError, PairingError)):
            sample_regular_graph(5, 3, 0)

    def test_rejects_too_few_nodes(self):
        with pytest.raises((ValueError, PairingError)):
            sample_regular_graph(3, 3, 0)

    def test_retry_budget_raises(self, monkeypatch):
        # one pairing cannot reliably be simple at this size
        monkeypatch.setattr(graphs, "MAX_PAIRINGS", 1)
        failed = 0
        for s in range(40):
            try:
                sample_regular_graph(8, 3, s)
            except PairingError:
                failed += 1
        assert failed > 0


class TestGraphIO:
    def test_round_trip(self, tmp_path, prism):
        path = tmp_path / "g.txt"
        write_graph(prism, path)
        back = read_graph(path)
        assert back.n == prism.n and back.d == prism.d
        assert np.array_equal(back.layout.ends, prism.layout.ends)

    def test_read_rejects_irregular(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        with pytest.raises(ValueError):
            read_graph(path)


class TestPolymerEnumeration:
    @pytest.mark.parametrize("cap", [3, 4])
    def test_k4_matches_brute_force(self, k4, cap):
        assert edge_sets(enumerate_polymers(k4, cap)) \
            == brute_polymers(k4, cap)

    def test_k4_full_census(self, k4):
        # 4 triangles, 3 four-cycles, and 4 + 3 + 1 subsets on all 4 nodes
        cat = enumerate_polymers(k4, 4)
        assert np.count_nonzero(cat.profiles.sum(axis=1) == 3) == 4
        # 4 nodes: the 3 4-cycles, the 4 "triangle plus spoke-pair"... count
        # against the oracle rather than by hand
        assert len(cat) == len(brute_polymers(k4, 4))

    def test_prism_matches_brute_force(self, prism):
        assert edge_sets(enumerate_polymers(prism, 6)) \
            == brute_polymers(prism, 6)

    def test_disconnected_host(self, two_k4s):
        assert edge_sets(enumerate_polymers(two_k4s, 8)) \
            == brute_polymers(two_k4s, 8)

    def test_tree_host_has_no_polymers(self, path3):
        assert len(enumerate_polymers(path3, 3)) == 0

    def test_triangle_host_single_polymer(self, triangle):
        cat = enumerate_polymers(triangle, 3)
        assert len(cat) == 1
        assert cat.edges[0].tolist() == [0, 1, 2]
        assert node_masks(cat) == (0b111,)
        assert cat.profiles.tolist() == [[3]]
        assert cat.covers_host

    def test_cap_below_three_is_empty(self, k4):
        assert len(enumerate_polymers(k4, 2)) == 0

    def test_node_cap_prunes(self, prism):
        small = enumerate_polymers(prism, 3)
        assert set(small.profiles.sum(axis=1).tolist()) == {3}
        assert not small.covers_host

    def test_budget_error(self, prism, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_POLYMERS", 3)
        with pytest.raises(BudgetError):
            enumerate_polymers(prism, 6)

    def test_budget_admits_a_catalog_of_exactly_the_cap(self, prism,
                                                        monkeypatch):
        size = len(enumerate_polymers(prism, 6))
        monkeypatch.setattr(graphs, "MAX_POLYMERS", size)
        assert len(enumerate_polymers(prism, 6)) == size
        monkeypatch.setattr(graphs, "MAX_POLYMERS", size - 1)
        with pytest.raises(BudgetError, match=(
                f"polymer catalog would need {size:,} polymers, over the cap "
                f"of {size - 1:,}$")):
            enumerate_polymers(prism, 6)

    def test_larger_host_against_brute(self):
        g = sample_regular_graph(8, 3, 5)
        assert edge_sets(enumerate_polymers(g, 8)) == brute_polymers(g, 8)


def lollipop():
    """A triangle on 0, 1, 2 with a path of 38 edges hanging off node 2."""
    return CheckGraph.from_edges(41, [(0, 1), (0, 2), (1, 2)] + [
        (i, i + 1) for i in range(2, 40)])


def assert_same_catalog(got, want):
    """Two catalogs hold the same support, support nodes and slot masks,
    order and dtypes included."""
    for a, b in ((got.support, want.support),
                 (got.support_nodes, want.support_nodes),
                 (got.slot_masks, want.slot_masks)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestLocalCatalog:
    """The support-first catalog against the edge-subset grower over the
    whole host, in catalog order."""

    @given(small_hosts(max_nodes=8, max_edges=11))
    def test_same_polymers_in_same_order(self, g):
        for cap in range(g.n + 1):
            assert_catalog_is(enumerate_polymers(g, cap),
                              in_catalog_order(g, global_polymers(g, cap)))

    @given(small_hosts(max_nodes=8, max_edges=14))
    def test_polymers_of_one_support_are_contiguous(self, g):
        ends = g.layout.ends
        for cap in range(g.n + 1):
            cat = enumerate_polymers(g, cap)
            masks = list(node_masks(cat))
            assert masks == sorted(masks)
            runs = [m for i, m in enumerate(masks) if i == 0
                    or m != masks[i - 1]]
            assert len(runs) == len(set(masks))
            for row, mask in zip(cat.edges, masks):
                assert mask == sum(1 << a for a in set(ends[row].ravel()))

    @pytest.mark.parametrize("cap", [5, 6])
    def test_sampled_cubic_graph(self, cap):
        g = sample_regular_graph(2000, 3, 17)
        want = global_polymers(g, cap)
        assert want
        assert_catalog_is(enumerate_polymers(g, cap),
                          in_catalog_order(g, want))

    @pytest.mark.parametrize("cap", [5, 6])
    def test_sampled_quartic_graph(self, cap):
        g = sample_regular_graph(600, 4, 17)
        want = global_polymers(g, cap)
        assert want
        assert_catalog_is(enumerate_polymers(g, cap),
                          in_catalog_order(g, want))

    def test_uncapped_cubic_graph(self):
        g = sample_regular_graph(12, 3, 1)
        want = global_polymers(g, g.n)
        assert len(want) == 2206
        assert_catalog_is(enumerate_polymers(g, g.n),
                          in_catalog_order(g, want))

    def test_row_spanning_the_host_takes_the_host(self, monkeypatch):
        # from cap 7 on the lollipop, a row of walks holds at least its 41
        # nodes: the region is the whole host, and the search never runs
        def search(*args):
            raise AssertionError("short-cycle search ran")

        g = lollipop()
        monkeypatch.setattr(graphs, "_near_short_cycles", search)
        for cap in range(12, 37):
            assert graphs._row_width(g.layout.dmax, (cap + 1) // 2) >= g.n
            assert_catalog_is(enumerate_polymers(g, cap),
                              in_catalog_order(g, global_polymers(g, cap)))

    @pytest.mark.parametrize("cap", [3, 5, 6, 7, 9, 12])
    def test_region_is_near_short_cycles(self, cap):
        # the region holds the triangle and the (c - 5) // 2 path nodes
        # closest to it
        g = lollipop()
        region = _near_short_cycles(g.layout, cap)
        assert region.tolist() == list(range(3 + max(0, (cap - 5) // 2)))
        assert [row.tolist() for row in enumerate_polymers(g, cap).edges] \
            == [[0, 1, 2]]

    @given(st.one_of(small_hosts(max_nodes=12, max_edges=18),
                     interleaved_hosts(max_nodes=16)))
    def test_region_loses_no_polymer(self, g):
        # every node of a polymer of at most c nodes lies within
        # (c - 5) // 2 hops of one of its cycles
        for cap in range(3, 11):
            local = _grow_polymers(g, cap, _near_short_cycles(g.layout, cap))
            assert_same_catalog(local, _grow_polymers(g, cap, np.arange(g.n)))

    def test_cubic_regions_at_caps_7_and_8(self):
        # the proved radius gives 247 nodes at cap 7; the looser c - 3 hops
        # give 1,812 and the same catalog
        g = sample_regular_graph(10_000, 3, 1)
        cat7, cat8 = enumerate_polymers(g, 7), enumerate_polymers(g, 8)
        region = _near_short_cycles(g.layout, 7)
        assert (len(region), len(cat7)) == (247, 22)
        assert (len(_near_short_cycles(g.layout, 8)), len(cat8)) == (580, 43)
        wide = np.zeros(g.n + 1, dtype=bool)
        wide[region] = True
        for _ in range(3):
            wide[:g.n] |= wide[g.layout.nbr].any(axis=1)
        wide = np.flatnonzero(wide[:g.n])
        assert len(wide) == 1812
        assert_same_catalog(cat7, _grow_polymers(g, 7, wide))


def wheel(spokes):
    """A hub, node 0, joined to every node of a cycle on 1..spokes."""
    return CheckGraph.from_edges(spokes + 1, [(0, i) for i in range(
        1, spokes + 1)] + [(i, i % spokes + 1) for i in range(1, spokes + 1)])


class TestWideSlotMasks:
    """Hosts from ``from_edges`` may have nodes of degree above 8: the slot
    masks get one bit per slot, up to 64."""

    @pytest.mark.parametrize("spokes, dtype", [(8, np.uint8),
                                               (12, np.uint16),
                                               (20, np.uint32)])
    def test_hub_slots(self, spokes, dtype):
        g = wheel(spokes)
        cat = enumerate_polymers(g, 4)
        assert cat.slot_masks.dtype == dtype
        assert_catalog_is(cat, in_catalog_order(g, global_polymers(g, 4)))

    def test_sixty_four_slots(self):
        cat = enumerate_polymers(wheel(64), 3)
        assert cat.slot_masks.dtype == np.uint64
        # the triangle on the hub's last two slots
        assert cat.slot_masks[-1, 0] == 3 << 62
        assert_wide_enough(cat)

    def test_more_slots_refused(self):
        with pytest.raises(BudgetError, match="node slot mask would need 65 "
                           "slot bits, over the cap of 64$"):
            enumerate_polymers(wheel(65), 3)
        # no support, no masks: the empty catalog is still built
        star = CheckGraph.from_edges(70, [(0, i) for i in range(1, 70)])
        assert len(enumerate_polymers(star, 70)) == 0


def walk_ends(g, x, top):
    """End nodes of the non-backtracking walks of lengths 1..top from x
    that do not return to x, one per walk."""
    nbrs = tuples_of(g).neighbors
    ends, walks = [], [(x, b) for b in nbrs[x]]
    for _ in range(top):
        ends += [b for _, b in walks]
        walks = [(b, c) for a, b in walks for c in nbrs[b]
                 if c != a and c != x]
    return ends


class TestShortCycleSearch:
    """The walk-table search against a BFS per node: the region is the
    set of nodes within max(0, (c - 5) // 2) hops of a cycle of length at
    most c."""

    @given(small_hosts(max_nodes=12, max_edges=20))
    def test_small_hosts(self, g):
        for cap in range(3, 9):
            assert _near_short_cycles(g.layout, cap).tolist() \
                == near_short_cycles(g, cap)

    @pytest.mark.parametrize("n, d, seed", [(1000, 3, 1), (1000, 4, 2),
                                            (60, 3, 3), (40, 4, 4)])
    def test_sampled_hosts(self, n, d, seed):
        g = sample_regular_graph(n, d, seed)
        tg = tuples_of(g)
        through = [shortest_cycle_through(tg, x) for x in range(n)]
        for cap in range(3, 9):
            assert _near_short_cycles(g.layout, cap).tolist() \
                == near_short_cycles(g, cap, through)

    @pytest.mark.parametrize("spokes, caps", [(8, range(3, 9)),
                                              (12, range(3, 7)),
                                              (20, range(3, 7)),
                                              (64, range(3, 5))])
    def test_wheels(self, spokes, caps):
        g = wheel(spokes)
        for cap in caps:
            assert _near_short_cycles(g.layout, cap).tolist() \
                == near_short_cycles(g, cap)

    def test_deepening(self):
        # caps 19 to 24 for d = 3: every source walked once to its full
        # depth, rows of 3,069 to 12,285 walks in blocks of 21 to 5 sources
        cubic = sample_regular_graph(200, 3, 5)
        for g in (lollipop(), cubic):
            tg = tuples_of(g)
            through = [shortest_cycle_through(tg, x) for x in range(g.n)]
            for cap in range(19, 25):
                assert _near_short_cycles(g.layout, cap).tolist() \
                    == near_short_cycles(g, cap, through)

    def test_tally(self):
        # cap 5: walks of lengths 1..3, 3 + 6 + 12 per row on a cubic host
        g = sample_regular_graph(40, 3, 7)
        tally = {}
        _near_short_cycles(g.layout, 5, tally)
        repeats = sum(len(set(ends)) < len(ends)
                      for ends in (walk_ends(g, x, 3) for x in range(g.n)))
        assert tally == dict(width=21, blocks=1, repeats=repeats)
        assert repeats

    def test_budget_refuses_before_allocating(self, monkeypatch):
        # one source of wheel(64) at cap 9 would hold 64 * (1 + 63 + ...
        # + 63^4) walks, about 2^30, and one of a cubic host at cap 45
        # 3 * (1 + 2 + ... + 2^22).  Both rows are wider than their hosts,
        # but a row over the budget is refused, not taken as the whole
        # host: a whole-host catalog of the cubic host at cap 45 starts a
        # support walk over 1,000 nodes that was still running after 90 s
        for g, cap, walks in [(wheel(64), 9, "1,024,450,624"),
                              (sample_regular_graph(1000, 3, 1), 45,
                               "25,165,821")]:
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError, match=f"short-cycle search "
                                   f"for node cap {cap} would need {walks} "
                                   f"walks, over the cap of 16,777,216$"):
                    enumerate_polymers(g, cap)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        # a cubic host at cap 8 holds 3 + 6 + 12 + 24 walks per source
        cubic = sample_regular_graph(100, 3, 1)
        monkeypatch.setattr(_layout, "MAX_ENTRIES", 45)
        want = _near_short_cycles(cubic.layout, 8)
        monkeypatch.setattr(_layout, "MAX_ENTRIES", 44)
        with pytest.raises(BudgetError, match="would need 45 walks, over the "
                           "cap of 44$"):
            _near_short_cycles(cubic.layout, 8)
        assert want.tolist() == near_short_cycles(cubic, 8)


def assert_same_arrays(catalog, want):
    """The catalog's edge ids, offsets, node masks, profiles and support
    arrays are ``want``'s, order included; dtypes too, but for the slot
    masks, which need only be wide enough."""
    values, offsets, masks, profiles, distinct, *support = want
    for got, ref in ((catalog.edges.values, values),
                     (catalog.edges.offsets, offsets),
                     (catalog.profiles, profiles),
                     (catalog.support, support[0]),
                     (catalog.support_nodes, support[1])):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
    assert catalog.slot_masks.shape == support[2].shape
    assert np.array_equal(catalog.slot_masks, support[2])
    assert_wide_enough(catalog)
    assert node_masks(catalog) == masks
    assert support_masks(catalog) == distinct
    assert np.all(np.diff(catalog.support) >= 0)


class TestLevelWalk:
    """The level walk against the recursive removal walk per support,
    array for array, at every cap from 3 to n."""

    @given(small_hosts(max_nodes=8, max_edges=14))
    def test_irregular_hosts(self, g):
        for cap in range(3, g.n + 1):
            assert_same_arrays(enumerate_polymers(g, cap),
                               removal_walk_catalog(g, cap))

    def check_sampled(self, g, seed):
        rng = np.random.default_rng(seed)
        for cap in range(3, g.n + 1):
            cat = enumerate_polymers(g, cap)
            assert_same_arrays(cat, removal_walk_catalog(g, cap))
            vals = rng.uniform(-1.0, 1.0, len(cat))
            assert convergence_criterion(cat, vals) == pytest.approx(
                loop_criterion(cat, vals), rel=1e-12, abs=0.0)

    @settings(max_examples=10)
    @given(n=st.integers(2, 7).map(lambda k: 2 * k),
           seed=st.integers(0, 2 ** 16))
    def test_sampled_cubic_hosts(self, n, seed):
        self.check_sampled(sample_regular_graph(n, 3, seed), seed)

    @settings(max_examples=4)
    @given(n=st.integers(5, 10), seed=st.integers(0, 2 ** 16))
    def test_sampled_quartic_hosts(self, n, seed):
        self.check_sampled(sample_regular_graph(n, 4, seed), seed)

    def test_long_cycle_with_chords(self):
        # a subdivided K4 with 82 edges on 80 nodes, so the walk's rows
        # and cycle columns span two 64-bit words; its polymers are those
        # of K4: 4 triangles, 3 four-cycles, 6 minus an edge and K4
        edges = [(i, (i + 1) % 80) for i in range(80)] + [(0, 40), (20, 60)]
        g = CheckGraph.from_edges(80, edges)
        cat = enumerate_polymers(g, 80)
        assert_same_arrays(cat, removal_walk_catalog(g, 80))
        assert len(cat) == 14

    def test_budget_refuses_before_allocating(self, monkeypatch):
        g = sample_regular_graph(14, 3, 1)     # 7,981 polymers, uncapped
        budget = 1_000
        monkeypatch.setattr(graphs, "MAX_POLYMERS", budget)
        # the arrays of one admitted level of at most ``budget`` states,
        # with K nodes and M edges (the whole host, uncapped): per state
        # its support (8 bytes), slot-mask and open-edge rows (K + M) and
        # reduced cycle columns (8M); per support, at most one a state,
        # its edge ends and slot flags (17M), its incidence and
        # elimination rows (4KM) and its basis columns (M^2 + 8M)
        K, M = g.n, g.num_edges
        bound = budget * (8 + K + 34 * M + 4 * K * M + M * M)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="polymer catalog would "
                               "need 1,315 polymers, over the cap of 1,000$"):
                enumerate_polymers(g, g.n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_budget_counts_supports(self, two_triangles, monkeypatch):
        # two supports and no removable edge: the budget is met or passed
        # in the support walk alone
        monkeypatch.setattr(graphs, "MAX_POLYMERS", 2)
        assert len(enumerate_polymers(two_triangles, 6)) == 2
        monkeypatch.setattr(graphs, "MAX_POLYMERS", 1)
        with pytest.raises(BudgetError, match="polymer catalog would need 2 "
                           "polymers, over the cap of 1$"):
            enumerate_polymers(two_triangles, 6)

    def test_one_debug_record_per_call(self, prism, caplog):
        with caplog.at_level(logging.DEBUG, logger="loopexp.graphs"):
            cat = enumerate_polymers(prism, 6)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        ends = prism.layout.ends
        removed = [np.count_nonzero((m >> ends & 1).all(axis=1)) - len(row)
                   for m, row in zip(node_masks(cat), cat.edges)]
        assert record.getMessage().startswith(
            f"polymers on 6 region nodes: {len(set(node_masks(cat)))} "
            f"supports, {len(cat)} polymers, {max(removed) + 1} walk "
            f"levels, ")

    def test_debug_record_reports_the_search(self, prism, caplog):
        g = sample_regular_graph(40, 3, 7)
        tally = {}
        region = _near_short_cycles(g.layout, 5, tally)
        with caplog.at_level(logging.DEBUG, logger="loopexp.graphs"):
            enumerate_polymers(g, 5)
            enumerate_polymers(prism, 6)    # cap n: no search
        searched, whole_host = (record.getMessage()
                                for record in caplog.records)
        pattern = (r"polymers on (\d+) region nodes: .*, [0-9.]+ s; "
                   r"short-cycle search: rows of (\d+) walks, (\d+) source "
                   r"blocks, (\d+) rows repeat an end node, [0-9.]+ s$")
        assert re.fullmatch(pattern, searched).groups() == tuple(
            map(str, (len(region), tally["width"], tally["blocks"],
                      tally["repeats"])))
        assert re.fullmatch(pattern, whole_host).groups() \
            == ("6", "0", "0", "0")

    def test_no_timing_without_debug(self, prism, caplog, monkeypatch):
        def clock():
            raise AssertionError("clock read with DEBUG off")

        monkeypatch.setattr(graphs, "time",
                            SimpleNamespace(perf_counter=clock))
        with caplog.at_level(logging.INFO, logger="loopexp.graphs"):
            assert len(enumerate_polymers(prism, 6))
        assert not caplog.records


def word_supports(g, nodes, cap):
    """The support walk on the region ``nodes`` of ``g``, as region-local
    bitmasks, in the walk's order."""
    nbr = g.layout.nbr[nodes]
    pos = np.searchsorted(nodes, nbr)
    local = np.where(np.append(nodes, -1)[pos] == nbr, pos, -1)
    return [int.from_bytes(row.astype("<u8").tobytes(), "little")
            for row in graphs._support_walk(local, cap)]


def oracle_supports(g, nodes, cap):
    """ESU one step at a time on the same region, masks ascending."""
    nbm = region_neighbourhoods(g, nodes)
    return sorted(mask for mask, _ in esu_supports(nbm, cap))


class TestSupportWalk:
    """The support walk on packed words against ESU one Python step at a
    time: the same supports, ascending, at every cap."""

    @given(small_hosts(max_nodes=8, max_edges=14))
    def test_small_hosts_at_every_cap(self, g):
        for cap in range(0, g.n + 1):
            assert word_supports(g, np.arange(g.n), cap) \
                == oracle_supports(g, np.arange(g.n), cap)

    def test_mixed_host_at_every_cap(self):
        g = mixed_host()
        for cap in range(0, g.n + 1):
            assert word_supports(g, np.arange(g.n), cap) \
                == oracle_supports(g, np.arange(g.n), cap)
        assert word_supports(g, np.arange(g.n), 7) == [0b111]

    def test_hundred_node_cycle(self):
        # one support of 100 nodes, two words a row, grown over 100 levels
        g = CheckGraph.from_edges(100, [(i, (i + 1) % 100)
                                        for i in range(100)])
        assert word_supports(g, np.arange(100), 100) == [(1 << 100) - 1]
        cat = enumerate_polymers(g, 100)
        assert len(cat) == 1
        assert_same_arrays(cat, removal_walk_catalog(g, 100))

    def test_lollipop(self):
        # at these caps a row of walks holds at least 41 walks, so the
        # region is the whole host: one support, the triangle, after 36
        # levels on the path
        g = lollipop()
        for cap in range(12, 37):
            assert word_supports(g, np.arange(g.n), cap) \
                == oracle_supports(g, np.arange(g.n), cap) == [0b111]
            assert support_masks(enumerate_polymers(g, cap)) == (0b111,)

    @pytest.mark.parametrize("n, d, seed, cap", [
        (10_000, 3, 0, 6), (10_000, 3, 0, 7), (10_000, 3, 1, 7),
        (10_000, 3, 1, 8), (600, 4, 17, 6)])
    def test_wide_regions(self, n, d, seed, cap):
        # regions of 66 to 580 nodes, two to ten words a row
        g = sample_regular_graph(n, d, seed)
        region = _near_short_cycles(g.layout, cap)
        assert len(region) > 64
        got = word_supports(g, region, cap)
        assert got == oracle_supports(g, region, cap)
        assert got

    def test_over_budget_walk_refuses_in_bounded_memory(self, monkeypatch):
        # uncapped on 40 nodes the supports start at 10 nodes, and the
        # level of 17-node sets alone holds about 425,000 sets (over 70 MiB
        # of rows and members); the walk holds one batch of a level at a
        # time, depth first, and refuses once the supports pass the budget
        g = sample_regular_graph(40, 3, 1)
        monkeypatch.setattr(graphs, "MAX_POLYMERS", 20_000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="polymer catalog would "
                               "need 20,018 polymers, over the cap of "
                               "20,000$"):
                enumerate_polymers(g, 39)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_node_table_over_budget_refuses_before_allocating(self,
                                                              monkeypatch):
        # the 200-node cycle, uncapped: a node table of 4 x 4 words x 201
        # columns, 3,216 words
        g = CheckGraph.from_edges(200, [(i, (i + 1) % 200)
                                        for i in range(200)])
        monkeypatch.setattr(_layout, "MAX_ENTRIES", 3_215)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="region of 200 nodes would "
                               "need 3,216 node-table words, over the cap of "
                               "3,215$"):
                enumerate_polymers(g, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 3_216
        # at the cap the walk runs: one support, grown over 200 levels
        monkeypatch.setattr(_layout, "MAX_ENTRIES", 3_216)
        assert len(enumerate_polymers(g, 200)) == 1

    def test_batches_leave_the_catalog_alone(self, monkeypatch):
        # levels cut into runs of a few states, walked depth first
        g = sample_regular_graph(14, 3, 2)
        want = removal_walk_catalog(g, 14)
        monkeypatch.setattr(graphs, "BLOCK_ENTRIES", 40)
        assert_same_arrays(enumerate_polymers(g, 14), want)

    def test_debug_record_reports_the_walk(self, prism, caplog):
        tested = collections.Counter()
        list(esu_supports(region_neighbourhoods(prism, np.arange(6)), 6,
                          tested))
        with caplog.at_level(logging.DEBUG, logger="loopexp.graphs"):
            enumerate_polymers(prism, 6)
        (record,) = caplog.records
        most = max(tested.values())
        # a state of level k holds 3 + k words: set, extension set, open
        # nodes and one neighbourhood per member
        level = min(k for k, sets in tested.items() if sets == most)
        assert (f"support walk: {max(tested)} levels, largest {most} sets "
                f"of {3 + level} words, " in record.getMessage())


class TestExpansion:
    def test_edge_boundary(self, prism):
        assert edge_boundary(prism, [0, 1, 2]) == 3
        assert edge_boundary(prism, [0]) == 3
        assert edge_boundary(prism, range(6)) == 0

    def test_k4_is_expander(self, k4):
        v = check_edge_expansion(k4, 0.54)
        assert v.mode == "exhaustive"
        assert v.is_expander is True
        assert v.witness is None

    def test_c8_fails_with_witness(self):
        c8 = CheckGraph(8, 2, [(i, (i + 1) % 8) for i in range(8)])
        v = check_edge_expansion(c8, 0.54)
        assert v.is_expander is False
        nodes = list(v.witness)
        assert len(nodes) <= 4
        assert edge_boundary(c8, nodes) < 0.54 * len(nodes)

    def test_disconnected_fast_path(self, two_k4s):
        v = check_edge_expansion(two_k4s, 0.54)
        assert v.mode == "components"
        assert v.is_expander is False
        assert edge_boundary(two_k4s, list(v.witness)) == 0

    def test_exhaustive_matches_bruteforce_verdict(self):
        g = sample_regular_graph(10, 3, 11)
        kappa = 0.54
        worst = min(
            edge_boundary(g, list(nodes)) / len(nodes)
            for r in range(1, 6)
            for nodes in itertools.combinations(range(10), r)
        )
        v = check_edge_expansion(g, kappa)
        assert v.is_expander == (worst >= kappa)

    def test_sampled_mode(self):
        g = sample_regular_graph(24, 3, 7)
        v = check_edge_expansion(g, 0.54, exhaustive_limit=20,
                                 num_samples=2000, seed=0)
        assert v.mode == "sampled"
        assert v.subsets_checked == 2000
        # sampling can only ever certify failure or report no counterexample
        if v.is_expander is False:
            assert edge_boundary(g, list(v.witness)) < 0.54 * len(v.witness)

    @pytest.mark.parametrize("kappa", [0.54, 1.2, 1.25, 1.6])
    def test_sampled_blocks_match_set_by_set_check(self, kappa):
        # at kappa = 1.2 and 1.25 some graphs first violate after several
        # blocks of draws, at 1.6 every graph violates within a few draws
        for s in range(6):
            g = sample_regular_graph(100, 3, [s, 0])
            v = check_edge_expansion(g, kappa, num_samples=4000,
                                     seed=[s, 1])
            assert v.mode == "sampled"
            assert (v.is_expander, v.witness, v.subsets_checked) \
                == sampled_expansion(g, kappa, 4000, [s, 1])
            if kappa == 1.6:
                assert v.is_expander is False

    @pytest.mark.parametrize("n", [8, 200])
    def test_nan_kappa_rejected(self, n):
        # exhaustive (n = 8) and sampled (n = 200): every comparison with
        # nan is False, so nan once certified every graph
        g = sample_regular_graph(n, 3, 1)
        with pytest.raises(ValueError, match="kappa must be a number"):
            check_edge_expansion(g, float("nan"))

    @pytest.mark.parametrize("n", [8, 200])
    def test_negative_kappa_rejected(self, n):
        # exhaustive (n = 8) and sampled (n = 200): every node set meets a
        # negative kappa, so one once certified every graph; kappa = 0
        # still runs
        g = sample_regular_graph(n, 3, 1)
        with pytest.raises(ValueError, match="kappa must be a number >= 0, "
                           "got -1.0$"):
            check_edge_expansion(g, -1.0)
        assert check_edge_expansion(g, 0.0, num_samples=10).witness is None

    @pytest.mark.parametrize("n", [8, 200])
    def test_subset_samples_below_one_rejected(self, n):
        g = sample_regular_graph(n, 3, 1)
        for num_samples in (0, -5):
            with pytest.raises(ValueError,
                               match="num_samples must be at least 1"):
                check_edge_expansion(g, 0.54, num_samples=num_samples)

    def test_nan_kappa_cli_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "verdicts.csv"
        code = cli.main(["expander-check", "-n", "8", "--samples", "2",
                            "--kappa", "nan", "--out", str(out)])
        assert code == 2
        assert "kappa must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_exhaustive_budget_raises_before_scanning(self):
        # 2^25 node sets are over the 2^24 budget; one block of the scan
        # would allocate several MiB
        g = sample_regular_graph(25, 4, 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="check over 25 nodes would "
                               "need 33,554,432 node sets, over the cap of "
                               "16,777,216$"):
                check_edge_expansion(g, 0.54, exhaustive_limit=25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert check_edge_expansion(g, 0.54, exhaustive_limit=24,
                                    num_samples=10).mode == "sampled"
