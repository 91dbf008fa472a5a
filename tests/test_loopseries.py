import itertools
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopexp.graphs
from loopexp._elim import contract, plan_elimination
from loopexp._layout import Rows
from loopexp.bounds import activity_bound_violations
from loopexp.bp import MessageSet, bethe_log_partition, solve_fixed_point
from loopexp.channel import sample_bsc
from loopexp.exceptions import BudgetError
from loopexp.graphs import (CheckGraph, enumerate_polymers,
                            sample_regular_graph)
from loopexp import _layout, loopseries
from loopexp.loopseries import (ActivityTable, ExpansionReport,
                                _by_support, _groups, _polynomials,
                                _support_sums,
                                build_expansion_report,
                                convergence_criterion, mayer_expansion,
                                scan_correction, split_report,
                                z_corr_polymer_form)
from loopexp.model import FactorSpec, exact_log_partition

from conftest import (arbitrary_messages, brute_correction,
                      brute_node_activity, brute_polymer_sum, brute_scan,
                      connected_labeled_graphs, dense_mayer_orders,
                      factor_specs, global_polymers, hard_core_polynomials,
                      in_catalog_order,
                      incoming, induced_degrees, local_mask, loop_criterion,
                      loop_node_table, loop_polymer_activities, mixed_host,
                      node_masks, one_subset_activity, pair_criterion,
                      perturbed, ratio_message_update, small_hosts,
                      support_masks, tuples_of)


def spec_for(kind, h, eps=0.1, J=0.05):
    if kind == "cycle-code":
        return FactorSpec.cycle_code(h)
    if kind == "softened-cycle-code":
        return FactorSpec.softened(h, eps)
    return FactorSpec.high_temperature(h, J)


def random_messages(graph, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return MessageSet(eta=rng.normal(0.0, scale, (graph.num_edges, 2)))


class TestNodeActivity:
    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_empty_subset_is_exactly_one(self, prism, kind):
        rng = np.random.default_rng(3)
        spec = spec_for(kind, rng.uniform(-0.4, 0.4, 9))
        msgs = random_messages(prism, 9)
        table = ActivityTable(prism, spec, msgs)
        tg = tuples_of(prism)
        for a in range(prism.n):
            assert table.K[a][local_mask(tg, a, [])] == 1.0

    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_matches_brute_local_sum(self, k4, kind):
        rng = np.random.default_rng(5)
        spec = spec_for(kind, rng.uniform(-0.4, 0.4, 6))
        msgs = random_messages(k4, 11)
        table = ActivityTable(k4, spec, msgs)
        tg = tuples_of(k4)
        for a, inc in enumerate(tg.adjacency):
            for r in range(len(inc) + 1):
                for sub in itertools.combinations(inc, r):
                    want = brute_node_activity(k4, spec, msgs.eta, a, sub)
                    assert table.K[a][local_mask(tg, a, sub)] \
                        == pytest.approx(want, abs=1e-12)

    def test_zero_field_pair_and_triple(self, k4):
        # even-parity uniform measure: pair correlations vanish, the full
        # product is forced to one
        spec = FactorSpec.cycle_code(np.zeros(6))
        msgs = MessageSet.zeros(k4)
        table = ActivityTable(k4, spec, msgs)
        tg = tuples_of(k4)
        for a, inc in enumerate(tg.adjacency):
            for pair in itertools.combinations(inc, 2):
                assert table.K[a][local_mask(tg, a, pair)] == pytest.approx(
                    0.0, abs=1e-15)
            assert table.K[a][local_mask(tg, a, inc)] == pytest.approx(
                1.0, abs=1e-15)

    def test_degree_one_vanishes_at_fixed_point(self, prism):
        real = sample_bsc(prism, 0.45, 21)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec)
        assert msgs.converged
        table = ActivityTable(prism, spec, msgs)
        tg = tuples_of(prism)
        for a, inc in enumerate(tg.adjacency):
            for e in inc:
                assert abs(table.K[a][local_mask(tg, a, [e])]) <= 1e-10


class TestBatchedTable:
    """Tables built per degree class, and activities gathered by array
    indexing, against the per-node and per-polymer loops."""

    def test_one_debug_record_per_table(self, caplog):
        g = mixed_host()
        spec = FactorSpec.cycle_code(np.zeros(g.num_edges))
        with caplog.at_level(logging.DEBUG, logger="loopexp.loopseries"):
            ActivityTable(g, spec, MessageSet.zeros(g))
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(
            "activity table on 7 nodes: 4 degree classes, 4 blocks, ")

    @given(st.data())
    def test_matches_subset_loop(self, data):
        g = data.draw(st.one_of(st.just(mixed_host()), small_hosts()))
        spec = data.draw(factor_specs(g))
        eta = data.draw(arbitrary_messages(g))
        table = ActivityTable(g, spec, MessageSet(eta=eta))
        assert len(table.K) == g.n
        for a in range(g.n):
            want = loop_node_table(g, spec, eta, a)
            assert np.all(np.abs(table.K[a] - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_mixed_degrees_match_subset_loop(self, kind):
        g = mixed_host()
        rng = np.random.default_rng(4)
        spec = spec_for(kind, rng.uniform(-1.0, 1.0, g.num_edges))
        eta = rng.uniform(-1.0, 1.0, (g.num_edges, 2))
        table = ActivityTable(g, spec, MessageSet(eta=eta))
        for a in range(g.n):
            want = loop_node_table(g, spec, eta, a)
            assert np.all(np.abs(table.K[a] - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_first_vanishing_node_is_named(self):
        # as for the Bethe node term: nodes 2..5 fail, node 2 comes last
        g = mixed_host()
        eta = np.zeros((g.num_edges, 2))
        index = tuples_of(g).edge_index
        eta[[index[(2, 3)], index[(4, 5)]]] = np.nan
        spec = FactorSpec.cycle_code(np.zeros(g.num_edges))
        with pytest.raises(ValueError, match="vanished at node 2$"):
            loop_node_table(g, spec, eta, 2)
        with pytest.raises(ValueError, match="vanished at node 2$"):
            ActivityTable(g, spec, MessageSet(eta=eta))

    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_first_non_finite_node_is_named(self, kind):
        # q = 800 on edge (2, 3): exp(800) overflows in the tables of nodes
        # 2 and 3, whose normalizers stay finite; node 2's class comes last
        g = mixed_host()
        eta = np.zeros((g.num_edges, 2))
        eta[tuples_of(g).edge_index[(2, 3)]] = 400.0
        spec = spec_for(kind, np.zeros(g.num_edges))
        with pytest.raises(ValueError, match="not finite at node 2$"):
            ActivityTable(g, spec, MessageSet(eta=eta))

    def test_degree_over_cap_raises_before_allocating(self):
        # the log-factor kernel's budget: a degree-20 node's table costs
        # 20 passes over 2^20 entries, over 2^24
        g = CheckGraph.from_edges(21, [(0, i) for i in range(1, 21)])
        spec = FactorSpec.cycle_code(np.zeros(20))
        msgs = MessageSet.zeros(g)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=(
                    r"node table of degree 20 \(node 0\) would need "
                    r"20,971,520 entry passes, over the cap of "
                    r"16,777,216$")):
                ActivityTable(g, spec, msgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_degree_13_wheel_matches_subset_loop(self, kind):
        # degree 13 is the first the 2^d x 2^d block could not build
        g = CheckGraph.from_edges(14, [(0, i) for i in range(1, 14)]
                                  + [(i, i % 13 + 1) for i in range(1, 14)])
        rng = np.random.default_rng(13)
        spec = spec_for(kind, rng.uniform(-0.5, 0.5, g.num_edges))
        eta = rng.uniform(-0.5, 0.5, (g.num_edges, 2))
        table = ActivityTable(g, spec, MessageSet(eta=eta))
        for a in (0, 1):
            want = loop_node_table(g, spec, eta, a)
            assert np.all(np.abs(table.K[a] - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_degree_19_hub_matches_one_subset_sums(self):
        g = CheckGraph.from_edges(20, [(0, i) for i in range(1, 20)])
        rng = np.random.default_rng(19)
        spec = FactorSpec.softened(rng.uniform(-0.5, 0.5, 19), 0.2)
        eta = rng.uniform(-0.3, 0.3, (19, 2))
        table = ActivityTable(g, spec, MessageSet(eta=eta))
        assert table.K[0][0] == 1.0
        for mask in (1, 1 << 18, 0b1010011, 0x2aaaa, (1 << 19) - 1):
            want = one_subset_activity(g, spec, eta, 0, mask)
            assert abs(table.K[0][mask] - want) <= 1e-12 * max(1.0, abs(want))

    @given(st.data())
    def test_polymer_activities_match_per_polymer_masks(self, data):
        g = data.draw(small_hosts())
        spec = data.draw(factor_specs(g))
        eta = data.draw(arbitrary_messages(g))
        table = ActivityTable(g, spec, MessageSet(eta=eta))
        catalog = enumerate_polymers(g, g.n)
        got = table.polymer_activities(catalog)
        want = loop_polymer_activities(table, catalog)
        assert got.shape == (len(catalog),)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_polymer_activities_on_uncapped_catalog(self):
        g = sample_regular_graph(12, 3, 1)
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.45, 2).h)
        table = ActivityTable(g, spec, solve_fixed_point(g, spec))
        catalog = enumerate_polymers(g, g.n)
        got = table.polymer_activities(catalog)
        want = loop_polymer_activities(table, catalog)
        assert len(got) == 2206
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("g, cap", [
        (sample_regular_graph(2000, 3, 17), 6),
        (CheckGraph.from_edges(13, [(0, i) for i in range(1, 13)]
                               + [(i, i % 12 + 1) for i in range(1, 13)]), 4),
    ], ids=["capped-n2000", "wheel-hub-degree-12"])
    def test_gather_on_region_and_wide_hosts(self, g, cap):
        # a capped catalog of a large host, whose region-local node ids are
        # not the host's, and a hub whose slot masks pass 8 bits: the
        # product over ascending nodes is the oracle's, bit for bit
        rng = np.random.default_rng(4)
        spec = FactorSpec.softened(rng.uniform(-0.5, 0.5, g.num_edges), 0.2)
        table = ActivityTable(g, spec, random_messages(g, 5))
        catalog = enumerate_polymers(g, cap)
        assert len(catalog)
        got = table.polymer_activities(catalog)
        assert np.array_equal(got, loop_polymer_activities(table, catalog))


class TestSubgraphActivity:
    """K(gamma) of single polymers against the brute local sums."""

    def test_product_over_touched_nodes(self, prism):
        rng = np.random.default_rng(8)
        spec = FactorSpec.softened(rng.uniform(-0.3, 0.3, 9), 0.2)
        msgs = random_messages(prism, 2)
        table = ActivityTable(prism, spec, msgs)
        cat = enumerate_polymers(prism, 3)
        rows = [row.tolist() for row in cat.edges]
        tg = tuples_of(prism)
        tri = sorted(tg.edge_index[uv] for uv in [(0, 1), (0, 2), (1, 2)])
        want = 1.0
        for a in (0, 1, 2):
            local = [e for e in tri if e in tg.adjacency[a]]
            want *= brute_node_activity(prism, spec, msgs.eta, a, local)
        got = table.polymer_activities(cat)[rows.index(tri)]
        assert got == pytest.approx(want, rel=1e-12)

    def test_full_k4_at_zero_field(self, k4):
        table = ActivityTable(k4, FactorSpec.cycle_code(np.zeros(6)),
                              MessageSet.zeros(k4))
        cat = enumerate_polymers(k4, 4)
        rows = [row.tolist() for row in cat.edges]
        got = table.polymer_activities(cat)[rows.index(list(range(6)))]
        assert got == pytest.approx(1.0, abs=1e-15)


class TestCorrectionScan:
    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_z_all_matches_brute(self, triangle, k4, kind):
        for g, seed in ((triangle, 1), (k4, 2)):
            rng = np.random.default_rng(seed)
            spec = spec_for(kind, rng.uniform(-0.3, 0.3, g.num_edges))
            msgs = random_messages(g, seed + 10)
            table = ActivityTable(g, spec, msgs)
            scan = scan_correction(g, table)
            assert scan.z_all == pytest.approx(
                brute_correction(g, spec, msgs.eta), rel=1e-11)
            assert scan.num_subsets == 2 ** g.num_edges

    def test_variants_agree_at_fixed_point(self, prism):
        real = sample_bsc(prism, 0.45, 7)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec)
        assert msgs.converged
        scan = scan_correction(prism, ActivityTable(prism, spec, msgs))
        assert abs(scan.z_all - scan.z_loops) <= 1e-9
        assert scan.max_nonloop_abs <= 1e-10

    def test_variants_disagree_off_fixed_point(self, prism):
        real = sample_bsc(prism, 0.45, 7)
        spec = FactorSpec.cycle_code(real.h)
        msgs = perturbed(solve_fixed_point(prism, spec), 0, 1, 0.1, prism)
        scan = scan_correction(prism, ActivityTable(prism, spec, msgs))
        assert abs(scan.z_all - scan.z_loops) > 1e-6
        assert scan.max_nonloop_abs > 1e-4

    def test_zero_field_values(self, triangle, k4):
        for g, want in ((triangle, 2.0), (k4, 2.0)):
            spec = FactorSpec.cycle_code(np.zeros(g.num_edges))
            table = ActivityTable(g, spec, MessageSet.zeros(g))
            assert scan_correction(g, table).z_all == pytest.approx(
                want, abs=1e-13)

    def test_tail_counts_half_or_more_touched(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        table = ActivityTable(k4, spec, MessageSet.zeros(k4))
        scan = scan_correction(k4, table)
        # only the full edge set is active; it touches all four nodes
        assert scan.tail_abs == pytest.approx(1.0, abs=1e-13)

    @given(st.data())
    def test_matches_brute_on_small_hosts(self, data):
        graph = data.draw(small_hosts())
        spec = data.draw(factor_specs(graph))
        eta = data.draw(arbitrary_messages(graph))
        scan = scan_correction(graph, ActivityTable(graph, spec,
                                                    MessageSet(eta=eta)))
        z_loops, tail_abs, max_nonloop_abs = brute_scan(graph, spec, eta)
        assert scan.z_all == pytest.approx(
            brute_correction(graph, spec, eta), rel=1e-10, abs=1e-12)
        assert scan.z_loops == pytest.approx(z_loops, rel=1e-10, abs=1e-12)
        assert scan.tail_abs == pytest.approx(tail_abs, rel=1e-10, abs=1e-12)
        assert scan.max_nonloop_abs == pytest.approx(max_nonloop_abs,
                                                     rel=1e-10, abs=1e-12)
        assert scan.num_subsets == 2 ** graph.num_edges

    @given(st.data())
    def test_flagged_contraction_splits_loops_from_all(self, data):
        # payload 1 of the flagged network holds the subsets with a
        # degree-one node, so payload 0 is z_loops and the two add to z_all
        graph = data.draw(small_hosts())
        spec = data.draw(factor_specs(graph))
        eta = data.draw(arbitrary_messages(graph))
        K = ActivityTable(graph, spec, MessageSet(eta=eta)).K
        local = np.arange(len(K.values)) - np.repeat(K.offsets[:-1],
                                                     np.diff(K.offsets))
        one = np.bitwise_count(local) == 1
        plan = plan_elimination(graph)

        def value(tables):
            vals, log_scale = contract(plan, tables)
            return vals * math.exp(log_scale)

        flagged = value(loopseries._tagged(K.values, K.offsets, one, 2))
        # rounding is relative to the sum of |terms|, not to a sum that
        # may cancel
        scale = 1e-12 * value(Rows(np.abs(K.values), K.offsets))[0]
        assert flagged[0] == pytest.approx(
            value(Rows(np.where(one, 0.0, K.values), K.offsets))[0],
            rel=1e-12, abs=scale)
        assert flagged[0] + flagged[1] == pytest.approx(
            value(K)[0], rel=1e-12, abs=scale)

    def test_width_budget_fails_before_allocating(self):
        # K_10 has only 45 edges, but its elimination width is over budget
        k10 = CheckGraph.from_edges(10, itertools.combinations(range(10), 2))
        table = ActivityTable(k10, FactorSpec.cycle_code(np.zeros(45)),
                              MessageSet.zeros(k10))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=(
                    r"elimination table of 2\^28 x 1 would need 268,435,456 "
                    r"entries, over the cap of 16,777,216$")):
                scan_correction(k10, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPolymerForm:
    def test_empty_catalog_is_one(self, triangle):
        cat = enumerate_polymers(triangle, 2)
        assert len(cat) == 0
        assert z_corr_polymer_form(cat, np.array([])) == 1.0

    def test_k4_zero_field(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        table = ActivityTable(k4, spec, MessageSet.zeros(k4))
        cat = enumerate_polymers(k4, k4.n)
        vals = table.polymer_activities(cat)
        assert z_corr_polymer_form(cat, vals) == pytest.approx(2.0,
                                                               abs=1e-13)

    def test_disconnected_host_factorizes(self, two_triangles):
        spec = FactorSpec.cycle_code(np.zeros(6))
        table = ActivityTable(two_triangles, spec,
                              MessageSet.zeros(two_triangles))
        cat = enumerate_polymers(two_triangles, two_triangles.n)
        vals = table.polymer_activities(cat)
        assert z_corr_polymer_form(cat, vals) == pytest.approx(4.0,
                                                               abs=1e-13)

    @pytest.mark.parametrize("kind", ["cycle-code", "high-temperature"])
    def test_matches_loop_sum_at_fixed_point(self, k4, prism, two_triangles,
                                             kind):
        for g, p, seed in ((k4, 0.45, 1), (prism, 0.48, 2),
                           (two_triangles, 0.45, 3)):
            real = sample_bsc(g, p, seed)
            spec = spec_for(kind, real.h)
            msgs = solve_fixed_point(g, spec)
            if not msgs.converged:
                continue
            table = ActivityTable(g, spec, msgs)
            cat = enumerate_polymers(g, g.n)
            vals = table.polymer_activities(cat)
            loops = scan_correction(g, table).z_loops
            assert z_corr_polymer_form(cat, vals) == pytest.approx(
                loops, abs=1e-10)


class TestMayer:
    def test_connected_graph_counts(self):
        for M, want in ((1, 1), (2, 1), (3, 4), (4, 38), (5, 728)):
            assert len(connected_labeled_graphs(M)) == want

    def test_connected_graphs_are_connected_and_distinct(self):
        graphs = connected_labeled_graphs(4)
        assert len(set(graphs)) == len(graphs)
        for edges in graphs:
            reach = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for a, b in edges:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y not in reach:
                            reach.add(y)
                            frontier.append(y)
            assert reach == {0, 1, 2, 3}

    def test_single_unit_polymer_gives_log_two_series(self, triangle):
        # one polymer with K = 1 self-intersects at every order, so the
        # orders are the alternating harmonic terms of ln 2
        cat = enumerate_polymers(triangle, 3)
        assert len(cat) == 1
        mex = mayer_expansion(cat, np.array([1.0]), M_max=5)
        assert mex.orders == pytest.approx(
            (1.0, -0.5, 1.0 / 3.0, -0.25, 0.2), abs=1e-12)
        assert mex.partial_sums == pytest.approx(
            (1.0, 0.5, 5.0 / 6.0, 7.0 / 12.0, 47.0 / 60.0), abs=1e-12)
        assert mex.total == pytest.approx(47.0 / 60.0, abs=1e-12)

    def test_zero_activities_vanish_at_every_order(self, k4):
        cat = enumerate_polymers(k4, 4)
        mex = mayer_expansion(cat, np.zeros(len(cat)), M_max=5)
        assert mex.orders == (0.0,) * 5
        assert mex.num_polymers == 0

    def test_disjoint_polymers_add_independent_series(self, two_triangles):
        cat = enumerate_polymers(two_triangles, 6)
        assert len(cat) == 2
        k = 0.3
        mex = mayer_expansion(cat, np.array([k, k]), M_max=3)
        want = (2 * k, -k ** 2, 2 * k ** 3 / 3)
        assert mex.orders == pytest.approx(want, abs=1e-13)

    def test_matches_log_polymer_sum_when_small(self, prism):
        real = sample_bsc(prism, 0.48, 12)
        spec = FactorSpec.high_temperature(real.h, 0.05)
        msgs = solve_fixed_point(prism, spec)
        assert msgs.converged
        table = ActivityTable(prism, spec, msgs)
        cat = enumerate_polymers(prism, prism.n)
        vals = table.polymer_activities(cat)
        assert convergence_criterion(cat, vals) < 1
        mex = mayer_expansion(cat, vals, M_max=3)
        want = math.log(z_corr_polymer_form(cat, vals))
        assert mex.total == pytest.approx(want, abs=1e-9)

    def test_order_bounds(self, k4):
        cat = enumerate_polymers(k4, 4)
        vals = np.zeros(len(cat))
        with pytest.raises(ValueError):
            mayer_expansion(cat, vals, M_max=6)
        with pytest.raises(ValueError):
            mayer_expansion(cat, vals, M_max=0)


class TestConvergenceCriterion:
    def test_empty_catalog(self, triangle):
        cat = enumerate_polymers(triangle, 2)
        assert convergence_criterion(cat, np.array([])) == 0.0

    def test_k4_zero_field_full_cap(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        table = ActivityTable(k4, spec, MessageSet.zeros(k4))
        cat = enumerate_polymers(k4, 4)
        vals = table.polymer_activities(cat)
        assert convergence_criterion(cat, vals) == pytest.approx(
            math.exp(4.0), rel=1e-12)

    def test_linear_in_activity_magnitude(self, prism):
        real = sample_bsc(prism, 0.45, 4)
        spec = FactorSpec.softened(real.h, 0.3)
        msgs = solve_fixed_point(prism, spec)
        table = ActivityTable(prism, spec, msgs)
        cat = enumerate_polymers(prism, prism.n)
        vals = table.polymer_activities(cat)
        one = convergence_criterion(cat, vals)
        assert one > 0
        assert convergence_criterion(cat, 2 * vals) == pytest.approx(
            2 * one, rel=1e-12)

    @given(data=st.data())
    def test_matches_per_node_loop(self, data):
        g = data.draw(small_hosts())
        cat = enumerate_polymers(g, data.draw(st.integers(0, g.n)))
        vals = data.draw(signed_activities(len(cat)))
        assert convergence_criterion(cat, vals) == pytest.approx(
            loop_criterion(cat, vals), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n, cap, p", [(12, 12, 0.45), (16, 16, 0.45),
                                           (10_000, 5, 0.3)])
    def test_per_support_sum_matches_pair_sum(self, n, cap, p):
        # the per-support sum against the (polymer, node) pair sum, on
        # catalogs with many polymers per support and on a capped one
        g = sample_regular_graph(n, 3, 1)
        spec = FactorSpec.cycle_code(sample_bsc(g, p, 1).h)
        msgs = solve_fixed_point(g, spec)
        cat = enumerate_polymers(g, cap)
        vals = ActivityTable(g, spec, msgs).polymer_activities(cat)
        assert convergence_criterion(cat, vals) == pytest.approx(
            pair_criterion(cat, vals), rel=1e-12, abs=0.0)


def signed_activities(size):
    """Activities in [-1, 1], exact zeros included."""
    return st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                    min_size=size, max_size=size).map(np.array)


def assert_matches_oracles(cat, vals, M_max):
    """Grouped Mayer orders and polymer form against the per-polymer
    oracles, each to 1e-12 of a bound on the size of its terms."""
    mex = mayer_expansion(cat, vals, M_max=M_max)
    scale = 1.0 + float(np.sum(np.abs(vals)))  # scale^M bounds order M
    want = dense_mayer_orders(cat, vals, M_max)
    for M, (g, w) in enumerate(zip(mex.orders, want), start=1):
        assert abs(g - w) <= 1e-12 * max(abs(w), scale ** M)
    masks = node_masks(cat)
    want = brute_polymer_sum(masks, vals)
    assert abs(z_corr_polymer_form(cat, vals) - want) <= (
        1e-12 * brute_polymer_sum(masks, np.abs(vals)))
    return mex


class TestSupportGrouping:
    """Sums over node supports against the per-polymer oracles."""

    @given(data=st.data())
    def test_mayer_and_polymer_form_match_dense_oracles(self, data):
        g = data.draw(small_hosts(min_nodes=4, min_edges=5))
        cap = data.draw(st.one_of(st.just(g.n), st.integers(0, g.n)))
        cat = enumerate_polymers(g, cap)
        vals = data.draw(signed_activities(len(cat)))
        mex = assert_matches_oracles(cat, vals, data.draw(st.integers(1, 3)))
        masks = node_masks(cat)
        assert mex.num_polymers == np.count_nonzero(vals)
        assert mex.num_supports == len({m for m, v in zip(masks, vals) if v})

    @given(vals=signed_activities(14))
    def test_shared_supports_on_k4(self, vals):
        k4 = CheckGraph(4, 3, list(itertools.combinations(range(4), 2)))
        cat = enumerate_polymers(k4, 4)
        assert len(set(node_masks(cat))) == 5
        assert_matches_oracles(cat, vals, 4)

    def test_k4_through_order_five(self, k4):
        cat = enumerate_polymers(k4, 4)
        vals = np.random.default_rng(5).uniform(-1.0, 1.0, len(cat))
        assert_matches_oracles(cat, vals, 5)

    def test_sampled_host_at_fixed_point(self):
        # 568 polymers on 56 supports in one group, with real activities
        g = sample_regular_graph(10, 3, 1)
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.45, 1).h)
        cat = enumerate_polymers(g, g.n)
        vals = ActivityTable(g, spec, solve_fixed_point(g, spec)
                             ).polymer_activities(cat)
        assert_matches_oracles(cat, vals, 3)

    @given(data=st.data())
    def test_split_report_matches_ungrouped_sums(self, data):
        g = data.draw(small_hosts(min_nodes=4, min_edges=5))
        spec = data.draw(factor_specs(g))
        msgs = MessageSet(eta=data.draw(arbitrary_messages(g)))
        cat = enumerate_polymers(g, data.draw(st.integers(0, g.n)))
        rep = split_report(g, spec, msgs, catalog=cat)
        vals = ActivityTable(g, spec, msgs).polymer_activities(cat)
        masks = node_masks(cat)
        large = [i for i, m in enumerate(masks) if 2 * m.bit_count() >= g.n]
        small = [i for i in range(len(cat)) if i not in large]
        tol = 1e-12 * brute_polymer_sum(masks, np.abs(vals))

        def small_sum(used=0):
            return brute_polymer_sum([masks[i] for i in small], vals[small],
                                     used)

        cond = {i: small_sum(masks[i]) for i in large}
        assert rep.large_ids == tuple(large)
        assert abs(rep.z_small - small_sum()) <= tol
        assert abs(rep.z_polymer_all - brute_polymer_sum(masks, vals)) <= tol
        assert abs(rep.reconstructed - small_sum()
                   - sum(vals[i] * cond[i] for i in large)) <= tol
        assert rep.ratios.keys() == cond.keys()
        for i in large:
            assert abs(rep.ratios[i] * rep.z_small - cond[i]) <= tol
        assert rep.tail_abs == pytest.approx(np.sum(np.abs(vals[large])),
                                             rel=1e-12, abs=0.0)
        assert rep.unique_large == all(
            masks[i] & masks[j] for i, j in itertools.combinations(large, 2))

    def test_disjoint_triangles_factorise(self):
        # 40 node-disjoint triangles: 40 groups of one support each, where
        # a walk over all collections would visit 2^40 of them
        tri = [(0, 1), (0, 2), (1, 2)]
        g = CheckGraph.from_edges(120, [(3 * i + u, 3 * i + v)
                                        for i in range(40) for u, v in tri])
        rng = np.random.default_rng(6)
        spec = FactorSpec.cycle_code(rng.uniform(-1.0, 1.0, g.num_edges))
        msgs = random_messages(g, 7)
        table = ActivityTable(g, spec, msgs)
        cat = enumerate_polymers(g, 3)
        vals = table.polymer_activities(cat)
        assert len(cat) == 40 and np.all(vals != 0.0)
        want = math.prod(1.0 + vals)
        assert z_corr_polymer_form(cat, vals) == pytest.approx(want,
                                                               rel=1e-12)
        rep = split_report(g, spec, msgs, catalog=cat, table=table)
        assert rep.large_ids == ()
        assert rep.z_small == pytest.approx(want, rel=1e-12)
        assert rep.z_polymer_all == pytest.approx(want, rel=1e-12)

    @given(data=st.data())
    def test_support_sums_match_oracle_catalog(self, data):
        # sum K and sum |K| per support against per-polymer sums over the
        # oracle's catalog, grouped by node mask
        g = data.draw(small_hosts(max_nodes=8, max_edges=12))
        cap = data.draw(st.integers(0, g.n))
        cat = enumerate_polymers(g, cap)
        vals = data.draw(signed_activities(len(cat)))
        want = {}
        tg = tuples_of(g)
        for row, v in zip(in_catalog_order(g, global_polymers(g, cap)),
                          vals.tolist()):
            mask = sum(1 << a for a in induced_degrees(tg, row))
            want.setdefault(mask, []).append(v)
        masks = sorted(want)
        assert support_masks(cat) == tuple(masks)
        assert _support_sums(cat, vals) == pytest.approx(
            [math.fsum(want[m]) for m in masks], rel=1e-12, abs=1e-15)
        assert _support_sums(cat, np.abs(vals)) == pytest.approx(
            [math.fsum(map(abs, want[m])) for m in masks], rel=1e-12,
            abs=1e-15)
        live = [m for m in masks if any(want[m])]
        ids, sums = _by_support(cat, vals)
        assert [support_masks(cat)[i] for i in ids.tolist()] == live
        assert sums.tolist() == pytest.approx(
            [math.fsum(want[m]) for m in live], rel=1e-12, abs=1e-15)

    def test_criterion_stays_per_polymer(self, k4, caplog):
        # two opposite activities on the full support cancel in every
        # grouped sum, but each still counts in the criterion
        cat = enumerate_polymers(k4, 4)
        on_full = [i for i, m in enumerate(node_masks(cat)) if m == 0b1111]
        vals = np.zeros(len(cat))
        vals[on_full[:2]] = (0.5, -0.5)
        with caplog.at_level(logging.DEBUG, logger="loopexp.loopseries"):
            mex = mayer_expansion(cat, vals, M_max=3)
        assert "2 polymers on 1 supports" in caplog.text
        assert (mex.num_polymers, mex.num_supports) == (2, 1)
        assert mex.orders == (0.0, 0.0, 0.0)
        assert z_corr_polymer_form(cat, vals) == 1.0
        assert convergence_criterion(cat, vals) == pytest.approx(
            math.exp(4.0), rel=1e-12)

    def test_dense_catalog_refused_by_the_walk(self):
        # the 4,495 triangles of K_31 overlap in one group whose walk would
        # compare far more than MAX_ENTRIES pairs of supports
        k31 = CheckGraph.from_edges(31, itertools.combinations(range(31), 2))
        cat = enumerate_polymers(k31, 3)
        vals = np.ones(len(cat))
        for call in (mayer_expansion, z_corr_polymer_form):
            with pytest.raises(BudgetError, match="pair comparisons"):
                call(cat, vals)

    def test_densest_host_counts_disjoint_triangles(self):
        # K_13, the densest host with an activity table: 1 + 286 + 17,160
        # + 200,200 + 200,200 sets of pairwise disjoint triangles
        k13 = CheckGraph.from_edges(13, itertools.combinations(range(13), 2))
        cat = enumerate_polymers(k13, 3)
        vals = np.ones(len(cat))
        assert z_corr_polymer_form(cat, vals) == 417_847.0
        mex = mayer_expansion(cat, vals, M_max=3)
        want = dense_mayer_orders(cat, vals, 3)
        assert mex.orders == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("call", [
    mayer_expansion, z_corr_polymer_form, convergence_criterion,
    lambda cat, vals: activity_bound_violations(cat, vals, 0.1)],
    ids=["mayer", "polymer_form", "criterion", "bound_violations"])
@pytest.mark.parametrize("delta", [-3, 3])
def test_rejects_activity_length_mismatch(prism, call, delta):
    cat = enumerate_polymers(prism, prism.n)
    with pytest.raises(ValueError, match=f"activities for {len(cat)} polymers"):
        call(cat, np.full(len(cat) + delta, 0.1))


@pytest.mark.parametrize("call", [
    lambda host, spec, table, cat: scan_correction(host, table),
    lambda host, spec, table, cat: ActivityTable(
        host, spec, MessageSet.zeros(host)).polymer_activities(cat),
    lambda host, spec, table, cat: split_report(
        host, spec, MessageSet.zeros(host), catalog=cat),
    lambda host, spec, table, cat: split_report(
        host, spec, MessageSet.zeros(host), table=table),
], ids=["scan", "polymer_activities", "split_catalog", "split_table"])
def test_rejects_table_or_catalog_of_another_host(call):
    # same n and edge count, other edges: the slots would be read silently
    host = sample_regular_graph(10, 3, 1)
    other = sample_regular_graph(10, 3, 2)
    assert not np.array_equal(host.layout.ends, other.layout.ends)
    spec = FactorSpec.cycle_code(sample_bsc(other, 0.3, 3).h)
    table = ActivityTable(other, spec, solve_fixed_point(other, spec))
    with pytest.raises(ValueError, match="another host graph"):
        call(host, spec, table, enumerate_polymers(other, other.n))


@st.composite
def weighted_supports(draw):
    """Up to 12 node sets on at most 9 nodes, repeats allowed, with
    weights in [-2, 2], exact zeros included: one to several groups."""
    n = draw(st.integers(1, 9))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=12))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                            min_size=len(masks), max_size=len(masks)))
    return n, masks, weights


def support_rows(n, masks):
    """The node sets ``masks`` as ascending rows padded with n."""
    rows = [[a for a in range(n) if m >> a & 1] for m in masks]
    K = max(map(len, rows), default=0)
    return np.array([r + [n] * (K - len(r)) for r in rows],
                    dtype=np.int64).reshape(len(masks), K)


class TestHardCoreWalk:
    """The level walk on packed words against the depth-first recursion:
    the same coefficients per group and the same pair comparisons."""

    @given(data=st.data())
    def test_matches_recursion(self, data):
        n, masks, weights = data.draw(weighted_supports())
        top = data.draw(st.sampled_from([None, 1, 2, 3, 4, 5]))
        nodes, w = support_rows(n, masks), np.array(weights)
        c, home = _polynomials(nodes, w, n, top)
        want, compared = hard_core_polynomials(list(zip(masks, weights)),
                                               top)
        # each coefficient to 1e-13 of the sum of its terms' magnitudes
        scale, _ = hard_core_polynomials(
            [(m, abs(v)) for m, v in zip(masks, weights)], top)
        gid, _, _ = _groups(nodes, n)
        groups = [0] * len(c)
        for g, m in zip(gid.tolist(), masks):
            groups[g] |= m
        assert sorted(groups) == sorted(want) and not home.any()
        for row, m in zip(c.tolist(), groups):
            width = max(len(row), len(want[m]))
            pad = [0.0] * width
            for x, y, s in zip(row + pad, want[m] + pad, scale[m] + pad):
                assert abs(x - y) <= 1e-13 * s
            assert row[0] == 1.0 and len(row) >= (top or 0) + 1
        # the budget counts the recursion's comparisons exactly
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_layout, "MAX_ENTRIES", compared)
            _polynomials(nodes, w, n, top)
            if compared:
                patch.setattr(_layout, "MAX_ENTRIES", compared - 1)
                with pytest.raises(BudgetError, match=(
                        f"would need {compared:,} pair comparisons, over the "
                        f"cap of {compared - 1:,}$")):
                    _polynomials(nodes, w, n, top)

    def test_batches_leave_the_sums_alone(self, monkeypatch):
        # levels cut into runs of a few states, walked depth first
        g = sample_regular_graph(14, 3, 2)
        cat = enumerate_polymers(g, g.n)
        vals = np.random.default_rng(2).uniform(-0.5, 0.5, len(cat))
        live, w = _by_support(cat, vals)
        nodes = cat.support_nodes[live]
        want, _ = _polynomials(nodes, w, g.n)
        monkeypatch.setattr(loopseries, "BLOCK_ENTRIES", 6)
        got, _ = _polynomials(nodes, w, g.n)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_parts_walk_apart(self):
        # the same supports as two parts: groups never merge across them,
        # and each part's sums are those of a walk of its own
        n, masks = 6, [0b000111, 0b001100, 0b110000, 0b011000]
        nodes, w = support_rows(n, masks), np.array([0.5, -0.25, 2.0, 1.5])
        alone, _ = _polynomials(nodes, w, n)
        both, home = _polynomials(np.vstack([nodes, nodes]),
                                  np.concatenate([w, w]), n,
                                  part=np.repeat([0, 1], 4), parts=2)
        assert home.tolist() == [0] * len(alone) + [1] * len(alone)
        assert np.array_equal(both, np.vstack([alone, alone]))

    def test_over_budget_group_refused_before_its_rows(self):
        # 6,000 supports on one shared node: one group, whose 6,000 rows
        # of later disjoint supports would take 94 words each (4.5 MiB);
        # its C(6000, 2) comparisons pass the budget before any is built
        G = 6_000
        nodes = np.stack([np.zeros(G, dtype=np.int64),
                          np.arange(1, G + 1)], axis=1)
        w = np.ones(G)
        assert math.comb(G, 2) > _layout.MAX_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="hard-core walk over 6,000 "
                               "supports would need 17,997,000 pair "
                               "comparisons, over the cap of 16,777,216$"):
                _polynomials(nodes, w, G + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_debug_record_counts_the_comparisons(self, caplog):
        masks = [0b0111, 0b1110, 0b1000, 0b0001, 0b0110]
        nodes, w = support_rows(4, masks), np.ones(5)
        _, compared = hard_core_polynomials([(m, 1.0) for m in masks], 3)
        with caplog.at_level(logging.DEBUG, logger="loopexp.loopseries"):
            c, _ = _polynomials(nodes, w, 4, 3)
        assert compared and len(c) == 1
        assert (f"hard-core walk: 5 supports in 1 groups, 3 levels, "
                f"{compared} pair comparisons") in caplog.text

    def test_over_budget_level_refused_before_it_is_built(self,
                                                          monkeypatch):
        # K_13's 286 triangles: the level of 3 disjoint triangles holds
        # 200,200 sets (about 11 MiB of rows); a budget that admits the
        # comparisons of levels 0 and 1 refuses when level 2 would build it
        k13 = CheckGraph.from_edges(13, itertools.combinations(range(13), 2))
        cat = enumerate_polymers(k13, 3)
        masks = support_masks(cat)
        later = [sum(1 for m in masks[j + 1:] if not m & mj)
                 for j, mj in enumerate(masks)]
        first_two = math.comb(len(masks), 2) + sum(math.comb(k, 2)
                                                   for k in later)
        monkeypatch.setattr(_layout, "MAX_ENTRIES", first_two)
        vals = np.ones(len(cat))
        assert len(mayer_expansion(cat, vals, M_max=2).orders) == 2
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="over 286 supports would "
                               "need [0-9,]+ pair comparisons, over the cap "
                               f"of {first_two:,}$"):
                z_corr_polymer_form(cat, vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestSplitReport:
    def test_rejects_catalog_or_table_of_another_host(self, k4, prism):
        spec = FactorSpec.cycle_code(np.zeros(9))
        msgs = MessageSet.zeros(prism)
        with pytest.raises(ValueError, match="host graph"):
            split_report(prism, spec, msgs, catalog=enumerate_polymers(k4, 4))
        table = ActivityTable(k4, FactorSpec.cycle_code(np.zeros(6)),
                              MessageSet.zeros(k4))
        with pytest.raises(ValueError, match="host graph"):
            split_report(prism, spec, msgs, table=table)

    def test_k4_zero_field(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        rep = split_report(k4, spec, MessageSet.zeros(k4))
        assert rep.z_small == 1.0
        assert rep.tail_abs == pytest.approx(1.0, abs=1e-13)
        assert rep.reconstructed == pytest.approx(2.0, abs=1e-13)
        assert rep.z_polymer_all == pytest.approx(2.0, abs=1e-13)
        assert rep.unique_large
        assert not rep.truncated
        # every polymer in K4 touches at least half the nodes
        assert rep.large_ids
        assert all(v == 1.0 for v in rep.ratios.values())

    def test_no_polymers_host(self, path3):
        spec = FactorSpec.high_temperature(np.zeros(2), 0.3)
        rep = split_report(path3, spec, MessageSet.zeros(path3))
        assert rep.z_small == 1.0
        assert rep.tail_abs == 0.0
        assert rep.large_ids == ()
        assert rep.reconstructed == 1.0
        assert rep.z_polymer_all == 1.0

    def test_reconstruction_exact_when_large_unique(self, k4):
        instances = [(k4, 0.48, 1)]
        g10 = sample_regular_graph(10, 3, 1)
        instances.append((g10, 0.48, 101))
        for g, p, seed in instances:
            real = sample_bsc(g, p, seed)
            spec = FactorSpec.cycle_code(real.h)
            msgs = solve_fixed_point(g, spec)
            assert msgs.converged
            rep = split_report(g, spec, msgs)
            assert rep.unique_large
            assert rep.reconstructed == pytest.approx(rep.z_polymer_all,
                                                      rel=1e-12)
            loops = scan_correction(g, ActivityTable(g, spec, msgs)).z_loops
            assert rep.z_polymer_all == pytest.approx(loops, rel=1e-9)

    def test_half_size_tie_breaks_uniqueness(self, prism, caplog):
        # the two triangle faces each touch exactly n/2 nodes and are
        # node-disjoint, so the one-large-polymer reconstruction is only
        # approximate there
        real = sample_bsc(prism, 0.45, 9)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec)
        assert msgs.converged
        with caplog.at_level(logging.WARNING, logger="loopexp.loopseries"):
            rep = split_report(prism, spec, msgs)
        assert not rep.unique_large
        assert 0 < abs(rep.reconstructed - rep.z_polymer_all) < 1e-4
        loops = scan_correction(prism, ActivityTable(prism, spec, msgs)).z_loops
        assert rep.z_polymer_all == pytest.approx(loops, rel=1e-9)

    def test_two_disjoint_large_polymers_flagged(self, two_k4s, caplog):
        spec = FactorSpec.cycle_code(np.zeros(12))
        with caplog.at_level(logging.WARNING, logger="loopexp.loopseries"):
            rep = split_report(two_k4s, spec, MessageSet.zeros(two_k4s))
        assert not rep.unique_large
        assert any("disjoint large polymers" in r.message
                   for r in caplog.records)
        # one-large-polymer reconstruction misses the paired term
        assert rep.z_polymer_all == pytest.approx(4.0, abs=1e-12)
        assert rep.reconstructed == pytest.approx(3.0, abs=1e-12)


class TestExpansionReport:
    def test_full_small_instance(self, prism, tmp_path):
        real = sample_bsc(prism, 0.45, 14)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec)
        assert msgs.converged
        rep = build_expansion_report(prism, spec, msgs,
                                     params={"p": 0.45, "seed": 14})
        assert rep.converged
        assert rep.kind == "cycle-code"
        assert rep.bethe_total == rep.bethe_node - rep.bethe_edge
        assert rep.exact_log_z is not None
        assert rep.identity_residual() <= 1e-9
        assert abs(rep.z_corr_all - rep.z_corr_loops) <= 1e-9
        assert rep.z_corr_polymer == pytest.approx(rep.z_corr_loops,
                                                   abs=1e-10)
        assert rep.max_nonloop_abs <= 1e-10
        assert rep.criterion > 0
        assert len(rep.mayer_orders) == 3
        assert not rep.catalog_truncated
        assert rep.params["p"] == 0.45

        path = tmp_path / "report.json"
        rep.save_json(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["format_version"] == 1
        assert doc["exact_log_z"] == rep.exact_log_z
        assert doc["ln_z_corr"] == rep.ln_z_corr()
        assert doc["identity_residual"] == rep.identity_residual()
        assert doc["mayer_orders"] == list(rep.mayer_orders)

    def test_save_json_writes_the_dumped_text(self, prism, tmp_path,
                                              monkeypatch):
        spec = FactorSpec.cycle_code(sample_bsc(prism, 0.3, 7).h)
        rep = build_expansion_report(prism, spec,
                                     solve_fixed_point(prism, spec))
        writes = []
        real_open = open

        def counting_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(len(text)) or write(text)
            return fh

        monkeypatch.setattr("builtins.open", counting_open)
        path = tmp_path / "report.json"
        rep.save_json(path)
        monkeypatch.undo()
        assert len(writes) == 1
        assert path.read_bytes() == (json.dumps(rep.to_json_dict(), indent=2)
                                     + "\n").encode()

    def test_caps_leave_fields_unset(self, caplog):
        # K_10's elimination width is over budget for both sums; the
        # polymer fields do not depend on it
        k10 = CheckGraph.from_edges(10, itertools.combinations(range(10), 2))
        spec = FactorSpec.cycle_code(np.zeros(k10.num_edges))
        with caplog.at_level(logging.INFO, logger="loopexp.loopseries"):
            rep = build_expansion_report(k10, spec, MessageSet.zeros(k10),
                                         node_cap=3)
        for name in ("exact_log_z", "z_corr_all", "z_corr_loops",
                     "max_nonloop_abs", "tail_abs"):
            assert getattr(rep, name) is None
        assert rep.ln_z_corr() is None
        assert rep.identity_residual() is None
        assert rep.correction_per_node() is None
        assert rep.catalog_size == 120     # the triangles of K_10
        assert rep.z_corr_polymer is not None
        assert rep.criterion is not None
        assert len(rep.mayer_orders) == 3
        refusals = [r.message for r in caplog.records if "2^" in r.message]
        assert len(refusals) == 1
        assert "exact ln Z and correction scan" in refusals[0]

    def test_scan_refused_by_its_payload_alone(self, caplog):
        # n = 60 at width 20: 2^20 fits the budget for ln Z, but not the
        # scan's tail payload of ceil(n/2) + 1 = 31 entries per table
        g = sample_regular_graph(60, 3, 1)
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.45, 2).h)
        msgs = solve_fixed_point(g, spec)
        with caplog.at_level(logging.INFO, logger="loopexp.loopseries"):
            rep = build_expansion_report(g, spec, msgs, node_cap=4)
        assert rep.exact_log_z == exact_log_partition(g, spec)
        assert rep.z_corr_all is None and rep.tail_abs is None
        assert rep.criterion is not None
        assert any("correction scan left unset" in r.message
                   and "x 31 " in r.message for r in caplog.records)
        # the host keeps its plan: a refused scan allocates no table
        table = ActivityTable(g, spec, msgs)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=(
                    r"elimination table of 2\^20 x 31 would need 32,505,856 "
                    r"entries, over the cap of 16,777,216$")):
                scan_correction(g, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_one_plan_per_host(self, monkeypatch):
        calls = []

        def counted(graph):
            calls.append(graph)
            return plan_elimination(graph)

        monkeypatch.setattr(loopexp.graphs, "plan_elimination", counted)
        g = sample_regular_graph(14, 3, 1)
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.45, 2).h)
        rep = build_expansion_report(g, spec, solve_fixed_point(g, spec),
                                     node_cap=3)
        assert rep.identity_residual() < 1e-12
        assert calls == [g]

    def test_report_builds_no_catalog_view(self, monkeypatch):
        # the report reads supports and slot masks only: the edge rows and
        # profiles of its catalog are never built
        built = []

        def record(graph, node_cap):
            built.append(enumerate_polymers(graph, node_cap))
            return built[-1]

        monkeypatch.setattr(loopexp.loopseries, "enumerate_polymers", record)
        g = sample_regular_graph(12, 3, 1)
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.45, 2).h)
        rep = build_expansion_report(g, spec, solve_fixed_point(g, spec))
        (cat,) = built
        assert rep.catalog_size == len(cat) == 2206
        assert "edges" not in vars(cat) and "profiles" not in vars(cat)

    @pytest.mark.parametrize("kwargs, message", [
        ({"mayer_max": 6}, r"mayer_max must lie in 0\.\.5"),
        ({"mayer_max": -2}, r"mayer_max must lie in 0\.\.5"),
        ({"node_cap": -1}, "node_cap must be nonnegative"),
    ], ids=["mayer_6", "mayer_negative", "cap_negative"])
    def test_scalars_checked_before_any_work(self, prism, monkeypatch,
                                             kwargs, message):
        def never(*args):
            raise AssertionError("the report began its work")

        for name in ("bethe_log_partition", "exact_log_partition",
                     "enumerate_polymers"):
            monkeypatch.setattr(loopexp.loopseries, name, never)
        spec = FactorSpec.cycle_code(np.zeros(9))
        with pytest.raises(ValueError, match=message):
            build_expansion_report(prism, spec, MessageSet.zeros(prism),
                                   **kwargs)

    def test_mayer_max_zero_leaves_orders_unset(self, prism):
        spec = FactorSpec.cycle_code(np.full(9, 0.3))
        msgs = solve_fixed_point(prism, spec)
        rep = build_expansion_report(prism, spec, msgs, mayer_max=0)
        assert rep.mayer_orders is None
        assert rep.z_corr_polymer == build_expansion_report(
            prism, spec, msgs).z_corr_polymer

    def test_node_cap_marks_truncation(self, prism):
        spec = FactorSpec.cycle_code(np.zeros(9))
        msgs = solve_fixed_point(prism, spec)
        rep = build_expansion_report(prism, spec, msgs, node_cap=3)
        assert rep.catalog_truncated
        assert rep.catalog_cap == 3

    def test_nonpositive_correction_has_no_log(self):
        rep = ExpansionReport(n=4, d=3, num_edges=6, kind="cycle-code",
                              bethe_node=0.0, bethe_edge=0.0,
                              exact_log_z=0.0, z_corr_all=-0.5)
        assert rep.ln_z_corr() is None
        assert rep.identity_residual() is None
