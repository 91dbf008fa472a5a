import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopexp.model
from loopexp.bp import (MessageSet, bethe_log_partition, bp_sweep,
                        solve_fixed_point)
from loopexp.channel import sample_bsc
from loopexp.exceptions import BudgetError
from loopexp.graphs import CheckGraph, sample_regular_graph
from loopexp.loopseries import ActivityTable
from loopexp.model import (KINDS, FactorSpec, _tilted_tables,
                           exact_log_partition)

from conftest import (arbitrary_messages, brute_log_z,
                      brute_log_z_log_domain, factor_specs, factor_value,
                      incoming, mixed_host, node_factor, small_hosts,
                      tuples_of)


class TestFactorSpec:
    def test_kinds(self):
        assert set(KINDS) == {"cycle-code", "softened-cycle-code",
                              "high-temperature"}

    def test_cycle_code_coupling_is_one(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        assert spec.parity_couplings(k4)[2] == 1.0

    def test_softened_coupling(self, k4):
        spec = FactorSpec.softened(np.zeros(6), 0.1)
        assert spec.parity_couplings(k4)[0] == pytest.approx(0.9, abs=1e-15)

    def test_softening_domain(self):
        with pytest.raises(ValueError):
            FactorSpec.softened(np.zeros(3), -0.1)
        with pytest.raises(ValueError):
            FactorSpec.softened(np.zeros(3), 1.5)

    def test_high_temperature_scalar_broadcast(self, k4):
        spec = FactorSpec.high_temperature(np.zeros(6), 0.05)
        for a in range(4):
            assert spec.parity_couplings(k4)[a] == pytest.approx(
                math.tanh(0.05), abs=1e-15)

    def test_high_temperature_per_node(self, triangle):
        spec = FactorSpec.high_temperature(np.zeros(3), [0.1, 0.2, 0.3])
        assert spec.parity_couplings(triangle)[1] == pytest.approx(
            math.tanh(0.2), abs=1e-15)
        couplings = spec.parity_couplings(triangle)
        assert couplings == pytest.approx(np.tanh([0.1, 0.2, 0.3]), abs=1e-15)

    @pytest.mark.parametrize("make, message", [
        (lambda: FactorSpec.cycle_code([0.1, math.nan, 0.2]),
         r"field h\[1\] = nan is not finite"),
        (lambda: FactorSpec.softened([math.inf, 0.1], 0.1),
         r"field h\[0\] = inf is not finite"),
        (lambda: FactorSpec.high_temperature([0.1, -math.inf], 0.1),
         r"field h\[1\] = -inf is not finite"),
        (lambda: FactorSpec.high_temperature([0.1], math.nan),
         "coupling J is NaN"),
        (lambda: FactorSpec.high_temperature([0.1], [0.2, math.nan]),
         "coupling J is NaN"),
    ], ids=["nan_h", "inf_h", "minus_inf_h", "nan_J", "nan_J_entry"])
    def test_non_finite_entries_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("J", [math.inf, -math.inf])
    def test_infinite_coupling_is_a_hard_parity(self, triangle, J):
        # t = +-1: J = +inf is the cycle code
        spec = FactorSpec.high_temperature(np.full(3, 0.2), J)
        assert spec.parity_couplings(triangle).tolist() == [math.copysign(
            1.0, J)] * 3
        if J > 0:
            assert exact_log_partition(triangle, spec) == exact_log_partition(
                triangle, FactorSpec.cycle_code(np.full(3, 0.2)))

    @pytest.mark.parametrize("entry", [
        lambda g, s: solve_fixed_point(g, s),
        lambda g, s: bp_sweep(g, s, MessageSet.zeros(g)),
        lambda g, s: bethe_log_partition(g, s, MessageSet.zeros(g)),
        lambda g, s: ActivityTable(g, s, MessageSet.zeros(g)),
        lambda g, s: exact_log_partition(g, s),
    ], ids=["solve", "sweep", "bethe", "table", "exact"])
    @pytest.mark.parametrize("spec", [
        FactorSpec.cycle_code(np.full(8, 0.1)),
        FactorSpec.cycle_code(np.full(4, 0.1)),
        FactorSpec.high_temperature(np.zeros(6), [0.1, 0.2, 0.3]),
        FactorSpec.high_temperature(np.zeros(6), [0.1] * 5),
    ], ids=["h_long", "h_short", "J_short", "J_long"])
    def test_length_mismatch_rejected_where_spec_meets_graph(self, k4, entry,
                                                             spec):
        # K4 has 6 edges and 4 nodes
        with pytest.raises(ValueError, match="field vector|J must"):
            entry(k4, spec)


class TestFactorValue:
    def test_even_parity_no_field(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        assert factor_value(spec, k4, 0, [1, 1, 1]) == 1.0
        assert factor_value(spec, k4, 0, [1, -1, -1]) == 1.0

    def test_odd_parity_vanishes(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        assert factor_value(spec, k4, 0, [-1, 1, 1]) == 0.0

    def test_softened_odd_parity(self, k4):
        spec = FactorSpec.softened(np.zeros(6), 0.2)
        assert factor_value(spec, k4, 0, [-1, 1, 1]) == pytest.approx(
            0.1, abs=1e-15)

    def test_field_half_weight(self, triangle):
        h = np.array([0.3, -0.2, 0.5])
        spec = FactorSpec.cycle_code(h)
        # node 0 touches edges 0 and 1; (-1, -1) has even parity
        want = 1.0 * math.exp(0.5 * (0.3 * (-1) + (-0.2) * (-1)))
        assert factor_value(spec, triangle, 0, [-1, -1]) == pytest.approx(
            want, rel=1e-15)

    def test_high_temperature_zero_coupling(self, triangle):
        spec = FactorSpec.high_temperature(np.zeros(3), 0.0)
        assert factor_value(spec, triangle, 0, [1, -1]) == 0.5

    def test_degree_mismatch(self, triangle):
        spec = FactorSpec.cycle_code(np.zeros(3))
        with pytest.raises(ValueError):
            factor_value(spec, triangle, 0, [1, 1, 1])

    @pytest.mark.parametrize("spec", [
        FactorSpec.cycle_code(np.zeros(5)),
        FactorSpec.softened(np.zeros(2), 0.1),
        FactorSpec.high_temperature(np.zeros(3), [0.1, 0.2, 0.3, 0.4]),
        FactorSpec.high_temperature(np.zeros(3), [0.1, 0.2]),
    ], ids=["h_long", "h_short", "J_long", "J_short"])
    def test_spec_must_fit_graph(self, triangle, spec):
        with pytest.raises(ValueError, match="entries|per node"):
            factor_value(spec, triangle, 0, [1, 1])


class TestLogFactorBlocks:
    """The one kernel behind exact ln Z, the Bethe node term and the
    activity table: log factor tables, given tilted as top + ln W."""

    @given(st.data())
    def test_blocks_cover_nodes_and_match_factor_value(self, data):
        g = data.draw(small_hosts())
        spec = data.draw(factor_specs(g))
        eta = data.draw(st.none() | arbitrary_messages(g))
        entries = data.draw(st.integers(8, 64))
        seen = []
        tg = tuples_of(g)
        t = spec.parity_couplings(g)
        with mock.patch.object(loopexp.model, "BLOCK_ENTRIES", entries):
            blocks = list(_tilted_tables(g, spec, eta))
        for d, nodes, top, W in blocks:
            assert 1 <= len(nodes) <= max(1, entries >> d)
            # config-major: one row per local configuration, one column
            # per node of the block
            assert W.shape == (1 << d, len(nodes))
            assert top.shape == (len(nodes),)
            with np.errstate(divide="ignore"):
                L = top + np.log(W)
            for a, row in zip(nodes, L.T):
                eids = tg.adjacency[a]
                assert len(eids) == d
                w = [0.0 if eta is None else incoming(tg, eta, a, e)
                     for e in eids]
                fields = [spec.h[e] for e in eids]
                for s, got in enumerate(row):
                    local = [-1.0 if s >> k & 1 else 1.0 for k in range(d)]
                    want = node_factor(t[a], fields, local) * math.exp(
                        np.dot(local, w))
                    if want == 0.0:
                        assert got == -math.inf
                    assert abs(math.exp(got) - want) <= 1e-14 * want
            seen.extend(nodes)
        assert sorted(seen) == list(range(g.n))

    @pytest.mark.parametrize("host", [
        mixed_host, lambda: sample_regular_graph(50, 3, 5),
        # degree classes {0, 4}, {2} and {1, 3}: columns gathered, not sliced
        lambda: CheckGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4),
                                          (1, 3)])],
        ids=["mixed", "cubic50", "interleaved"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_values_do_not_depend_on_the_block_size(self, host, kind):
        # small blocks split every class of more than one node into
        # several blocks of columns; no value may move by a single bit
        g = host()
        rng = np.random.default_rng(11)
        spec = FactorSpec(kind, rng.uniform(-1.0, 1.0, g.num_edges),
                          eps=0.2, J=0.3 if kind == "high-temperature"
                          else None)
        msgs = MessageSet(eta=rng.uniform(-1.0, 1.0, (g.num_edges, 2)))

        def values():
            return (ActivityTable(g, spec, msgs).K.values,
                    bethe_log_partition(g, spec, msgs).node_term,
                    exact_log_partition(g, spec))

        want = values()
        for entries in (2, 8, 16):
            with mock.patch.object(loopexp.model, "BLOCK_ENTRIES", entries):
                got = values()
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    def test_degree_over_budget_raises_before_allocating(self):
        # a degree-20 node's table costs 20 passes over 2^20 entries, over
        # 2^24
        g = CheckGraph.from_edges(21, [(0, i) for i in range(1, 21)])
        spec = FactorSpec.cycle_code(np.zeros(20))
        msgs = MessageSet.zeros(g)
        for call in (lambda: exact_log_partition(g, spec),
                     lambda: bethe_log_partition(g, spec, msgs)):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError, match=(
                        r"node table of degree 20 \(node 0\) would need "
                        r"20,971,520 entry passes, over the cap of "
                        r"16,777,216$")):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 256 * 1024

    def test_spin_matrix_peak(self):
        # a degree-19 node's spin matrix would be 19 * 2^19 float64, 76
        # MiB; the kernel builds no spin matrix, only the node's table of
        # 2^19 entries, by one doubling pass per slot.  Measured peaks:
        # 8.6 MiB for the Bethe value, 16.1 MiB for exact ln Z and 14.5
        # MiB for the activity table (12.0, 16.1 and 24.0 MiB while the
        # spins were built one chunk of configurations at a time, and 96,
        # 100 and 108 MiB while the whole matrix lived through each degree
        # class).  At degree 12 the table peaks at 0.1 MiB, against 0.9
        # MiB with chunked spins and 193 MiB while it built a 2^d x 2^d
        # block per node.  Each bound is the chunked-spin peak plus 8 MiB
        # of headroom, rounded up to 0.1 MiB.
        def star(degree):
            g = CheckGraph.from_edges(degree + 1,
                                      [(0, i) for i in range(1, degree + 1)])
            spec = FactorSpec.cycle_code(np.linspace(-0.5, 0.5, degree))
            eta = np.linspace(-0.3, 0.3, 2 * degree).reshape(degree, 2)
            return g, spec, MessageSet(eta=eta)

        g, spec, msgs = star(19)
        small = star(12)
        for call, bound in (
                (lambda: exact_log_partition(g, spec), 24.1 * (1 << 20)),
                (lambda: bethe_log_partition(g, spec, msgs), 20.1 * (1 << 20)),
                (lambda: ActivityTable(g, spec, msgs), 32.1 * (1 << 20)),
                (lambda: ActivityTable(*small), 9.0 * (1 << 20))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestExactLogPartition:
    def test_triangle_closed_form(self, triangle):
        # valid configs are all-plus and all-minus
        h = np.array([0.11, -0.07, 0.19])
        spec = FactorSpec.cycle_code(h)
        H = float(np.sum(h))
        want = math.log(math.exp(H) + math.exp(-H))
        assert exact_log_partition(triangle, spec) == pytest.approx(
            want, abs=1e-13)

    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_matches_bruteforce(self, k4, kind):
        rng = np.random.default_rng(4)
        h = rng.uniform(-0.3, 0.3, 6)
        if kind == "cycle-code":
            spec = FactorSpec.cycle_code(h)
        elif kind == "softened-cycle-code":
            spec = FactorSpec.softened(h, 0.15)
        else:
            spec = FactorSpec.high_temperature(h, 0.4)
        assert exact_log_partition(k4, spec) == pytest.approx(
            brute_log_z(k4, spec), abs=1e-12)

    def test_matches_bruteforce_prism_channel(self, prism):
        real = sample_bsc(prism, 0.45, 21)
        spec = FactorSpec.cycle_code(real.h)
        assert exact_log_partition(prism, spec) == pytest.approx(
            brute_log_z(prism, spec), abs=1e-12)

    def test_matches_bruteforce_irregular(self, path3):
        spec = FactorSpec.high_temperature(np.array([0.2, -0.1]), 0.3)
        assert exact_log_partition(path3, spec) == pytest.approx(
            brute_log_z(path3, spec), abs=1e-13)

    def test_cycle_space_dimension_at_p_half(self, k4, c6, two_triangles):
        for g, comps in ((k4, 1), (c6, 1), (two_triangles, 2)):
            spec = FactorSpec.cycle_code(np.zeros(g.num_edges))
            dim = g.num_edges - g.n + comps
            assert exact_log_partition(g, spec) == pytest.approx(
                dim * math.log(2.0), abs=1e-13)

    @given(st.data())
    def test_matches_bruteforce_on_small_hosts(self, data):
        graph = data.draw(small_hosts())
        spec = data.draw(factor_specs(graph))
        assert exact_log_partition(graph, spec) == pytest.approx(
            brute_log_z(graph, spec), abs=1e-12)

    def test_width_budget_fails_before_allocating(self):
        # K_10 has only 45 edges, but its elimination width is over budget
        k10 = CheckGraph.from_edges(10, itertools.combinations(range(10), 2))
        spec = FactorSpec.cycle_code(np.zeros(k10.num_edges))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=(
                    r"elimination table of 2\^28 x 1 would need 268,435,456 "
                    r"entries, over the cap of 16,777,216$")):
                exact_log_partition(k10, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_vanishing_partition_function(self, path3):
        # all-odd-degree demand on a path is unsatisfiable: Z = 0
        spec = FactorSpec.high_temperature(np.zeros(2), -700.0)
        with pytest.raises(ValueError):
            exact_log_partition(path3, spec)

    @pytest.mark.parametrize("kind", ["cycle-code", "high-temperature"])
    def test_large_fields_do_not_overflow(self, prism, kind):
        # h = 300: a node table reaches exp(450), the product of two
        # overflows a float unless each row is shifted by its largest entry
        h = np.full(prism.num_edges, 300.0)
        spec = (FactorSpec.cycle_code(h) if kind == "cycle-code"
                else FactorSpec.high_temperature(h, 0.1))
        assert exact_log_partition(prism, spec) == pytest.approx(
            brute_log_z_log_domain(prism, spec), rel=1e-14)

    def test_large_fields_on_a_cubic_host(self):
        # every other configuration weighs at most exp(-2h) of the all-plus
        # one: ln Z = E h + n ln((1 + t)/2) to double precision
        g = sample_regular_graph(10, 3, 1)
        t = math.tanh(0.1)
        for h in (240.0, 300.0):
            field = np.full(g.num_edges, h)
            assert exact_log_partition(g, FactorSpec.cycle_code(
                field)) == pytest.approx(15 * h, rel=1e-14)
            assert exact_log_partition(g, FactorSpec.high_temperature(
                field, 0.1)) == pytest.approx(
                    15 * h + 10 * math.log((1 + t) / 2), rel=1e-14)

    def test_forbidden_row_vanishes(self):
        # t = tanh(J) = -1 forbids the only configuration of the isolated
        # node 6: its row is all -inf, and each layer refuses it in its
        # own words
        g = mixed_host()
        msgs = MessageSet.zeros(g)
        for J in (-700.0, -math.inf):
            spec = FactorSpec.high_temperature(np.zeros(g.num_edges), J)
            with pytest.raises(ValueError,
                               match="^partition function vanished$"):
                exact_log_partition(g, spec)
            with pytest.raises(ValueError, match="vanished"):
                brute_log_z_log_domain(g, spec)
            with pytest.raises(ValueError,
                               match="^node sum vanished at node 6$"):
                bethe_log_partition(g, spec, msgs)
            with pytest.raises(ValueError, match="^local normalizer "
                               "vanished at node 6$"):
                ActivityTable(g, spec, msgs)

    def test_field_length_validation(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(5))
        with pytest.raises(ValueError):
            exact_log_partition(k4, spec)

    def test_larger_instance_against_bruteforce(self):
        g = sample_regular_graph(8, 3, 2)
        real = sample_bsc(g, 0.48, 5)
        spec = FactorSpec.softened(real.h, 0.05)
        assert exact_log_partition(g, spec) == pytest.approx(
            brute_log_z(g, spec), abs=1e-11)
