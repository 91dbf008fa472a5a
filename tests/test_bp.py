import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopexp import bp
from loopexp.bp import (CLAMP, MessageSet, bethe_log_partition, bp_sweep,
                        read_messages_csv, solve_fixed_point,
                        write_messages_csv)
from loopexp.channel import sample_bsc
from loopexp.exceptions import DivergenceError
from loopexp.graphs import CheckGraph, sample_regular_graph
from loopexp.loopseries import ActivityTable
from loopexp.model import FactorSpec, exact_log_partition

from conftest import (arbitrary_messages, factor_specs,
                      loop_bethe_node_term, loop_raw_sweep, loop_solve,
                      mixed_host, perturbed, ratio_message_update,
                      small_hosts)


def spec_for(kind, h, eps=0.1, J=0.05):
    if kind == "cycle-code":
        return FactorSpec.cycle_code(h)
    if kind == "softened-cycle-code":
        return FactorSpec.softened(h, eps)
    return FactorSpec.high_temperature(h, J)


class TestSweep:
    def test_zero_field_zero_messages_fixed(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        out = bp_sweep(k4, spec, MessageSet.zeros(k4))
        assert np.all(out.eta == 0.0)
        assert out.residual == 0.0

    def test_k4_uniform_single_sweep_value(self, k4):
        spec = FactorSpec.cycle_code(np.full(6, 0.08))
        out = bp_sweep(k4, spec, MessageSet.zeros(k4))
        want = 0.04 + math.atanh(math.tanh(0.04) ** 2)
        assert out.eta == pytest.approx(np.full((6, 2), want), abs=1e-15)
        assert want == pytest.approx(0.041600, abs=5e-6)

    def test_high_temperature_zero_coupling(self, prism):
        rng = np.random.default_rng(0)
        h = rng.uniform(-0.5, 0.5, 9)
        spec = FactorSpec.high_temperature(h, 0.0)
        msgs = MessageSet(eta=rng.normal(0.0, 1.0, (9, 2)))
        out = bp_sweep(prism, spec, msgs)
        assert out.eta == pytest.approx(
            np.column_stack([h / 2, h / 2]), abs=1e-15)

    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_matches_ratio_form_oracle(self, prism, kind):
        # closed-form tanh update vs the ratio-of-sums form, arbitrary eta
        rng = np.random.default_rng(17)
        h = rng.uniform(-0.4, 0.4, prism.num_edges)
        spec = spec_for(kind, h)
        msgs = MessageSet(eta=rng.normal(0.0, 0.6, (prism.num_edges, 2)))
        out = bp_sweep(prism, spec, msgs)
        for e, (u, v) in enumerate(prism.edges):
            want_uv = ratio_message_update(prism, spec, msgs.eta, u, v)
            want_vu = ratio_message_update(prism, spec, msgs.eta, v, u)
            assert out.eta[e, 0] == pytest.approx(want_uv, abs=1e-12)
            assert out.eta[e, 1] == pytest.approx(want_vu, abs=1e-12)

    def test_fresh_graphs_never_see_stale_layouts(self):
        # consecutive same-size graphs tend to recycle the same object
        # address once the previous one is collected; every sweep must
        # still match the ratio oracle computed from its own adjacency
        rng = np.random.default_rng(99)
        for trial in range(30):
            g = sample_regular_graph(8, 3, [99, trial])
            h = rng.uniform(-0.4, 0.4, g.num_edges)
            spec = FactorSpec.cycle_code(h)
            msgs = MessageSet(eta=rng.normal(0.0, 0.5, (g.num_edges, 2)))
            out = bp_sweep(g, spec, msgs)
            for e, (u, v) in enumerate(g.edges):
                want = ratio_message_update(g, spec, msgs.eta, u, v)
                assert out.eta[e, 0] == pytest.approx(want, abs=1e-12)
            del g, out

    def test_damping_interpolates(self, k4):
        spec = FactorSpec.cycle_code(np.full(6, 0.08))
        full = bp_sweep(k4, spec, MessageSet.zeros(k4), damping=0.0)
        half = bp_sweep(k4, spec, MessageSet.zeros(k4), damping=0.5)
        assert half.eta == pytest.approx(0.5 * full.eta, abs=1e-15)
        # undamped residual is reported either way
        assert half.residual == pytest.approx(full.residual, abs=1e-15)

    def test_divergence_raises(self, triangle):
        # degree-2 updates telescope; saturated tanh drives atanh to inf
        spec = FactorSpec.cycle_code(np.full(3, 0.5))
        msgs = MessageSet(eta=np.full((3, 2), 25.0))
        with pytest.raises(DivergenceError):
            bp_sweep(triangle, spec, msgs)


class TestSolveFixedPoint:
    def test_zero_field_immediate(self, k4):
        spec = FactorSpec.cycle_code(np.zeros(6))
        msgs = solve_fixed_point(k4, spec)
        assert msgs.converged
        assert msgs.residual == 0.0
        assert np.all(msgs.eta == 0.0)

    def test_k4_uniform_scalar_oracle(self, k4):
        spec = FactorSpec.cycle_code(np.full(6, 0.08))
        msgs = solve_fixed_point(k4, spec, tol=1e-12)
        assert msgs.converged
        # scalar fixed point of m = 0.04 + atanh(tanh(m + 0.04)^2)
        m = 0.0
        for _ in range(200):
            m = 0.04 + math.atanh(math.tanh(m + 0.04) ** 2)
        assert msgs.eta == pytest.approx(np.full((6, 2), m), abs=1e-10)
        assert m == pytest.approx(0.0476, abs=5e-5)

    def test_further_undamped_sweep_stays(self, prism):
        real = sample_bsc(prism, 0.45, 33)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec, tol=1e-12)
        assert msgs.converged
        after = bp_sweep(prism, spec, msgs, damping=0.0)
        assert np.max(np.abs(after.eta - msgs.eta)) <= 1e-12

    def test_stationarity_of_bethe_value(self, prism):
        real = sample_bsc(prism, 0.48, 11)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec, tol=1e-12)
        assert msgs.converged
        base = bethe_log_partition(prism, spec, msgs).total
        delta = 1e-6
        worst = 0.0
        for a, b in [(0, 1), (4, 1), (2, 5), (5, 3)]:
            for sign in (delta, -delta):
                pert = perturbed(msgs, a, b, sign, prism)
                val = bethe_log_partition(prism, spec, pert).total
                worst = max(worst, abs(val - base))
        assert worst <= 1e-4 * delta

    def test_high_temperature_unique_fixed_point(self):
        g = sample_regular_graph(10, 3, 3)
        rng = np.random.default_rng(14)
        h = rng.uniform(-0.2, 0.2, g.num_edges)
        spec = FactorSpec.high_temperature(h, 0.05)
        tol = 1e-12
        solutions = []
        for k in range(10):
            init = MessageSet(
                eta=np.random.default_rng(k).uniform(-1, 1,
                                                     (g.num_edges, 2)))
            msgs = solve_fixed_point(g, spec, tol=tol, init=init)
            assert msgs.converged
            solutions.append(msgs.eta)
        for other in solutions[1:]:
            assert np.max(np.abs(other - solutions[0])) <= 10 * tol

    def test_ring_with_net_field_diverges(self, triangle):
        # degree-2 updates telescope: eta grows by the cycle field each
        # sweep until tanh saturates exactly and atanh overflows
        spec = FactorSpec.cycle_code(np.full(3, 0.5))
        msgs = solve_fixed_point(triangle, spec)
        assert not msgs.converged
        assert msgs.overflow

    def test_max_sweeps_respected(self, prism):
        real = sample_bsc(prism, 0.45, 2)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec, tol=1e-30, max_sweeps=5)
        assert not msgs.converged
        assert msgs.sweeps == 5

    @pytest.mark.parametrize("damping", [1.0, 1.5, -0.5, math.nan])
    def test_damping_outside_unit_interval_rejected(self, k4, damping):
        # 1.0 never moves a message; 1.5 overflows; both must fail fast
        spec = FactorSpec.cycle_code(np.full(6, 0.08))
        with pytest.raises(ValueError, match="damping"):
            solve_fixed_point(k4, spec, damping=damping)
        with pytest.raises(ValueError, match="damping"):
            bp_sweep(k4, spec, MessageSet.zeros(k4), damping=damping)


@st.composite
def regular_hosts(draw):
    """``sample_regular_graph`` hosts of degree 3, 4 or 5 on 6 to 20 nodes."""
    d = draw(st.sampled_from([3, 4, 5]))
    n = 2 * draw(st.integers(3, 10))
    return sample_regular_graph(n, d, draw(st.integers(0, 1000)))


def assert_same_iterates(graph, got, want):
    """Bit-identical results up to three slots per node; above that the
    leave-one-out product is associated differently, so the messages and
    residual may move by a few ulps while sweeps and flags stay equal."""
    assert got.eta.shape == want.eta.shape
    assert (got.sweeps, got.converged, got.overflow) == (
        want.sweeps, want.converged, want.overflow)
    if graph.layout.dmax <= 3:
        assert np.array_equal(got.eta, want.eta)
        assert got.residual == want.residual
    else:
        ulps = 4 * np.finfo(float).eps
        scale = np.maximum(1.0, np.abs(want.eta))
        assert np.all(np.abs(got.eta - want.eta) <= ulps * scale)
        assert got.residual == pytest.approx(
            want.residual, rel=0.0, abs=ulps * float(np.max(scale, initial=1.0)))


class TestSweepKernel:
    """The slot-major sweep against the edge-order oracle ``loop_solve``."""

    @pytest.mark.parametrize("hosts", [small_hosts, regular_hosts],
                             ids=["irregular", "regular"])
    @given(data=st.data())
    def test_solve_matches_edge_order_oracle(self, hosts, data):
        g = data.draw(hosts())
        spec = data.draw(factor_specs(g))
        init = data.draw(st.none() | arbitrary_messages(g))
        kwargs = dict(tol=1e-12, damping=data.draw(st.sampled_from(
            [0.0, 0.25, 0.5])), max_sweeps=300, init=init)
        assert_same_iterates(g, solve_fixed_point(g, spec, **kwargs),
                             loop_solve(g, spec, **kwargs))

    @pytest.mark.parametrize("hosts", [small_hosts, regular_hosts],
                             ids=["irregular", "regular"])
    @given(data=st.data())
    def test_sweep_matches_edge_order_oracle(self, hosts, data):
        g = data.draw(hosts())
        spec = data.draw(factor_specs(g))
        eta = data.draw(arbitrary_messages(g))
        damping = data.draw(st.sampled_from([0.0, 0.25, 0.5]))
        msgs = MessageSet(eta=eta, sweeps=4)
        try:
            loop_raw_sweep(g, spec, eta.reshape(-1))
        except DivergenceError:
            with pytest.raises(DivergenceError):
                bp_sweep(g, spec, msgs, damping)
            return
        got = bp_sweep(g, spec, msgs, damping)
        # one damped sweep that never meets its tolerance
        want = loop_solve(g, spec, tol=-math.inf, damping=damping,
                          max_sweeps=1, init=eta)
        assert got.sweeps == 5
        assert_same_iterates(g, got, MessageSet(
            eta=want.eta, sweeps=5, residual=want.residual,
            overflow=want.overflow))

    def test_graph_without_edges(self):
        g = CheckGraph.from_edges(3, [])
        spec = FactorSpec.cycle_code(np.zeros(0))
        msgs = solve_fixed_point(g, spec)
        assert (msgs.sweeps, msgs.residual, msgs.converged) == (1, 0.0, True)
        assert msgs.eta.shape == (0, 2)
        assert_same_iterates(g, msgs, loop_solve(g, spec))
        out = bp_sweep(g, spec, msgs)
        assert out.eta.shape == (0, 2) and out.residual == 0.0

    def test_clamp_sets_overflow(self, prism):
        # fields of 70 push every update to 35 + J, past the clamp; the
        # coupling tanh J < 1 keeps the raw update finite
        spec = FactorSpec.high_temperature(np.full(9, 70.0), 0.5)
        msgs = solve_fixed_point(prism, spec, max_sweeps=20)
        assert msgs.overflow and not msgs.converged
        assert np.all(msgs.eta == CLAMP)
        assert_same_iterates(prism, msgs,
                             loop_solve(prism, spec, max_sweeps=20))
        out = bp_sweep(prism, spec, MessageSet.zeros(prism))
        assert out.overflow and np.all(out.eta == CLAMP)
        assert not bp_sweep(prism, FactorSpec.high_temperature(
            np.full(9, 1.0), 0.5), MessageSet.zeros(prism)).overflow

    def test_divergence_stops_at_the_oracle_sweep(self):
        g = sample_regular_graph(40, 3, [3, 0])
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.2, [3, 1]).h)
        msgs = solve_fixed_point(g, spec)
        assert msgs.overflow and not msgs.converged
        assert msgs.sweeps == 2319 and msgs.residual == math.inf
        assert_same_iterates(g, msgs, loop_solve(g, spec))

    def test_restart_from_returned_messages_converges_at_once(self):
        g = sample_regular_graph(100, 3, 5)
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.3, 5).h)
        msgs = solve_fixed_point(g, spec, tol=1e-10)
        assert msgs.converged and msgs.sweeps > 1
        for init in (msgs, msgs.eta, msgs.flat()):
            again = solve_fixed_point(g, spec, tol=1e-10, init=init)
            assert again.converged and again.sweeps == 1
            assert np.array_equal(again.eta, msgs.eta)

    @pytest.mark.parametrize("shape", [(22,), (16,), (12, 2), (11, 2),
                                       (6, 3), (20, 1)])
    def test_wrong_message_shape_rejected(self, prism, shape):
        # the prism has 9 edges: messages are (9, 2) or flat (18,)
        spec = FactorSpec.cycle_code(np.full(9, 0.1))
        eta = np.zeros(shape)
        want = re.escape(f"shape {shape} for a graph with 9 edges: "
                         "expected (9, 2) or (18,)")
        with pytest.raises(ValueError, match=want):
            solve_fixed_point(prism, spec, init=eta)
        msgs = MessageSet(eta=eta)
        with pytest.raises(ValueError, match=want):
            solve_fixed_point(prism, spec, init=msgs)
        with pytest.raises(ValueError, match=want):
            bp_sweep(prism, spec, msgs)
        with pytest.raises(ValueError, match=want):
            bethe_log_partition(prism, spec, msgs)
        with pytest.raises(ValueError, match=want):
            ActivityTable(prism, spec, msgs)

    def test_nan_tol_rejected(self, prism):
        # tol = nan would run to max_sweeps: no residual is <= nan
        spec = FactorSpec.cycle_code(np.full(9, 0.1))
        with pytest.raises(ValueError, match="tol must be a number"):
            solve_fixed_point(prism, spec, tol=math.nan)
        out = solve_fixed_point(prism, spec, tol=-math.inf, max_sweeps=3)
        assert out.sweeps == 3 and not out.converged

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_messages_rejected_by_the_sweep(self, prism, bad):
        spec = FactorSpec.cycle_code(np.full(9, 0.1))
        eta = np.zeros((9, 2))
        eta[4, 1] = bad
        msgs = MessageSet(eta=eta)
        for call in (lambda: solve_fixed_point(prism, spec, init=eta),
                     lambda: solve_fixed_point(prism, spec, init=msgs),
                     lambda: bp_sweep(prism, spec, msgs)):
            with pytest.raises(ValueError, match="message on edge 4 is not "
                               "finite"):
                call()
        # the Bethe value and the activity table still take them
        if math.isnan(bad):
            with pytest.raises(ValueError, match="vanished at node"):
                bethe_log_partition(prism, spec, msgs)
            with pytest.raises(ValueError, match="vanished at node"):
                ActivityTable(prism, spec, msgs)

    def test_one_debug_record_per_solve(self, prism, caplog):
        spec = FactorSpec.cycle_code(sample_bsc(prism, 0.45, 3).h)
        with caplog.at_level(logging.DEBUG, logger="loopexp.bp"):
            msgs = solve_fixed_point(prism, spec)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(
            f"BP on 6 nodes: {msgs.sweeps} sweeps, residual "
            f"{msgs.residual:.3g}, converged True, overflow False, ")

    def test_no_timing_without_debug(self, prism, caplog, monkeypatch):
        def clock():
            raise AssertionError("clock read with DEBUG off")

        monkeypatch.setattr(bp, "time", SimpleNamespace(perf_counter=clock))
        spec = FactorSpec.cycle_code(sample_bsc(prism, 0.45, 3).h)
        with caplog.at_level(logging.INFO, logger="loopexp.bp"):
            assert solve_fixed_point(prism, spec).converged
        assert not caplog.records


class TestBetheValue:
    def test_edge_term_at_zero_messages(self, prism):
        spec = FactorSpec.cycle_code(np.zeros(9))
        bv = bethe_log_partition(prism, spec, MessageSet.zeros(prism))
        assert bv.edge_term == pytest.approx(9 * math.log(2.0), abs=1e-13)

    def test_cycle_code_zero_field_closed_form(self, k4, prism):
        for g in (k4, prism):
            spec = FactorSpec.cycle_code(np.zeros(g.num_edges))
            bv = bethe_log_partition(g, spec, MessageSet.zeros(g))
            n, d = g.n, g.d
            want = (n * d / 2 - n) * math.log(2.0)
            assert bv.total == pytest.approx(want, abs=1e-12)
            assert bv.node_term == pytest.approx(
                n * (d - 1) * math.log(2.0), abs=1e-12)

    def test_total_is_node_minus_edge(self, k4):
        real = sample_bsc(k4, 0.45, 5)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(k4, spec)
        bv = bethe_log_partition(k4, spec, msgs)
        assert bv.total == bv.node_term - bv.edge_term

    def test_factorized_model_is_bethe_exact(self, prism):
        # zero coupling: Bethe at the h/2 fixed point equals exact ln Z
        rng = np.random.default_rng(6)
        h = rng.uniform(-0.4, 0.4, 9)
        spec = FactorSpec.high_temperature(h, 0.0)
        msgs = solve_fixed_point(prism, spec)
        assert msgs.converged
        bv = bethe_log_partition(prism, spec, msgs)
        want = exact_log_partition(prism, spec)
        assert bv.total == pytest.approx(want, abs=1e-12)

    def test_relabeling_invariance(self, prism):
        real = sample_bsc(prism, 0.45, 8)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec)
        base = bethe_log_partition(prism, spec, msgs).total

        perm = [3, 5, 0, 2, 4, 1]
        edges2 = [tuple(sorted((perm[u], perm[v]))) for u, v in prism.edges]
        g2 = CheckGraph(6, 3, edges2)
        h2 = np.empty(9)
        for e, (u, v) in enumerate(prism.edges):
            h2[g2.edge_index[tuple(sorted((perm[u], perm[v])))]] = real.h[e]
        spec2 = FactorSpec.cycle_code(h2)
        msgs2 = solve_fixed_point(g2, spec2)
        assert bethe_log_partition(g2, spec2, msgs2).total == pytest.approx(
            base, abs=1e-10)


class TestBatchedBethe:
    """The node term, batched per degree class, against the node loop."""

    @given(st.data())
    def test_matches_node_loop(self, data):
        g = data.draw(st.one_of(st.just(mixed_host()), small_hosts()))
        spec = data.draw(factor_specs(g))
        eta = data.draw(arbitrary_messages(g))
        got = bethe_log_partition(g, spec, MessageSet(eta=eta)).node_term
        want = loop_bethe_node_term(g, spec, eta)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("kind", ["cycle-code", "softened-cycle-code",
                                      "high-temperature"])
    def test_mixed_degrees_match_node_loop(self, kind):
        # degrees 0 to 3 on one host, so every class runs
        g = mixed_host()
        rng = np.random.default_rng(4)
        spec = spec_for(kind, rng.uniform(-1.0, 1.0, g.num_edges))
        eta = rng.uniform(-1.0, 1.0, (g.num_edges, 2))
        got = bethe_log_partition(g, spec, MessageSet(eta=eta)).node_term
        want = loop_bethe_node_term(g, spec, eta)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("kind, want", [
        ("cycle-code", 4001.098612288668),
        ("softened-cycle-code", 4796.850387843284),
        ("high-temperature", 4797.6500481980565)])
    def test_extreme_messages_match_node_loop(self, k4, kind, want):
        # messages of +-400: exp overflows unless the shift is taken over
        # the configurations the factor allows, and forbidden ones stay at
        # weight 0 rather than inf * 0
        spec = spec_for(kind, np.zeros(6), eps=0.1, J=0.3)
        eta = np.full((6, 2), 400.0)
        eta[0, 0] = -400.0
        got = bethe_log_partition(k4, spec, MessageSet(eta=eta)).node_term
        assert got == pytest.approx(loop_bethe_node_term(k4, spec, eta),
                                    rel=1e-12)
        assert got == pytest.approx(want, rel=1e-12)

    def test_first_vanishing_node_is_named(self):
        # nan messages on edges (2, 3) and (4, 5): nodes 2..5 fail, and the
        # lowest of them has the highest degree, so its class comes last
        g = mixed_host()
        eta = np.zeros((g.num_edges, 2))
        eta[[g.edge_index[(2, 3)], g.edge_index[(4, 5)]]] = np.nan
        spec = FactorSpec.cycle_code(np.zeros(g.num_edges))
        with pytest.raises(ValueError, match="vanished at node 2$"):
            loop_bethe_node_term(g, spec, eta)
        with pytest.raises(ValueError, match="vanished at node 2$"):
            bethe_log_partition(g, spec, MessageSet(eta=eta))


class TestMessageCSV:
    def test_round_trip(self, tmp_path, prism):
        real = sample_bsc(prism, 0.45, 4)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(prism, spec)
        path = tmp_path / "messages.csv"
        write_messages_csv(prism, msgs, path)
        back = read_messages_csv(prism, path)
        assert np.array_equal(back.eta, msgs.eta)
        assert back.converged == msgs.converged
        assert back.sweeps == msgs.sweeps
        assert back.residual == msgs.residual

    def test_missing_edge_rejected(self, tmp_path, prism, k4):
        msgs = solve_fixed_point(
            k4, FactorSpec.cycle_code(np.zeros(6)))
        path = tmp_path / "messages.csv"
        write_messages_csv(k4, msgs, path)
        with pytest.raises(ValueError):
            read_messages_csv(prism, path)

    def test_no_header_row_rejected(self, tmp_path, k4):
        path = tmp_path / "messages.csv"
        path.write_text("# sweeps=3\n")
        with pytest.raises(ValueError, match="expected header a,b,eta"):
            read_messages_csv(k4, path)

    def test_headerless_rows_rejected(self, tmp_path, k4):
        # without the header check the first row would be dropped silently
        path = tmp_path / "messages.csv"
        write_messages_csv(k4, MessageSet.zeros(k4), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(ln for ln in lines if ln != "a,b,eta"))
        with pytest.raises(ValueError, match="expected header a,b,eta"):
            read_messages_csv(k4, path)

    def test_repeated_directed_edge_rejected(self, tmp_path, k4):
        path = tmp_path / "messages.csv"
        write_messages_csv(k4, MessageSet.zeros(k4), path)
        with open(path, "a") as fh:
            fh.write("0,1,9.9\n")
        with pytest.raises(ValueError, match="0->1 repeated"):
            read_messages_csv(k4, path)
