import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopexp import _elim, _layout
from loopexp._elim import contract, plan_elimination
from loopexp._layout import Rows
from loopexp.channel import sample_bsc
from loopexp.exceptions import BudgetError
from loopexp.graphs import CheckGraph, sample_regular_graph
from loopexp.model import FactorSpec, exact_log_partition

from conftest import single_variable_width, small_hosts, tuples_of


def brute_contract(graph, tables, maximize):
    """The network's value per payload, configuration by configuration:
    each node's row for its local bitmask is folded into a payload
    polynomial that saturates at L - 1, and the polynomials are added, or
    maximised, over all edge assignments."""
    L = tables[0].shape[1]
    acc = max if maximize else (lambda u, v: u + v)
    adjacency = tuples_of(graph).adjacency
    total = np.zeros(L)
    for x in itertools.product((0, 1), repeat=graph.num_edges):
        poly = np.zeros(L)
        poly[0] = 1.0
        for a, adj in enumerate(adjacency):
            row = tables[a][sum(x[e] << k for k, e in enumerate(adj))]
            out = np.zeros(L)
            for i, j in itertools.product(range(L), repeat=2):
                k = min(i + j, L - 1)
                out[k] = acc(out[k], poly[i] * row[j])
            poly = out
        total = np.array([acc(u, v) for u, v in zip(total, poly)])
    return total


class TestContract:
    @given(st.data())
    def test_payloads_match_brute_force(self, data):
        # node payloads span several indices, so products saturate at L - 1
        graph = data.draw(small_hosts())
        L = data.draw(st.integers(1, 4))
        maximize = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tables = []
        for d in graph.layout.deg.tolist():
            reach = data.draw(st.integers(0, L - 1))
            t = rng.uniform(0.0 if maximize else -1.0, 1.0, (1 << d, L))
            t[:, reach + 1:] = 0.0
            tables.append(t)
        offsets = np.concatenate([[0], np.cumsum(1 << graph.layout.deg)])
        vals, log_scale = contract(plan_elimination(graph),
                                   Rows(np.concatenate(tables), offsets),
                                   maximize=maximize)
        assert vals.shape == (L,)
        assert np.allclose(vals * np.exp(log_scale),
                           brute_contract(graph, tables, maximize),
                           rtol=1e-10, atol=1e-12)

    def test_payload_over_budget_raises_before_allocating(self, monkeypatch,
                                                          k4):
        plan = plan_elimination(k4)
        monkeypatch.setattr(_layout, "MAX_ENTRIES", 2 << plan.width)
        values = np.zeros((k4.n * 8, 3))
        values[:, 0] = 1.0
        tables = Rows(values, np.arange(0, 33, 8))
        with pytest.raises(BudgetError, match=rf"2\^{plan.width} x 3 would "
                           rf"need {3 << plan.width:,} entries, over the "
                           rf"cap of {2 << plan.width:,}$"):
            contract(plan, tables)
        vals, log_scale = contract(plan, Rows(values[:, :2], tables.offsets))
        assert vals[0] * np.exp(log_scale) == pytest.approx(64.0)
        assert vals[1] == 0.0

    def test_product_reach_is_the_sum_of_reaches(self):
        # reaches 1 and 3: payloads up to 4, or saturated at the top 3
        # as matrices (2 x 1) and (1 x 3); a cap of one entry walks a's
        # payloads one at a time, a large one takes them in one block
        a, b = np.ones((2, 2, 1)), np.ones((4, 1, 3))
        for top, want in ((7, [1, 2, 2, 2, 1]), (3, [1, 2, 2, 3])):
            for maximize, cap in itertools.product((False, True), (1, 1000)):
                out = _elim._merge(a, b, top, cap, maximize)
                assert out.shape == (len(want), 2, 3)
                assert (out == np.reshape([1] * len(want) if maximize
                                          else want, (-1, 1, 1))).all()

    @given(st.data())
    def test_merge_matches_the_pairwise_products(self, data):
        # every cap, from one payload of a per block to all of them
        pa, pb = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        m, s, n = (data.draw(st.sampled_from((1, 2, 4))) for _ in range(3))
        top = data.draw(st.integers(pa - 1, pa + pb))
        cap = data.draw(st.integers(1, 4 * (pa + pb) * m * s * n))
        maximize = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = rng.uniform(0.0 if maximize else -1.0, 1.0, (pa, m, s))
        b = rng.uniform(0.0 if maximize else -1.0, 1.0, (pb, s, n))
        want = np.zeros((min(pa + pb - 2, top) + 1, m, n))
        for i, j in itertools.product(range(pa), range(pb)):
            k = min(i + j, top)
            if maximize:
                term = np.max(a[i][:, :, None] * b[j][None], axis=1)
                want[k] = np.maximum(want[k], term)
            else:
                want[k] += a[i] @ b[j]
        got = _elim._merge(a, b, top, cap, maximize)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_merge_blocks_stay_within_the_cap(self, maximize):
        # 8 x 8 payload pairs of (64 x 4) @ (4 x 64): all at once they
        # would take 4 to 8 times the cap; in blocks, each temporary fits
        rng = np.random.default_rng(0)
        a, b = rng.random((8, 64, 4)), rng.random((8, 4, 64))
        cap = 8 * 64 * 4 * 64    # Pb x M x S x N, never above 2^width x L
        tracemalloc.start()
        try:
            out = _elim._merge(a, b, 20, cap, maximize)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (15, 64, 64)
        assert peak < 8 * (out.size + 2 * cap)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_payload_heavy_steps_stay_within_the_budget(self, seed):
        # the tail's network at n = 50: widths 15 and 16, payloads up to 26;
        # every step takes all payload pairs at once, in blocks
        g = sample_regular_graph(50, 3, seed)
        plan = plan_elimination(g)
        offsets = np.concatenate([[0], np.cumsum(1 << g.layout.deg)])
        local = np.arange(offsets[-1]) - np.repeat(offsets[:-1],
                                                   np.diff(offsets))
        values = np.zeros((offsets[-1], 26))
        values[np.arange(len(local)), (local > 0).astype(int)] = \
            np.random.default_rng(seed).uniform(0.1, 1.0, len(local))
        tables = Rows(values, offsets)
        tracemalloc.start()
        try:
            contract(plan, tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (1 << plan.width) * 26

    def test_exact_log_z_at_width_24_builds_no_union_table(self):
        # each step multiplies two matrices over the shared edges, and
        # never builds the table over the union of both tables' edges
        g = sample_regular_graph(70, 3, 1)
        assert plan_elimination(g).width == 24
        spec = FactorSpec.cycle_code(sample_bsc(g, 0.3, [1, 1]).h)
        g.elimination_plan    # planned first: the peak is the contraction's
        tracemalloc.start()
        try:
            value = exact_log_partition(g, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak < 16 << 20


class TestPlan:
    @given(small_hosts(max_nodes=9, max_edges=14))
    def test_one_step_per_merge(self, graph):
        # each step merges two tables: a component of k nodes takes k - 1
        plan = plan_elimination(graph)
        assert len(plan.steps) == graph.n - len(graph.components())
        isolated = np.flatnonzero(graph.layout.deg == 0).tolist()
        assert len(plan.finals) == len(graph.components())
        assert set(isolated) <= set(plan.finals)

    @pytest.mark.parametrize("n", [20, 30, 40, 50, 60, 70])
    def test_widths_match_the_single_variable_order(self, n):
        for seed in (1, 2, 3):
            g = sample_regular_graph(n, 3, seed)
            assert len(plan_elimination(g).steps) == n - 1
            assert plan_elimination(g).width == single_variable_width(g)
            # the same host made irregular: node 0 isolated and every
            # seventh edge dropped, so the scopes have 0 to 3 slots
            ends = g.layout.ends
            keep = (ends[:, 0] > 0) & (np.arange(len(ends)) % 7 > 0)
            cut = CheckGraph.from_edges(n, ends[keep])
            assert cut.layout.deg[0] == 0 and not cut.is_regular()
            plan = plan_elimination(cut)
            assert len(plan.steps) == n - len(cut.components())
            assert plan.width == single_variable_width(cut)

    def test_plan_is_kept_with_the_graph(self, prism):
        assert prism.elimination_plan is prism.elimination_plan
        assert prism.elimination_plan == plan_elimination(prism)
