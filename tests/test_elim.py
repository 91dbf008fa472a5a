import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopexp import _elim
from loopexp._elim import contract, plan_elimination
from loopexp._layout import Rows
from loopexp.exceptions import BudgetError
from loopexp.graphs import sample_regular_graph

from conftest import single_variable_width, small_hosts


def brute_contract(graph, tables, maximize):
    """The network's value per payload, configuration by configuration:
    each node's row for its local bitmask is folded into a payload
    polynomial that saturates at L - 1, and the polynomials are added, or
    maximised, over all edge assignments."""
    L = tables[0].shape[1]
    acc = max if maximize else (lambda u, v: u + v)
    total = np.zeros(L)
    for x in itertools.product((0, 1), repeat=graph.num_edges):
        poly = np.zeros(L)
        poly[0] = 1.0
        for a, adj in enumerate(graph.adjacency):
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
        monkeypatch.setattr(_elim, "MAX_ENTRIES", 2 << plan.width)
        values = np.zeros((len(k4.adjacency) * 8, 3))
        values[:, 0] = 1.0
        tables = Rows(values, np.arange(0, 33, 8))
        with pytest.raises(BudgetError, match=rf"2\^{plan.width} x 3 "):
            contract(plan, tables)
        vals, log_scale = contract(plan, Rows(values[:, :2], tables.offsets))
        assert vals[0] * np.exp(log_scale) == pytest.approx(64.0)
        assert vals[1] == 0.0

    def test_product_reach_is_the_sum_of_reaches(self):
        # reaches 1 and 3: payloads up to 4, or saturated at the top 3
        a, b = np.ones((2, 2)), np.ones((4, 2))
        for top, want in ((7, [1, 2, 2, 2, 1]), (3, [1, 2, 2, 3])):
            for maximize in (False, True):
                out = _elim._combine(a, b, top, maximize)
                assert out[:, 0].tolist() == ([1] * len(want) if maximize
                                              else want)


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

    def test_plan_is_kept_with_the_graph(self, prism):
        assert prism.elimination_plan is prism.elimination_plan
        assert prism.elimination_plan == plan_elimination(prism)
