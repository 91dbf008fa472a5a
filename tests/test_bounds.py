import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopexp import _layout, bounds
from loopexp.bounds import (DegreeProfileVector, _log_activity_bounds,
                            activity_bound,
                            activity_bound_violations,
                            expander_activity_bound, exponent_function,
                            mackay_probability_bound,
                            scan_exponent, subgraph_count_bound,
                            tail_probability_bound)
from loopexp.bp import MessageSet
from loopexp.exceptions import BudgetError
from loopexp.graphs import (CheckGraph, enumerate_polymers,
                            sample_regular_graph)
from loopexp.loopseries import ActivityTable
from loopexp.model import FactorSpec

from conftest import (loop_bound_violations, loop_log_activity_bound,
                      loop_profile_tally, small_hosts, tuples_of)


class TestActivityBound:
    def test_zero_field_with_mid_degrees(self):
        assert activity_bound((1, 2), 0.0) == 0.0

    def test_zero_field_top_degree_only(self):
        assert activity_bound((0, 5), 0.0) == 1.0

    def test_worked_example(self):
        want = (1.0 - 0.0135) ** 2 * 0.11 ** 2
        got = activity_bound((2, 2), 0.1, alpha_d=0.9, alpha_mid=1.1)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(0.0118, abs=5e-5)

    def test_log_mode(self):
        lg = activity_bound((2, 2), 0.1, alpha_d=0.9, alpha_mid=1.1,
                            log=True)
        assert math.exp(lg) == pytest.approx(
            activity_bound((2, 2), 0.1, alpha_d=0.9, alpha_mid=1.1),
            rel=1e-13)

    def test_constant_ranges(self):
        with pytest.raises(ValueError):
            activity_bound((0, 1), 0.1, alpha_d=1.0)
        with pytest.raises(ValueError):
            activity_bound((0, 1), 0.1, alpha_d=0.0)
        with pytest.raises(ValueError):
            activity_bound((0, 1), 0.1, alpha_mid=1.0)
        with pytest.raises(ValueError):
            activity_bound((0, 1), -0.1)
        with pytest.raises(ValueError):
            # top-degree base goes negative
            activity_bound((0, 1), 2.0, alpha_d=0.9)


# the field h includes 0, where every mid-degree factor is 0 ln 0 or -inf
FIELDS = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
ALPHAS = {"alpha_d": st.floats(0.05, 0.95), "alpha_mid": st.floats(1.01, 3.0)}


@pytest.mark.parametrize("h, alpha_d, alpha_mid, message", [
    (math.nan, 0.9, 1.2, "h must be nonnegative, got nan"),
    (-0.1, 0.9, 1.2, "h must be nonnegative, got -0.1"),
    (0.1, math.nan, 1.2, r"alpha_d must lie in \(0, 1\]"),
    (0.1, 0.9, math.nan, "alpha_i must exceed 1"),
], ids=["h-nan", "h-negative", "alpha-d-nan", "alpha-mid-nan"])
def test_one_rule_refuses_the_bound_scalars(k4, monkeypatch, h, alpha_d,
                                            alpha_mid, message):
    # every entry point refuses before it builds a grid or a bound
    def refuse(*args):
        raise AssertionError("bounds built before the scalars were checked")

    monkeypatch.setattr(bounds, "_log_activity_bounds", refuse)
    monkeypatch.setattr(bounds.np, "meshgrid", refuse)
    catalog = enumerate_polymers(k4, 4)
    for call in (
            lambda: activity_bound((0, 1), h, alpha_d, alpha_mid),
            lambda: activity_bound_violations(
                catalog, np.zeros(len(catalog)), h, alpha_d, alpha_mid),
            lambda: exponent_function(DegreeProfileVector(
                (0.0, 1.0), 3, h, alpha_d=alpha_d, alpha_mid=alpha_mid)),
            lambda: scan_exponent(3, h, 0.05, alpha_d=alpha_d,
                                  alpha_mid=alpha_mid)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("profile, message", [
    ((-1, 0), "n_2=-1 "),
    ((1.5, 0), "n_2=1.5 "),
    ((0, math.nan), "n_3=nan "),
    ((3, 2.0), "n_3=2.0 "),
    ((np.int64(3), -2), "n_3=-2 "),
], ids=["negative", "fraction", "nan", "integral-float", "numpy-then-negative"])
def test_one_rule_refuses_a_bad_profile(profile, message):
    # where math once raised a bare domain error or returned a number
    for call in (lambda: activity_bound(profile, 0.1),
                 lambda: mackay_probability_bound(profile, 20, 3),
                 lambda: subgraph_count_bound(profile, 10)):
        with pytest.raises(ValueError, match=re.escape(
                f"profile entry {message}is not a nonnegative integer")):
            call()


class TestBoundArrays:
    """The batched log bound against the scalar bound, row by row."""

    @given(profiles=st.integers(2, 5).flatmap(lambda d: st.lists(
               st.lists(st.integers(0, 8), min_size=d - 1, max_size=d - 1),
               min_size=1, max_size=6)),
           h=FIELDS, **ALPHAS)
    def test_rows_match_scalar_bound(self, profiles, h, alpha_d,
                                     alpha_mid):
        got = _log_activity_bounds(np.array(profiles), h, alpha_d,
                                   alpha_mid).tolist()
        assert got == [activity_bound(p, h, alpha_d, alpha_mid, log=True)
                       for p in profiles]
        assert got == [loop_log_activity_bound(p, h, alpha_d, alpha_mid)
                       for p in profiles]

    @given(data=st.data(), h=FIELDS, **ALPHAS)
    def test_violations_match_polymer_loop(self, data, h, alpha_d,
                                           alpha_mid):
        g = data.draw(small_hosts(max_nodes=7, max_edges=10))
        cat = enumerate_polymers(g, g.n)
        bounds = [activity_bound(p, h, alpha_d, alpha_mid)
                  for p in cat.profiles.tolist()]
        # each activity below, at, just above or well above its bound
        scale = data.draw(st.lists(st.sampled_from(
            [0.0, 0.5, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 2.0]),
            min_size=len(cat), max_size=len(cat)))
        vals = np.array(bounds) * scale * data.draw(st.sampled_from([1, -1]))
        assert activity_bound_violations(
            cat, vals, h, alpha_d=alpha_d, alpha_mid=alpha_mid) \
            == loop_bound_violations(cat, vals, h, alpha_d, alpha_mid)


class TestExpanderActivityBound:
    def test_half_field_is_one(self):
        for size in (1, 7, 50):
            assert expander_activity_bound(size, 0.5) == 1.0

    def test_worked_example(self):
        assert expander_activity_bound(10, 0.05) == pytest.approx(
            0.1 ** 1.8, rel=1e-13)
        assert expander_activity_bound(10, 0.05) == pytest.approx(
            0.015849, abs=5e-7)

    def test_decreasing_in_size(self):
        vals = [expander_activity_bound(s, 0.2) for s in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            expander_activity_bound(5, 0.0)
        with pytest.raises(ValueError):
            expander_activity_bound(5, 0.6)
        with pytest.raises(ValueError):
            expander_activity_bound(-1, 0.2)
        with pytest.raises(ValueError, match="size must be nonnegative, "
                           "got nan"):
            expander_activity_bound(math.nan, 0.1)


class TestMackayBound:
    def test_triangle_worked_example(self):
        want = 6 ** 3 / (2 ** 3 * (12 * 11 * 10))
        got = mackay_probability_bound((3, 0), 20, 3)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.020455, abs=5e-7)

    def test_empty_profile(self):
        assert mackay_probability_bound((0, 0), 20, 3) == 1.0

    def test_validity_condition(self):
        with pytest.raises(ValueError):
            mackay_probability_bound((0, 10), 20, 3)

    def test_profile_length(self):
        with pytest.raises(ValueError):
            mackay_probability_bound((3,), 20, 3)

    def test_log_mode(self):
        lg = mackay_probability_bound((3, 0), 20, 3, log=True)
        assert math.exp(lg) == pytest.approx(
            mackay_probability_bound((3, 0), 20, 3), rel=1e-12)

    def test_monte_carlo_triangle_containment(self):
        # empirical frequency of a fixed triangle inside sampled 3-regular
        # graphs must not exceed the bound by more than sampling noise
        n, trials = 20, 2000
        need = [(0, 1), (1, 2), (0, 2)]
        hits = 0
        for seed in range(trials):
            index = tuples_of(sample_regular_graph(n, 3, seed)).edge_index
            hits += all(e in index for e in need)
        freq = hits / trials
        sigma = math.sqrt(max(freq * (1 - freq), 1e-9) / trials)
        bound = mackay_probability_bound((3, 0), n, 3)
        assert freq - 3 * sigma <= bound


class TestSubgraphCountBound:
    def test_triangle_on_three_nodes(self):
        got = subgraph_count_bound((3,), 3)
        assert got == pytest.approx(1.875, rel=1e-12)
        assert got >= 1.0

    def test_empty_profile(self):
        assert subgraph_count_bound((), 5) == 1.0
        assert subgraph_count_bound((0, 0), 5) == 1.0

    def test_four_cycles_in_k4(self):
        assert subgraph_count_bound((4,), 4) >= 3.0

    def test_too_many_nodes(self):
        with pytest.raises(ValueError):
            subgraph_count_bound((3, 2), 4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_upper_bounds_exhaustive_counts(self, n):
        host = CheckGraph(n, n - 1,
                          list(itertools.combinations(range(n), 2)))
        counts = loop_profile_tally(host)
        assert counts
        for prof, count in counts.items():
            assert subgraph_count_bound(prof, n) >= count


class TestExponentFunction:
    def test_corner_reduces_to_activity_term(self):
        val = exponent_function(
            DegreeProfileVector((0.0, 1.0), 3, 0.1, alpha_d=1.0))
        assert val == pytest.approx(math.log(1 - 1.5 * 0.01), rel=1e-12)
        assert val == pytest.approx(-0.015114, abs=5e-7)

    def test_interior_point_negative(self):
        val = exponent_function(
            DegreeProfileVector((0.2, 0.5), 3, 0.1, n=10 ** 6))
        assert val < 0

    def test_vanishing_field_with_mid_mass_diverges(self):
        val = exponent_function(DegreeProfileVector((0.2, 0.6), 3, 0.0))
        assert math.isinf(val) and val < 0

    def test_simplex_membership(self):
        with pytest.raises(ValueError):
            exponent_function(DegreeProfileVector((0.1, 0.2), 3, 0.1))
        with pytest.raises(ValueError):
            exponent_function(DegreeProfileVector((0.5, 0.7), 3, 0.1))
        with pytest.raises(ValueError):
            exponent_function(DegreeProfileVector((-0.1, 0.8), 3, 0.1))
        with pytest.raises(ValueError):
            DegreeProfileVector((0.1, 0.2, 0.3), 3, 0.1)

    def test_finite_n_requires_room(self):
        with pytest.raises(ValueError):
            exponent_function(DegreeProfileVector((0.0, 1.0), 3, 0.1, n=10))

    @pytest.mark.parametrize("n", [0, -5, 17])
    def test_finite_n_below_the_lightest_profile_refused(self, monkeypatch,
                                                         n):
        # at d = 3 the lightest profile, x_2 = 1/2, needs n >= 4d^2/(d - 1)
        # = 18; n = 0 once divided by zero, and a negative n or one of
        # 13..17 once gave a verdict on a surface with no feasible point
        def refuse(*args):
            raise AssertionError("grid built before n was checked")

        monkeypatch.setattr(bounds, "_exponent_grid", refuse)
        monkeypatch.setattr(bounds.np, "meshgrid", refuse)
        for call in (
                lambda: scan_exponent(3, 0.1, 0.05, n=n),
                lambda: exponent_function(
                    DegreeProfileVector((0.2, 0.8), 3, 0.1, n=n))):
            with pytest.raises(ValueError, match=rf"^n={n} too small: "):
                call()

    def test_smallest_finite_n_keeps_the_lightest_profile(self):
        # n = 18 at d = 3: D = 1/2, so only x_2 = 1/2 is feasible
        scan = scan_exponent(3, 0.1, 0.05, n=18)
        feasible = scan.points[np.isfinite(scan.points[:, -1])]
        assert feasible[:, :-1].tolist() == [[0.5, 0.0]]
        assert scan.argmax == (0.5, 0.0)
        assert scan.max_value == exponent_function(
            DegreeProfileVector((0.5, 0.0), 3, 0.1, n=18))

    def test_stirling_matches_exact_evaluation(self):
        # n * exponent vs the exact log of count * containment * activity,
        # at a fixed interior profile; the gap is o(n)
        x = (0.2, 0.5)
        h = 0.1
        gaps = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            counts = tuple(int(round(xi * n)) for xi in x)
            exact = subgraph_count_bound(counts, n, log=True)
            exact += mackay_probability_bound(counts, n, 3, log=True)
            exact += activity_bound(counts, h, log=True)
            approx = n * exponent_function(
                DegreeProfileVector(x, 3, h, n=n))
            gaps.append(abs(approx - exact) / n)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


class TestScanExponent:
    def test_small_field_corner_maximum(self):
        scan = scan_exponent(3, 0.02, 0.01)
        assert scan.argmax == (0.0, 1.0)
        assert scan.all_negative
        assert scan.max_value == pytest.approx(
            math.log(1 - 0.9 * 1.5 * 0.02 ** 2), rel=1e-10)

    def test_moderate_field_interior_maximum(self):
        # at h=0.1 the entropy term beats the activity penalty near the
        # corner and the maximum moves inside; reported, not asserted away
        scan = scan_exponent(3, 0.1, 0.01, alpha_d=1.0, alpha_mid=1.2)
        assert scan.argmax != (0.0, 1.0)
        assert scan.max_value > 0
        assert not scan.all_negative
        want = exponent_function(
            DegreeProfileVector(scan.argmax, 3, 0.1, alpha_d=1.0,
                                alpha_mid=1.2))
        assert scan.max_value == pytest.approx(want, rel=1e-12)

    def test_zero_field(self):
        scan = scan_exponent(3, 0.0, 0.01)
        assert scan.argmax == (0.0, 1.0)
        assert scan.max_value == 0.0
        assert not scan.all_negative

    def test_large_field_verdict_false(self):
        assert not scan_exponent(3, 0.3, 0.01).all_negative

    def test_grid_step_domain(self):
        with pytest.raises(ValueError):
            scan_exponent(3, 0.1, 0.0)
        with pytest.raises(ValueError):
            scan_exponent(3, 0.1, 0.2)

    def test_grid_over_budget_refused_before_allocating(self):
        # d = 6 at step 0.01: 101^5 points of 5 coordinates
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="exponent grid for d=6 at "
                               "step 0.01 would need 52,550,502,505 entries, "
                               "over the cap of 16,777,216$"):
                scan_exponent(6, 0.1, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_at_the_budget(self, monkeypatch):
        # d = 3 at step 0.1: 11^2 points of 2 coordinates
        monkeypatch.setattr(_layout, "MAX_ENTRIES", 242)
        assert scan_exponent(3, 0.05, 0.1).points.shape[1] == 3
        monkeypatch.setattr(_layout, "MAX_ENTRIES", 241)
        with pytest.raises(BudgetError, match="would need 242 entries, over "
                           "the cap of 241$"):
            scan_exponent(3, 0.05, 0.1)

    def test_csv_output(self, tmp_path):
        scan = scan_exponent(3, 0.05, 0.1)
        path = tmp_path / "scan.csv"
        scan.write_csv(path, meta={"note": "unit"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# note=unit"
        header_idx = next(i for i, ln in enumerate(lines)
                          if not ln.startswith("#"))
        assert lines[header_idx] == "x_2,x_3,exponent"
        data = lines[header_idx + 1:]
        assert len(data) == len(scan.points)
        first = [float(v) for v in data[0].split(",")]
        assert first == [float(v) for v in scan.points[0]]


class TestTailProbabilityBound:
    def test_worked_example(self):
        got = tail_probability_bound(0.01, 0.04, 3, 12, C=1.0, alpha_d=1.0)
        assert got == pytest.approx(100 * math.exp(-0.0288), rel=1e-12)
        assert got == pytest.approx(97.16, abs=5e-3)

    def test_zero_field_is_c_over_delta(self):
        assert tail_probability_bound(0.25, 0.0, 3, 50, C=1.0) == \
            pytest.approx(4.0, rel=1e-13)

    def test_decreasing_in_n(self):
        vals = [tail_probability_bound(0.01, 0.05, 3, n) for n in
                (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_probability_bound(0.0, 0.05, 3, 10)
        with pytest.raises(ValueError):
            tail_probability_bound(0.01, 0.05, 3, 10, C=0.0)
        for args, kwargs, message in [
                ((math.nan, 0.05, 3, 10), {}, "delta and C must be positive"),
                ((0.01, 0.05, 3, 10), {"C": math.nan},
                 "delta and C must be positive"),
                ((0.01, math.nan, 3, 10), {}, "h must be nonnegative, got nan"),
                ((0.01, -0.05, 3, 10), {}, "h must be nonnegative, got -0.05"),
                ((0.01, 0.05, 3, -10), {}, "n must be at least 1, got -10"),
                ((0.01, 0.05, 3, 0), {}, "n must be at least 1, got 0")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                tail_probability_bound(*args, **kwargs)


class TestActivityBoundViolations:
    def test_artificial_violation_detected(self, k4):
        cat = enumerate_polymers(k4, 4)
        h = 0.1
        vals = np.zeros(len(cat))
        target = 0
        bound = activity_bound(cat.profiles[target].tolist(), h)
        vals[target] = 2 * bound
        out = activity_bound_violations(cat, vals, h)
        assert len(out) == 1
        idx, measured, limit = out[0]
        assert idx == target
        assert measured == pytest.approx(2 * bound, rel=1e-12)
        assert limit == pytest.approx(bound, rel=1e-12)

    def test_within_tolerance_not_reported(self, k4):
        cat = enumerate_polymers(k4, 4)
        h = 0.1
        vals = np.array([activity_bound(p, h)
                         for p in cat.profiles.tolist()])
        assert activity_bound_violations(cat, vals, h) == []

    def test_empty_catalog_checks_no_bound(self, k4):
        # h = 1 makes every bound inapplicable, yet nothing is bounded
        cat = enumerate_polymers(k4, 2)
        assert activity_bound_violations(cat, np.array([]), 1.0) == []
        with pytest.raises(ValueError, match="too large"):
            activity_bound_violations(enumerate_polymers(k4, 3),
                                      np.zeros(4), 1.0)

    def test_empty_catalog_checks_its_scalars(self, k4):
        cat = enumerate_polymers(k4, 2)
        with pytest.raises(ValueError, match=r"alpha_d must lie in \(0, 1\)"):
            activity_bound_violations(cat, np.array([]), 0.1, alpha_d=1.0)
        with pytest.raises(ValueError, match="h must be nonnegative"):
            activity_bound_violations(cat, np.array([]), math.nan)

    def test_applicability_matches_the_refusal(self, k4):
        # _bound_applies is False exactly where the violations refuse h
        cat = enumerate_polymers(k4, 3)
        for h in (0.0, 0.5, 0.9, 1.0):
            applies = bounds._bound_applies(h, 3, 0.9, 1.2)
            assert applies == (1 - 0.9 * 1.5 * h * h >= 0)
            if applies:
                activity_bound_violations(cat, np.zeros(len(cat)), h)
            else:
                with pytest.raises(ValueError, match="too large"):
                    activity_bound_violations(cat, np.zeros(len(cat)), h)
        with pytest.raises(ValueError, match="alpha_i must exceed 1"):
            bounds._bound_applies(0.1, 3, 0.9, 0.5)

    def test_sampled_instance_logged_not_asserted(self):
        # empirical constants: violations are returned as data
        from loopexp.bp import solve_fixed_point
        from loopexp.channel import sample_bsc
        g = sample_regular_graph(10, 3, 5)
        real = sample_bsc(g, 0.45, 5)
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(g, spec)
        assert msgs.converged
        table = ActivityTable(g, spec, msgs)
        cat = enumerate_polymers(g, g.n)
        vals = table.polymer_activities(cat)
        h_sup = float(np.max(np.abs(real.h)))
        out = activity_bound_violations(cat, vals, h_sup)
        assert isinstance(out, list)
        for idx, measured, limit in out:
            assert measured > limit
