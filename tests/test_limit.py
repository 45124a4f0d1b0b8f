"""Limit curves, inversions, joint measure, and sales-share functionals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankflow.dist import SalesRateDistribution, laplace_transform
from rankflow.limit import (
    _pareto_y_grid,
    _sales_flow,
    DivergenceError,
    SalesShareReport,
    build_share_report,
    invert_y_c,
    nonstationary_joint_cdf,
    sales_share_potential,
    sales_share_ranking,
    stationary_joint_cdf,
    y_c,
)
from rankflow.oracle import q_quad, ranking_share_quad

LOW_A, LOW_B = 3.939e-4, 0.6312


def low2():
    return SalesRateDistribution.pareto(LOW_A, LOW_B)


class TestCurve:
    def test_starts_at_zero(self):
        assert y_c(low2(), 0.0) == 0.0

    def test_two_point_empirical(self):
        d = SalesRateDistribution.empirical([0.5, 2.0])
        expected = 1.0 - 0.5 * (math.exp(-0.5) + math.exp(-2.0))
        assert y_c(d, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_concave_and_tangential_for_b_below_one(self):
        # short times rise like t^b, so the difference quotient blows up at 0
        d = low2()
        ts = np.linspace(1.0, 1900.0, 80)
        ys = y_c(d, ts)
        assert np.all(np.diff(ys) > 0.0)
        assert np.all(np.diff(ys, 2) < 0.0)
        assert y_c(d, 1e-6) / 1e-6 > y_c(d, 1.0) / 1.0 * 10.0

    def test_saturates_towards_one(self):
        assert y_c(low2(), 1e7) > 0.999

    def test_rejects_nan_time(self):
        for bad in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError):
                y_c(low2(), bad)


class TestShortTime:
    def test_agreement_sweep(self):
        # the curve approaches its small-t asymptote (a t)^b Gamma(1-b); the
        # leading relative correction is q^(1-b) / Gamma(1-b) for b = 0.5,
        # about 1.8e-2 at q = 1e-3 and shrinking like sqrt(q)
        d = SalesRateDistribution.pareto(1.0, 0.5)
        for at in 10.0 ** np.linspace(-6, -4, 9):
            full = y_c(d, at)
            assert abs(at ** 0.5 * math.gamma(0.5) - full) <= 0.01 * full
        full = y_c(d, 1e-3)
        assert abs(1e-3 ** 0.5 * math.gamma(0.5) - full) <= 0.02 * full


class TestInversion:
    def test_zero(self):
        assert invert_y_c(low2(), 0.0) == 0.0

    def test_diverges_at_one(self):
        with pytest.raises(ValueError):
            invert_y_c(low2(), 1.0)

    def test_half_crossing_frozen_oracle_value(self):
        # root of the b = 0.5 curve at level 0.5, from the independent
        # Brent-on-quadrature route
        d = SalesRateDistribution.pareto(1.0, 0.5)
        assert invert_y_c(d, 0.5) == pytest.approx(0.122309254976997466, rel=1e-10, abs=0.0)

    def test_q_frozen_oracle_value_b_above_one(self):
        d = SalesRateDistribution.pareto(1.0, 1.2)
        q = d.a * invert_y_c(d, 0.5)
        assert q == pytest.approx(0.308677051629779898, rel=1e-10, abs=0.0)
        assert q == pytest.approx(q_quad(1.2, 0.5), rel=1e-9, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(1e-3, 1e3), b=st.floats(0.15, 1.9).filter(
        lambda b: abs(b - 1.0) >= 1e-3))
    def test_round_trip(self, t, b):
        # a t <= 10: past that, y = 1 - L loses the time resolution in
        # double precision that a 1e-8 relative round trip requires
        d = SalesRateDistribution.pareto(0.01, b)
        t_back = invert_y_c(d, y_c(d, t))
        assert t_back == pytest.approx(t, rel=1e-8, abs=0.0)

    def test_round_trip_full_time_range(self):
        d = low2()
        for t in 10.0 ** np.linspace(-3, 4, 15):
            assert invert_y_c(d, y_c(d, t)) == pytest.approx(t, rel=1e-8, abs=0.0)

    def test_inverse_consistency_grid(self):
        d = low2()
        for y in np.arange(0.01, 1.0, 0.01):
            assert y_c(d, invert_y_c(d, y)) == pytest.approx(y, abs=1e-12)

    def test_subnormal_crossing_times_terminate(self, monkeypatch):
        # at a = 1e290 these levels cross at subnormal t, where a few ulps of t
        # are below the spacing of doubles; bisection used to spin there forever.
        # One curve call per step: at most one step per binary exponent of a
        # double, then a bisection to a few ulps
        fi = np.finfo(float)
        bound = (fi.maxexp - fi.minexp + fi.nmant) + 64
        calls = []

        def counted(dist, t):
            calls.append(1)
            if len(calls) > bound:
                raise AssertionError(f"more than {bound} curve calls")
            return y_c(dist, t)

        monkeypatch.setattr("rankflow.limit.y_c", counted)
        d = SalesRateDistribution.pareto(1e290, 0.1)
        ys = np.array([0.01, 0.02, 0.5])
        t = invert_y_c(d, ys)
        assert t[0] < fi.tiny and np.all(t > 0.0)
        np.testing.assert_allclose(y_c(d, t), ys, rtol=1e-12, atol=0.0)

    def test_q_monotone(self):
        d = SalesRateDistribution.pareto(1.0, 1.2)
        qs = [d.a * invert_y_c(d, r) for r in np.arange(0.01, 1.0, 0.01)]
        assert all(b > a for a, b in zip(qs, qs[1:]))


class TestPotentialShare:
    def test_b2_head_share(self):
        d = SalesRateDistribution.pareto(1.0, 2.0)
        ratio = sales_share_potential(d, 0.0, 0.2) / sales_share_potential(d, 0.0, 1.0)
        assert ratio == pytest.approx(math.sqrt(0.2), abs=1e-9)

    @pytest.mark.parametrize("b,expected", [(1.2, 0.235), (1.15, 0.189)])
    def test_twenty_eighty_tail(self, b, expected):
        d = SalesRateDistribution.pareto(1.0, b)
        v = sales_share_potential(d, 0.2, 1.0) / sales_share_potential(d, 0.0, 1.0)
        assert v == pytest.approx(expected, abs=5e-3)

    def test_head_divergence_below_one(self):
        with pytest.raises(DivergenceError):
            sales_share_potential(low2(), 0.0, 0.5)

    def test_band_beyond_double_range_is_a_value_error(self):
        # (r1 + gamma)^((b - 1)/b) = 1e380 raised a bare OverflowError
        with pytest.raises(ValueError, match=r"band \[1e-20, 1\].*b = 0\.05"):
            sales_share_potential(SalesRateDistribution.pareto(1.0, 0.05), 1e-20, 1.0)

    def test_cutoff_head_is_finite(self):
        d = SalesRateDistribution.pareto_cutoff(LOW_A, LOW_B, 1e-3)
        total = sales_share_potential(d, 0.0, 1.0)
        assert math.isfinite(total) and total > 0.0
        assert total == pytest.approx(d.mean_rate(), rel=1e-12, abs=0.0)

    def test_cutoff_total_scales_like_gamma_power(self):
        # the total depends on the cutoff even when the curve does not
        b = LOW_B
        t3 = sales_share_potential(SalesRateDistribution.pareto_cutoff(1.0, b, 1e-3), 0.0, 1.0)
        t4 = sales_share_potential(SalesRateDistribution.pareto_cutoff(1.0, b, 1e-4), 0.0, 1.0)
        assert t4 / t3 == pytest.approx(10.0 ** ((1.0 - b) / b), rel=0.05, abs=0.0)

    def test_empirical_partial_sums(self):
        d = SalesRateDistribution.empirical([4.0, 1.0, 3.0, 2.0])
        assert sales_share_potential(d, 0.0, 0.5) == pytest.approx((4.0 + 3.0) / 4.0)
        assert sales_share_potential(d, 0.5, 1.0) == pytest.approx((2.0 + 1.0) / 4.0)


class TestRankingShare:
    def test_total_equals_potential_total_above_one(self):
        for b in [1.15, 1.2, 1.5]:
            d = SalesRateDistribution.pareto(2.0, b)
            expected = 2.0 * b / (b - 1.0)
            assert sales_share_ranking(d, 0.0, 1.0) == pytest.approx(expected, abs=1e-9)
            assert sales_share_potential(d, 0.0, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_matches_quadrature_oracle(self):
        for b, r in [(1.2, 0.3), (0.6312, 0.2), (1.5, 0.0)]:
            d = SalesRateDistribution.pareto(2.0, b)
            ref, err = ranking_share_quad(2.0, b, r, 1.0)
            got = sales_share_ranking(d, r, 1.0)
            assert abs(got - ref) <= max(1e-8 * ref, 3.0 * err)

    def test_additivity(self):
        d = SalesRateDistribution.pareto(0.5, 1.3)
        whole = sales_share_ranking(d, 0.1, 0.7)
        parts = sales_share_ranking(d, 0.1, 0.4) + sales_share_ranking(d, 0.4, 0.7)
        assert whole == pytest.approx(parts, abs=1e-10 * max(1.0, whole))
        whole_p = sales_share_potential(d, 0.1, 0.7)
        parts_p = sales_share_potential(d, 0.1, 0.4) + sales_share_potential(d, 0.4, 0.7)
        assert whole_p == pytest.approx(parts_p, abs=1e-10 * max(1.0, whole_p))

    def test_ranking_tail_dominates_potential_tail(self):
        for b in [0.6312, 1.2]:
            d = SalesRateDistribution.pareto(1.0, b)
            for r in np.arange(0.05, 1.0, 0.05):
                assert sales_share_ranking(d, r, 1.0) >= sales_share_potential(d, r, 1.0)

    def test_branch_continuity_across_one(self):
        eps = 1e-4
        lo = SalesRateDistribution.pareto(1.0, 1.0 - eps)
        hi = SalesRateDistribution.pareto(1.0, 1.0 + eps)
        for t in [0.05, 0.4, 2.0]:
            assert y_c(lo, t) == pytest.approx(y_c(hi, t), rel=1e-2, abs=0.0)
        for r in [0.2, 0.6]:
            assert sales_share_ranking(lo, r, 1.0) == pytest.approx(
                sales_share_ranking(hi, r, 1.0), rel=1e-2, abs=0.0)

    def test_empirical_route(self):
        d = SalesRateDistribution.empirical([0.5, 1.0, 2.0, 4.0])
        total = sales_share_ranking(d, 0.0, 1.0)
        assert total == pytest.approx(np.mean([0.5, 1.0, 2.0, 4.0]), rel=1e-12, abs=0.0)

    def test_cutoff_matches_quadrature(self):
        g = 1e-2
        d = SalesRateDistribution.pareto_cutoff(2.0, 0.6312, g)
        for r in [0.0, 0.3]:
            ref, err = ranking_share_quad(2.0, 0.6312, r, 1.0, gamma=g)
            got = sales_share_ranking(d, r, 1.0)
            assert abs(got - ref) <= max(1e-6 * ref, 5.0 * err)


class TestJointMeasure:
    def test_full_band_marginal_is_exactly_y(self):
        d = SalesRateDistribution.pareto(1.0, 1.5)
        for y in [0.1, 0.37, 0.9]:
            assert stationary_joint_cdf(d, y, 1e-300, math.inf) == y
        assert stationary_joint_cdf(d, 0.0, 0.5, 2.0) == 0.0

    def test_band_value_frozen_oracle(self):
        d = SalesRateDistribution.pareto(1.0, 1.5)
        got = stationary_joint_cdf(d, 0.3, 1.0, 2.0)
        assert got == pytest.approx(0.130664586376756131, rel=1e-9, abs=0.0)

    def test_stationary_domain_errors(self):
        d = SalesRateDistribution.pareto(1.0, 1.5)
        with pytest.raises(ValueError):
            stationary_joint_cdf(d, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            stationary_joint_cdf(d, 0.5, 0.0, 2.0)
        # NaN reached the full-support shortcut of both joint CDFs, which
        # share the check of (y, w_lo, w_hi), and came back as the answer
        for bad in [(math.nan, 1.0, math.inf), (0.5, math.nan, 2.0), (0.5, 1.0, math.nan)]:
            with pytest.raises(ValueError):
                stationary_joint_cdf(d, *bad)
            with pytest.raises(ValueError):
                nonstationary_joint_cdf(d, *bad, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            nonstationary_joint_cdf(d, 0.9, 1.0, 2.0, math.nan)

    def test_nonstationary_mass_conservation(self):
        d = SalesRateDistribution.pareto(1.0, 1.5)
        assert nonstationary_joint_cdf(d, 0.9, 1e-300, math.inf, 0.5) == 0.9

    def test_nonstationary_product_form_at_zero(self):
        from rankflow.dist import band_mass
        d = SalesRateDistribution.pareto(1.0, 1.5)
        got = nonstationary_joint_cdf(d, 0.9, 1.0, 2.0, 0.0)
        assert got == pytest.approx(0.9 * band_mass(d, 1.0, 2.0), rel=1e-12, abs=0.0)

    def test_nonstationary_requires_y_beyond_boundary(self):
        d = SalesRateDistribution.pareto(1.0, 1.5)
        with pytest.raises(ValueError):
            nonstationary_joint_cdf(d, 0.1, 1.0, 2.0, 0.5)


class TestShareReport:
    def test_round_trip_and_columns(self, tmp_path):
        d = SalesRateDistribution.pareto(1.0, 1.2)
        rep = build_share_report(d, np.arange(0.1, 0.95, 0.1))
        path = tmp_path / "shares.csv"
        rep.to_csv(path)
        back = SalesShareReport.from_csv(path)
        np.testing.assert_allclose(back.r, rep.r)
        np.testing.assert_allclose(back.ratio, rep.ratio, rtol=1e-10)
        header = path.read_text().splitlines()[0]
        assert header == "r,q,S_potential,S_ranking,ratio"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_from_csv_rejects_non_finite_numbers(self, tmp_path, bad):
        path = tmp_path / "shares.csv"
        path.write_text(f"r,q,S_potential,S_ranking,ratio\n0.1,1,2,1,0.5\n0.2,1,{bad},1,0.5\n")
        with pytest.raises(ValueError, match=r"shares\.csv:3: .*finite"):
            SalesShareReport.from_csv(path)

    def test_grid_validation(self):
        d = SalesRateDistribution.pareto(1.0, 1.2)
        with pytest.raises(ValueError):
            build_share_report(d, [0.0, 0.5])


def _law(b, gamma):
    if gamma == 0.0:
        return SalesRateDistribution.pareto(0.01, b)
    return SalesRateDistribution.pareto_cutoff(0.01, b, gamma)


_B_BOTH_SIDES = st.floats(0.15, 1.95).filter(lambda b: abs(b - 1.0) >= 1e-3)


class TestArrayPath:
    @settings(max_examples=40, deadline=None)
    @given(b=_B_BOTH_SIDES, gamma=st.sampled_from([0.0, 1e-2, 0.1]),
           ys=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=12))
    def test_round_trip_over_arrays(self, b, gamma, ys):
        d = _law(b, gamma)
        t = invert_y_c(d, np.array(ys))
        assert t.shape == (len(ys),)
        np.testing.assert_allclose(y_c(d, t), ys, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [
        low2(),
        SalesRateDistribution.pareto(1.0, 1.2),
        SalesRateDistribution.pareto(1.0, 2.0),
        SalesRateDistribution.pareto_cutoff(2.0, 1.5, 1e-2),
        SalesRateDistribution.pareto_cutoff(1.0, 0.3, 0.1),
        SalesRateDistribution.empirical([0.5, 1.0, 2.0, 4.0]),
    ])
    def test_array_equals_scalar_lane_by_lane(self, d):
        ys = np.concatenate([[0.0, 1e-9, 1e-4], np.linspace(0.01, 0.99, 30), [0.9999]])
        arr = invert_y_c(d, ys)
        np.testing.assert_allclose(arr, [invert_y_c(d, y) for y in ys], rtol=1e-14, atol=0.0)
        assert arr[0] == 0.0
        grid = invert_y_c(d, ys.reshape(2, -1))  # any shape, solved in one pass
        np.testing.assert_array_equal(grid.ravel(), arr)

    def test_array_input_validation(self):
        for bad in ([0.5, 1.0], [0.5, -1e-3], [0.5, math.nan]):
            with pytest.raises(ValueError):
                invert_y_c(low2(), np.array(bad))
        assert invert_y_c(low2(), np.array([])).shape == (0,)

    @pytest.mark.parametrize("d", [
        low2(),
        SalesRateDistribution.pareto(1.0, 1.2),
        SalesRateDistribution.pareto_cutoff(LOW_A, LOW_B, 0.1),
        SalesRateDistribution.pareto_cutoff(2.0, 1.5, 1e-2),
    ])
    def test_report_rows_equal_scalar_functionals(self, d):
        r = np.arange(0.01, 0.9, 0.04)
        rep = build_share_report(d, r)
        rel = dict(rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(rep.q, [d.a * invert_y_c(d, x) for x in r], **rel)
        np.testing.assert_allclose(rep.s_potential,
                                   [sales_share_potential(d, x, 1.0) for x in r], **rel)
        np.testing.assert_allclose(rep.s_ranking,
                                   [sales_share_ranking(d, x, 1.0) for x in r], **rel)
        np.testing.assert_allclose(rep.ratio, rep.s_ranking / rep.s_potential, **rel)

    @settings(max_examples=30, deadline=None)
    @given(b=_B_BOTH_SIDES, gamma=st.sampled_from([0.0, 1e-2, 0.1]), r=st.floats(0.01, 0.99))
    def test_head_plus_tail_is_total(self, b, gamma, r):
        d = _law(b, gamma)
        if gamma == 0.0 and b < 1.0:
            with pytest.raises(DivergenceError):
                sales_share_ranking(d, 0.0, r)
            return
        total = d.mean_rate()
        for share in (sales_share_ranking, sales_share_potential):
            assert share(d, 0.0, r) + share(d, r, 1.0) == pytest.approx(total, rel=1e-10, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(b=_B_BOTH_SIDES, gamma=st.sampled_from([0.0, 1e-2, 0.1]), r=st.floats(0.01, 0.99))
    def test_ranking_tail_exceeds_potential_tail(self, b, gamma, r):
        # move-to-front mixes fast sellers into the tail; an interior band
        # can hold less than its potential share (b=0.75, gamma=0.1 on
        # [0.0625, 0.3125]: 0.016333 against 0.016663, quadrature agrees)
        d = _law(b, gamma)
        rep = build_share_report(d, [r])
        assert rep.s_ranking[0] >= rep.s_potential[0]

    @pytest.mark.parametrize("b", [1.2, 1.5, 2.0])
    def test_cutoff_report_above_one_matches_quadrature(self, b):
        # b > 1 under the cutoff puts Gamma(1 - b, .) at orders in [-1, 0)
        g = 1e-2
        d = SalesRateDistribution.pareto_cutoff(2.0, b, g)
        r = np.array([0.05, 0.3, 0.7])
        rep = build_share_report(d, r)
        for x, got in zip(r, rep.s_ranking):
            ref, err = ranking_share_quad(2.0, b, x, 1.0, gamma=g)
            assert abs(got - ref) <= max(1e-8 * ref, 3.0 * err)



# b on both sides of 1, down to 1e-5 from it, and q = a t from 1e-8 to 630;
# the points from 20 to 30 are where e^-q - P cancels most in L
_MP_BS = [0.01, 0.3, 0.6312, 0.9, 0.99, 1.0 - 1e-5, 1.0 + 1e-5, 1.01, 1.2, 1.5, 1.9,
          1.999, 2.0]
_MP_QS = np.concatenate([np.geomspace(1e-8, 630.0, 41), np.linspace(20.0, 30.0, 11)])


def _mp_laplace(b, q):
    """Unit-scale pareto transform e^-q - q^b Gamma(1-b, q), at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    q, b = mpmath.mpf(float(q)), mpmath.mpf(b)
    return mpmath.exp(-q) - q ** b * mpmath.gammainc(1 - b, q)


class TestPowerLawClosedForm:
    """The curve, the transform, S_pot and the mean rate against mpmath, on
    both sides of b = 1."""

    @pytest.mark.parametrize("b", _MP_BS)
    def test_curve_matches_mpmath(self, b):
        got = _pareto_y_grid(1.0, b, _MP_QS)
        for q, y in zip(_MP_QS, got):
            want = float(1 - _mp_laplace(b, q))
            assert y == pytest.approx(want, rel=1e-13, abs=0.0), (b, q)

    @pytest.mark.parametrize("b", _MP_BS)
    def test_transform_matches_mpmath(self, b):
        qs = _MP_QS[_MP_QS <= 30.0]
        got = laplace_transform(SalesRateDistribution.pareto(1.0, b), qs)
        for q, lt in zip(qs, got):
            # L ~ b e^-q / q, so e^-q - P cancels by a factor of about q/b
            assert lt == pytest.approx(float(_mp_laplace(b, q)),
                                       rel=max(1e-12, 2e-14 * q / b), abs=0.0), (b, q)

    @pytest.mark.parametrize("b", [0.3, 0.6312, 0.9, 1.2, 1.5, 1.999])
    @pytest.mark.parametrize("g", [0.0, 1e-3, 0.1])
    def test_sales_flow_matches_mpmath(self, b, g):
        # b/t [(1 + g) P(a t) - g P(w_hi t)] with P(q) = q^b Gamma(1-b, q); at
        # the smallest q the two cutoff terms cancel most
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        a = 0.7
        d = SalesRateDistribution.pareto_cutoff(a, b, g)
        ts = np.geomspace(1e-8, 600.0, 41) / a
        mb, mg = mpmath.mpf(b), mpmath.mpf(g)
        w_hi = a * (1 + 1 / mg) ** (1 / mb) if g else 0

        def p(q):
            return q ** mb * mpmath.gammainc(1 - mb, q)

        for t, got in zip(ts, _sales_flow(d, ts)):
            mt = mpmath.mpf(float(t))
            want = mb / mt * ((1 + mg) * p(a * mt) - (mg * p(w_hi * mt) if g else 0))
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), (b, g, t)

    def test_curve_is_exactly_one_past_gamma_underflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in _MP_BS:
                got = _pareto_y_grid(1.0, b, np.array([1e3, 1e300, 1.7e308]))
                assert list(got) == [1.0, 1.0, 1.0], b

    @pytest.mark.parametrize("b", [1.0 - 2e-6, 1.0 + 2e-6, 1.5, 0.6312, 0.05, 0.3, 0.999,
                                   1.2, 1.999, 2.0])
    @pytest.mark.parametrize("g", [0.0, 0.1, 1e-8, 1e-5, 1e-3, 1.0, 10.0])
    def test_potential_share_and_mean_rate_match_mpmath(self, b, g):
        # at b = 0.05, gamma = 1e-8 the mean rate is about 1e152, from a
        # ratio of two such powers
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        a = 0.7
        d = SalesRateDistribution.pareto_cutoff(a, b, g) if g else \
            SalesRateDistribution.pareto(a, b)
        mb, mg = mpmath.mpf(b), mpmath.mpf(g)
        e = (mb - 1) / mb

        def s_pot(r1, r2):
            # integral over r1..r2 of the rate a ((1 + g)/(r + g))^(1/b) at rank fraction r
            return a * (1 + mg) ** (1 / mb) * ((r2 + mg) ** e - (r1 + mg) ** e) / e

        for r1, r2 in [(0.1, 0.5), (0.25, 1.0), (0.5, 0.500001), (0.0, 0.3)]:
            if r1 + g == 0.0 and b < 1.0:
                continue  # the head share diverges
            assert sales_share_potential(d, r1, r2) == pytest.approx(
                float(s_pot(r1, r2)), rel=1e-13, abs=0.0), (r1, r2)
        if g > 0.0 or b > 1.0:
            assert d.mean_rate() == pytest.approx(float(s_pot(0.0, 1.0)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("b", [0.3, 0.6312, 0.999, 1.2, 1.999])
    @pytest.mark.parametrize("g", [0.0, 0.1])
    def test_ranking_share_matches_mpmath(self, b, g):
        # S_rank(r1, r2) is the flow difference between the times at which the
        # curve reaches r1 and r2; the reference times are 40-digit roots of
        # 1 - L(t) = r, started at invert_y_c's
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        a = 0.7
        d = SalesRateDistribution.pareto_cutoff(a, b, g)
        mb, mg = mpmath.mpf(b), mpmath.mpf(g)
        ends = [a] + ([a * (1 + 1 / mg) ** (1 / mb)] if g else [])

        def tail(f, t):  # (1 + g) f(a t) - g f(w_cut t)
            return sum(wt * f(w * t) for wt, w in zip([1 + mg, -mg], ends))

        def p(q):
            return q ** mb * mpmath.gammainc(1 - mb, q)

        def flow_at(r):
            if r == 1.0:
                return mpmath.mpf(0)
            t = mpmath.findroot(lambda t: 1 - tail(lambda q: mpmath.exp(-q) - p(q), t) - r,
                                mpmath.mpf(float(invert_y_c(d, r))))
            return mb / t * tail(p, t)

        r = np.linspace(0.01, 0.99, 9)
        rows = build_share_report(d, r).s_ranking
        for x, got in zip(r, rows):
            assert got == pytest.approx(float(flow_at(x)), rel=1e-12, abs=0.0), x
        for r1, r2 in [(0.1, 0.5), (0.3, 0.31), (0.5, 0.9)]:
            want = flow_at(r1) - flow_at(r2)
            assert sales_share_ranking(d, r1, r2) == pytest.approx(
                float(want), rel=1e-12, abs=0.0), (r1, r2)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-4, 1e2), log_d=st.floats(-5.0, 0.0), side=st.sampled_from([-1.0, 1.0]),
           gamma=st.sampled_from([0.0]) | st.floats(1e-8, 10.0),
           log_q=st.floats(-8.0, 3.0), step=st.floats(1e-6, 1e3))
    # the fast path falls by one ulp here: 0.999999999999999 -> 0.9999999999999989
    @example(a=1.0, log_d=0.0, side=1.0, gamma=0.0, log_q=1.5, step=1e-4)
    def test_curve_non_decreasing(self, a, log_d, side, gamma, log_q, step):
        # steps of at least a millionth of t stay above the rounding of 1 - L
        b = 1.0 + side * 10.0 ** log_d
        assume(b >= 0.01)
        try:
            d = SalesRateDistribution.pareto_cutoff(a, b, gamma)
        except ValueError:  # w_hi = a (1 + 1/gamma)^(1/b) past the double range
            assume(False)
        t = np.array([1.0, 1.0 + step]) * 10.0 ** log_q / a
        y1, y2 = y_c(d, t)
        assert 0.0 <= y1 <= y2 <= 1.0
        if gamma == 0.0:
            f1, f2 = _pareto_y_grid(a, b, t)
            assert 0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0
            # The exact rise is L(t1) - L(t2), about L q step. Where it is
            # within a few ulps of y, as near y = 1, the rounding of
            # -expm1(-q) + P may order the pair either way.
            l1, l2 = laplace_transform(d, t)
            if l1 - l2 > 4.0 * np.spacing(f2):
                assert f1 <= f2
