"""Distribution construction, Laplace transforms, and CSV ingestion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflow.dist import (
    SalesRateDistribution,
    band_laplace,
    band_mass,
    discrete_rates,
    laplace_transform,
    load_rates_csv,
    save_rates_csv,
)
from rankflow.oracle import laplace_quad

LOW_A, LOW_B = 3.939e-4, 0.6312


def test_validation():
    with pytest.raises(ValueError):
        SalesRateDistribution.pareto(-1.0, 0.5)
    with pytest.raises(ValueError):
        SalesRateDistribution.pareto(1.0, 0.0)
    with pytest.raises(ValueError):
        SalesRateDistribution.pareto(1.0, 2.5)
    with pytest.raises(ValueError):
        SalesRateDistribution.pareto(1.0, 1.0 + 5e-7)  # inside the guard band
    with pytest.raises(ValueError):
        SalesRateDistribution.pareto_cutoff(1.0, 0.5, -0.1)
    for a, gamma in [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            SalesRateDistribution.pareto_cutoff(a, 0.5, gamma)
    with pytest.raises(ValueError):
        SalesRateDistribution.empirical([1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        SalesRateDistribution.empirical([])
    # b = 2 is the admissible endpoint
    SalesRateDistribution.pareto(1.0, 2.0)


@pytest.mark.parametrize("a, b, gamma", [(1.0, 0.01, 1e-5), (1e300, 0.5, 1e-20),
                                         (1e-3, 0.01, 1e-5), (1e-300, 0.01, 1e-6)])
def test_cutoff_beyond_double_range_is_rejected(a, b, gamma):
    # a (1 + 1/gamma)^(1/b) past the double range used to raise OverflowError
    # from support() and mean_rate() instead of failing at construction
    with pytest.raises(ValueError, match="double range"):
        SalesRateDistribution.pareto_cutoff(a, b, gamma)


def test_cutoff_near_double_range_is_finite():
    dist = SalesRateDistribution.pareto_cutoff(1.0, 0.01, 1e-3)
    assert math.isfinite(dist.support()[1]) and math.isfinite(dist.mean_rate())


def test_laplace_at_zero_is_one():
    for d in [SalesRateDistribution.pareto(LOW_A, LOW_B),
              SalesRateDistribution.pareto(1.0, 1.5),
              SalesRateDistribution.pareto_cutoff(1.0, 0.7, 1e-3),
              SalesRateDistribution.empirical([0.3, 1.0, 7.0])]:
        assert laplace_transform(d, 0.0) == 1.0


def test_laplace_rejects_negative_time():
    d = SalesRateDistribution.pareto(1.0, 0.5)
    with pytest.raises(ValueError):
        laplace_transform(d, -0.1)
    for bad in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            laplace_transform(d, bad)
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            band_laplace(d, 1.0, 2.0, bad)


@pytest.mark.parametrize("dist", [SalesRateDistribution.pareto(1.0, 0.5),
                                  SalesRateDistribution.pareto(1.0, 1.5),
                                  SalesRateDistribution.pareto_cutoff(1.0, 1.5, 0.1)])
def test_laplace_vanishes_at_infinite_time(dist):
    # q^b overflowed and met the underflowed Gamma = 0, which gave nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert laplace_transform(dist, math.inf) == 0.0
        got = laplace_transform(dist, np.array([699.0, 701.0, 1e300, math.inf]))
    assert 0.0 <= got[0] < 1e-300
    assert list(got[1:]) == [0.0, 0.0, 0.0]


def test_empirical_single_rate_halves_at_ln2():
    d = SalesRateDistribution.empirical([1.0])
    assert laplace_transform(d, math.log(2.0)) == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_pareto_matches_quadrature_oracle():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    # frozen from the scaled-variable quadrature of the density
    assert laplace_transform(d, 100.0) == pytest.approx(0.753934042845098911, rel=1e-10, abs=0.0)
    for t in [1e-3, 1.0, 100.0, 2500.0, 2e4]:
        ref, err = laplace_quad(LOW_A, LOW_B, t)
        assert abs(laplace_transform(d, t) - ref) <= max(1e-9 * ref, 3.0 * err)


def test_pareto_b_above_one_matches_oracle():
    d = SalesRateDistribution.pareto(2.0, 1.3)
    for t in [0.01, 0.3, 2.0, 9.0]:
        ref, err = laplace_quad(2.0, 1.3, t)
        assert abs(laplace_transform(d, t) - ref) <= max(1e-9 * ref, 3.0 * err)


def test_pareto_b_equal_two_endpoint():
    d = SalesRateDistribution.pareto(1.0, 2.0)
    for t in [0.05, 0.7, 4.0]:
        ref, err = laplace_quad(1.0, 2.0, t)
        assert abs(laplace_transform(d, t) - ref) <= max(1e-9 * ref, 3.0 * err)


@settings(max_examples=60, deadline=None)
@given(t1=st.floats(0.0, 50.0), dt=st.floats(1e-3, 50.0),
       b=st.floats(0.1, 1.9).filter(lambda b: abs(b - 1.0) >= 1e-3))
def test_laplace_strictly_decreasing(t1, dt, b):
    d = SalesRateDistribution.pareto(0.5, b)
    assert laplace_transform(d, t1) > laplace_transform(d, t1 + dt)


def test_array_evaluation_matches_scalars():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    ts = np.array([0.0, 3.0, 77.0, 1900.0])
    arr = laplace_transform(d, ts)
    assert arr.shape == ts.shape
    for t, v in zip(ts, arr):
        assert v == pytest.approx(laplace_transform(d, float(t)), abs=1e-15)


def test_discrete_rates_reproduce_closed_form():
    # rank-indexed rates at N = 1e5 should track the continuum transform
    n = 10 ** 5
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    emp = SalesRateDistribution.empirical(discrete_rates(n, LOW_A, LOW_B))
    ts = np.linspace(0.0, 2000.0, 41)
    dev = np.abs(laplace_transform(emp, ts) - laplace_transform(d, ts))
    assert dev.max() <= 5e-4


def test_cutoff_gamma_zero_degenerates_bitwise():
    d = SalesRateDistribution.pareto(1.0, 0.7)
    dc = SalesRateDistribution.pareto_cutoff(1.0, 0.7, 0.0)
    for t in [0.0, 0.1, 1.0, 12.0]:
        assert laplace_transform(dc, t) == laplace_transform(d, t)


def test_cutoff_approaches_pareto():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    dc = SalesRateDistribution.pareto_cutoff(LOW_A, LOW_B, 1e-9)
    ts = np.linspace(0.0, 1e4, 201)
    dev = np.abs(laplace_transform(dc, ts) - laplace_transform(d, ts))
    assert dev.max() <= 1e-6


def test_cutoff_matches_quadrature():
    g = 1e-3
    dc = SalesRateDistribution.pareto_cutoff(LOW_A, LOW_B, g)
    for t in [1.0, 50.0, 500.0]:
        ref, err = laplace_quad(LOW_A, LOW_B, t, gamma=g)
        assert abs(laplace_transform(dc, t) - ref) <= max(1e-9 * ref, 3.0 * err)


def test_band_helpers_match_quadrature():
    from scipy.integrate import quad
    d = SalesRateDistribution.pareto(1.0, 1.5)
    assert d == SalesRateDistribution.pareto_cutoff(1.0, 1.5, 0.0)
    ref_mass, _ = quad(lambda w: 1.5 * w ** -2.5, 1.0, 2.0)
    assert band_mass(d, 1.0, 2.0) == pytest.approx(ref_mass, rel=1e-12, abs=0.0)
    ref_bl, _ = quad(lambda w: math.exp(-0.7 * w) * 1.5 * w ** -2.5, 1.0, 2.0)
    assert band_laplace(d, 1.0, 2.0, 0.7) == pytest.approx(ref_bl, rel=1e-10, abs=0.0)
    # full band reduces to the plain transform
    assert band_laplace(d, 1e-12, math.inf, 0.7) == pytest.approx(
        laplace_transform(d, 0.7), rel=1e-10, abs=0.0)
    # the band's ends are clamped to the support [a, w_cut]: bands that start
    # below a, end past the cutoff (near 4.9 at gamma = 0.1, 100 at 1e-3), or both
    for g in (0.0, 0.1, 1e-3):
        dc = SalesRateDistribution.pareto_cutoff(1.0, 1.5, g)
        w_cut = dc.support()[1]
        for lo, hi in [(0.5, 2.0), (2.0, 1e4), (0.5, math.inf), (1.2, 1.3)]:
            assert band_mass(dc, lo, hi) == band_laplace(dc, lo, hi, 0.0)
            for t in (0.0, 0.7, 5.0):
                ref, _ = quad(lambda w: math.exp(-t * w) * (1.0 + g) * 1.5 * w ** -2.5,
                              max(lo, 1.0), min(hi, w_cut), epsabs=0.0, epsrel=1e-13,
                              limit=200)
                assert band_laplace(dc, lo, hi, t) == pytest.approx(ref, rel=1e-10, abs=0.0), \
                    (g, lo, hi, t)
        assert band_mass(dc, 0.5, math.inf) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert band_laplace(dc, 0.5, math.inf, 0.7) == pytest.approx(
            laplace_transform(dc, 0.7), rel=1e-14, abs=0.0)


def test_rates_csv_round_trip(tmp_path):
    path = tmp_path / "rates.csv"
    rates = [0.25, 1.0, 3.5]
    save_rates_csv(path, rates)
    d = load_rates_csv(path)
    np.testing.assert_allclose(d.rates, rates)


def test_rates_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("rate\n1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_rates_csv(bad_header)
    bad_value = tmp_path / "v.csv"
    bad_value.write_text("w\n1.0\noops\n")
    with pytest.raises(ValueError, match=":3"):
        load_rates_csv(bad_value)
    nonpositive = tmp_path / "n.csv"
    nonpositive.write_text("w\n1.0\n0.0\n")
    with pytest.raises(ValueError, match="positive"):
        load_rates_csv(nonpositive)


def test_rates_csv_rejects_infinite_rate(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("w\n1.0\ninf\n")
    with pytest.raises(ValueError, match=":3: rate must be finite"):
        load_rates_csv(path)
    with pytest.raises(ValueError, match="finite"):
        SalesRateDistribution.empirical([1.0, math.inf])
