"""Incomplete gamma evaluation against identities and the quadrature oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankflow.oracle import gamma_quad
from rankflow.special import (
    _TAIL_CROSSINGS,
    _SERIES_TAIL,
    _gamma_upper,
    _gamma_upper_grid,
    _series_terms,
)

# pytest.approx also accepts anything within abs=1e-12 unless told otherwise,
# which passes every value below 1e-12 (p above about 30) unchecked; kernel
# comparisons therefore pass abs=0.0.


def mp_gammainc(z, p):
    """Gamma(z, p) from 40-digit mpmath, rounded to a float: the kernel's
    reference."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(z, p))


def lane(z, p):
    """Gamma(z, p) from a one-lane kernel call, whose term counts p alone sets."""
    return _gamma_upper_grid(z, np.array([p]))[0]


# reference values from the independent quadrature / multiprecision route
FROZEN = [
    (-0.6312, 0.5, 0.60402244130132071),
    (-0.95, 0.01, 79.0014603748029143),
    (0.5, 1.0, 0.278805585280661976),
    (0.3, 2.0, 0.0658922411658944773),
    (-0.2, 3.0, 0.0100295038121687771),
]


def test_order_one_is_exp():
    ps = np.array([1e-6, 0.1, 2.0, 30.0, 600.0])
    for got, p in zip(_gamma_upper_grid(1.0, ps), ps):
        assert got == pytest.approx(math.exp(-p), rel=1e-12, abs=0.0)


def test_small_p_approaches_complete_gamma():
    # the exact gap from Gamma(0.5) is 2 sqrt(p) to leading order
    got = lane(0.5, 1e-12)
    assert got == pytest.approx(math.sqrt(math.pi) - 2e-6, rel=1e-10)
    assert got == pytest.approx(math.sqrt(math.pi), abs=2.5e-6)


@pytest.mark.parametrize("z,p,value", FROZEN)
def test_frozen_reference_values(z, p, value):
    assert lane(z, p) == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("z,p,value", FROZEN)
def test_matches_live_quadrature_oracle(z, p, value):
    got = lane(z, p)
    ref, err = gamma_quad(z, p)
    assert abs(got - ref) <= max(1e-8 * abs(ref), 2.0 * err)


def test_recursion_shift_algebraic_identity():
    # one shift at (-0.5, 1): 2 e^-1 - 2 Gamma(0.5, 1); the kernel sums -0.5
    # itself, without its lift onto z + 1
    expected = 2.0 * math.exp(-1.0) - 2.0 * lane(0.5, 1.0)
    assert lane(-0.5, 1.0) == pytest.approx(expected, rel=1e-12)


def test_recursion_shift_consistent_with_direct():
    # Gamma(z, p) = (Gamma(z+1, p) - p^z e^-p) / z, on the continued fraction
    # at p = 2 and on the series, summed at both orders, at p = 0.5
    for z, p in [(-0.7, 2.0), (-0.3, 0.5)]:
        shifted = (lane(z + 1.0, p) - math.exp(z * math.log(p) - p)) / z
        assert shifted == pytest.approx(lane(z, p), rel=1e-12)


def test_recursion_identity_1000_random_points():
    # z in (-1, 0), so that z and z + 1 are both kernel orders; one row per
    # point, each bit for bit its one-lane call
    rng = np.random.default_rng(20260809)
    z, p = rng.uniform(-1.0, 0.0, 1200), 10.0 ** rng.uniform(-6, 2, 1200)
    keep = np.abs(z - np.round(z)) >= 1e-3
    z, p = z[keep][:1000], p[keep][:1000]
    assert z.size == 1000
    lhs = _gamma_upper_grid(z, p[:, None])[:, 0]
    rhs = (_gamma_upper_grid(z + 1.0, p[:, None])[:, 0] - np.exp(z * np.log(p) - p)) / z
    for a, b, zi, pi in zip(lhs, rhs, z, p):
        assert a == pytest.approx(b, rel=1e-9), (zi, pi)


def test_underflow_floor():
    assert lane(0.5, 700.5) == 0.0


NEGATIVE_ORDERS = [-1.0, -0.95, -0.6312, -0.5, -0.2, -0.05]
GRID_PS = np.concatenate([10.0 ** np.linspace(-10, 2.8, 25), [1.4999, 1.5, 750.0]])


@pytest.mark.parametrize("z", NEGATIVE_ORDERS)
def test_vector_grid_negative_orders_match_scalar(z):
    # the cutoff share for b in (1, 2] needs Gamma(1 - b, .) on arrays. A
    # one-lane call's term counts are set by its own p; in the many-lane call
    # they are set by the largest p of each method, so a lane must not depend
    # on the lanes that share its call
    got = _gamma_upper_grid(z, GRID_PS)
    for g, p in zip(got, GRID_PS):
        if p > 700.0:
            assert g == 0.0
            continue
        assert g == pytest.approx(lane(z, p), rel=1e-12, abs=0.0), (z, p)


@pytest.mark.parametrize("z", NEGATIVE_ORDERS + [0.0, 0.12, 0.3688, 0.8, 1.0])
def test_vector_grid_matches_mpmath(z):
    got = _gamma_upper_grid(z, GRID_PS)
    for g, p in zip(got, GRID_PS):
        if p > 700.0:
            assert g == 0.0  # past UNDERFLOW_P
        else:
            assert g == pytest.approx(mp_gammainc(z, p), rel=1e-12, abs=0.0), (z, p)


@pytest.mark.parametrize("z", [-1 + 1e-7])
def test_near_negative_integer_orders_match_mpmath(z):
    # just above -1 the series head Gamma(z) ~ 1/(z+1) cancels against the
    # sum, so these orders must reach the series lifted onto z + 1
    for p in np.geomspace(1e-6, 30.0, 31):
        assert lane(z, p) == pytest.approx(mp_gammainc(z, p), rel=1e-13, abs=0.0), (z, p)


# The grid kernel runs a term count fixed per call: the series by the largest
# p of the call, the continued fraction by the smallest. These tests put each
# count where it is tightest and check every lane against 40-digit mpmath.
SPLIT_ORDERS = [round(-0.95 + 0.05 * k, 2) for k in range(40)]  # (-1, 1], step 0.05


@pytest.mark.parametrize("p", [1.5, 1.5001, 1.6, 2.0])
def test_grid_continued_fraction_count_just_above_split(p):
    # The count buys full precision at the split: 4.4e-16 at p = 1.5 with
    # its 72 terms, but 1.6e-14 with three quarters of them, which a 1e-13
    # bound would not see. One lane per call, so that p sets the count.
    for z in SPLIT_ORDERS:
        got = _gamma_upper_grid(z, np.array([p]))[0]
        assert got == pytest.approx(mp_gammainc(z, p), rel=4e-15, abs=0.0), (z, p)


@pytest.mark.parametrize("p", [1.4, 1.49, 1.4999])
def test_grid_series_count_just_below_split(p):
    for z in SPLIT_ORDERS:
        got = _gamma_upper_grid(z, np.array([p]))[0]
        assert got == pytest.approx(mp_gammainc(z, p), rel=1e-13, abs=0.0), (z, p)


def test_series_term_count_matches_term_search():
    # the count from the tail crossings is the first M whose next term falls
    # below the tail, as a term-by-term search in float arithmetic finds it:
    # on a dense sweep of the series range and at each crossing and its neighbour
    below = [math.nextafter(c, 0.0) for c in _TAIL_CROSSINGS]
    ps = np.concatenate([[0.0, 1e-300], np.geomspace(1e-12, 1.5, 20001),
                         np.linspace(0.0, 1.5, 20001), _TAIL_CROSSINGS, below])
    ps = ps[ps < 1.5]
    search = [next(m for m in range(1, 39) if v ** (m + 1) / math.factorial(m + 1) < _SERIES_TAIL)
              for v in ps.tolist()]
    assert _series_terms(ps) == search


MIXED_PS = np.concatenate([10.0 ** np.linspace(-8.0, math.log10(1.4999), 12),
                           np.geomspace(1.5, 699.0, 12)])


@pytest.mark.parametrize("z", [-1.0, -0.99, -0.6312, -0.5, -0.2, 0.0, 0.12, 0.3688, 0.8, 1.0])
def test_grid_mixed_lanes_match_mpmath(z):
    # series lanes from 1e-8 to 1.4999 and continued-fraction lanes from
    # p_min = 1.5 to 699 in one call
    got = _gamma_upper_grid(z, MIXED_PS)
    for g, p in zip(got, MIXED_PS):
        assert g == pytest.approx(mp_gammainc(z, p), rel=1e-13, abs=0.0), (z, p)


@pytest.mark.parametrize("z", [s * m for m in (1e-8, 1e-6, 1e-4, 1e-3, 1e-2) for s in (1, -1)])
def test_series_head_near_order_zero(z):
    # lgamma(1 + z) sees the rounded 1 + z; the head used to be 2.6e-7 off
    # at |z| = 1e-8
    ps = np.concatenate([10.0 ** np.linspace(-8.0, math.log10(1.4999), 9), [2.0, 30.0]])
    got = _gamma_upper_grid(z, ps)
    for g, p in zip(got, ps):
        want = mp_gammainc(z, p)
        assert g == pytest.approx(want, rel=1e-13, abs=0.0), (z, p)
        assert _gamma_upper(z, p) == pytest.approx(want, rel=1e-13, abs=0.0), (z, p)


@pytest.mark.parametrize("z", [0.0, -1.0])
def test_integer_orders_single_lane_match_mpmath(z):
    # E_1(p) and p^-1 E_2(p), by the kernel's own series (with the z -> 0
    # limit of its head) and continued fraction; one lane per call, so that
    # each p sets both term counts
    for p in np.geomspace(1e-10, 699.0, 41):
        got = _gamma_upper_grid(z, np.array([p]))[0]
        assert got == pytest.approx(mp_gammainc(z, p), rel=1e-13, abs=0.0), (z, p)
        assert _gamma_upper(z, p) == pytest.approx(mp_gammainc(z, p), rel=1e-13, abs=0.0), (z, p)


@pytest.mark.parametrize("p", [10.0, 30.0, 100.0])
@pytest.mark.parametrize("z", [-1.2, -0.2, 0.3688])
def test_quadrature_oracle_matches_mpmath_at_large_p(z, p):
    # quadrature over x itself was about 1e-5 off here, far past its estimate
    value, err = gamma_quad(z, p)
    assert value == pytest.approx(mp_gammainc(z, p), rel=1e-10, abs=0.0)
    assert abs(value - mp_gammainc(z, p)) <= err


# lanes on both sides of the series/fraction split at 1.5 and past the
# underflow at 700, where the kernel returns 0
_LANE_P = st.one_of(st.floats(1e-9, 1.4999), st.floats(1.5, 40.0), st.floats(40.0, 699.0),
                    st.floats(700.5, 1e4), st.sampled_from([1.5, 1.4999, 700.0]))
_ROW_Z = st.one_of(st.floats(-0.999, 0.999), st.sampled_from([0.0, -0.5, -0.75, -0.999]))


@settings(max_examples=200, deadline=None)
@given(z=st.lists(_ROW_Z, min_size=1, max_size=7), lanes=st.lists(_LANE_P, min_size=1, max_size=60))
@example(z=[0.0, -0.6, 0.3], lanes=[1e-3, 1.2, 2.0, 0.5, 800.0, 1.5, 30.0, 1e-6, 1.4999])
# the second row's last bit changes if it runs the first row's 72 fraction
# terms instead of its own 67, or the first row's 22 series terms, not 18
@example(z=[0.5, -0.03521947136531367], lanes=[1.5, 1.6418247325877688])
@example(z=[0.5, -0.598983981906643], lanes=[1.4999, 0.8521891305215561])
def test_rows_are_bit_identical_to_single_row_calls(z, lanes):
    # each row keeps its own term counts, lift and head constants, so batching
    # rows into one call must not change a single bit of any of them
    ps = np.resize(np.array(lanes), (len(z), max(1, len(lanes) // len(z))))
    got = _gamma_upper_grid(np.array(z), ps)
    for row, zr, pr in zip(got, z, ps):
        assert row.tobytes() == _gamma_upper_grid(zr, pr).tobytes(), (zr, pr)
