"""Incomplete gamma evaluation against identities and the quadrature oracle."""

import math

import numpy as np
import pytest

from rankflow.oracle import gamma_quad
from rankflow.special import (
    _gamma_upper,
    _gamma_upper_grid,
    gamma_recursion_shift,
    upper_incomplete_gamma,
)

# reference values from the independent quadrature / multiprecision route
FROZEN = [
    (-0.6312, 0.5, 0.60402244130132071),
    (-1.2, 0.01, 201.599718206125721),
    (0.5, 1.0, 0.278805585280661976),
    (0.3, 2.0, 0.0658922411658944773),
    (-2.7, 3.0, 0.000412382266551928156),
]


def test_order_one_is_exp():
    for p in [1e-6, 0.1, 2.0, 30.0, 600.0]:
        assert upper_incomplete_gamma(1.0, p) == pytest.approx(math.exp(-p), rel=1e-12)


def test_small_p_approaches_complete_gamma():
    # the exact gap from Gamma(0.5) is 2 sqrt(p) to leading order
    got = upper_incomplete_gamma(0.5, 1e-12)
    assert got == pytest.approx(math.sqrt(math.pi) - 2e-6, rel=1e-10)
    assert got == pytest.approx(math.sqrt(math.pi), abs=2.5e-6)


@pytest.mark.parametrize("z,p,value", FROZEN)
def test_frozen_reference_values(z, p, value):
    assert upper_incomplete_gamma(z, p) == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("z,p,value", FROZEN)
def test_matches_live_quadrature_oracle(z, p, value):
    got = upper_incomplete_gamma(z, p)
    ref, err = gamma_quad(z, p)
    assert abs(got - ref) <= max(1e-8 * abs(ref), 2.0 * err)


def test_recursion_shift_algebraic_identity():
    # one shift at (-0.5, 1): 2 e^-1 - 2 Gamma(0.5, 1)
    expected = 2.0 * math.exp(-1.0) - 2.0 * upper_incomplete_gamma(0.5, 1.0)
    assert gamma_recursion_shift(-0.5, 1.0) == pytest.approx(expected, rel=1e-12)


def test_recursion_shift_consistent_with_direct():
    assert gamma_recursion_shift(0.3, 2.0) == pytest.approx(
        upper_incomplete_gamma(0.3, 2.0), rel=1e-12)
    assert gamma_recursion_shift(-1.2, 0.01) == pytest.approx(
        201.599718206125721, rel=1e-10)


def test_recursion_identity_1000_random_points():
    rng = np.random.default_rng(20260809)
    checked = 0
    while checked < 1000:
        z = rng.uniform(-2.5, 1.5)
        if z <= 0.0 and abs(z - round(z)) < 1e-3:
            continue
        p = 10.0 ** rng.uniform(-6, 2)
        lhs = upper_incomplete_gamma(z, p)
        rhs = (-math.exp(z * math.log(p) - p)
               + upper_incomplete_gamma(z + 1.0, p)) / z
        assert lhs == pytest.approx(rhs, rel=1e-9), (z, p)
        checked += 1


def test_underflow_floor():
    assert upper_incomplete_gamma(0.5, 700.5) == 0.0
    assert gamma_recursion_shift(0.5, 701.0) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.5, 0.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.5, -1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-1.0, 0.5)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.0, 0.5)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(3.5, 0.5)
    with pytest.raises(ValueError):
        gamma_recursion_shift(-2.0, 1.0)


def test_vector_grid_matches_scalar():
    ps = np.concatenate([10.0 ** np.linspace(-10, 2.8, 25), [750.0]])
    for z in [0.0, 0.12, 0.3688, 0.8, 1.0]:
        got = _gamma_upper_grid(z, ps)
        for g, p in zip(got, ps):
            if p > 700.0:
                assert g == 0.0
            elif z == 0.0:
                ref, err = gamma_quad(1e-13, p)  # order-0 limit of the oracle
                assert abs(g - ref) <= max(1e-7 * abs(ref), 5.0 * err + 1e-12)
            else:
                assert g == pytest.approx(upper_incomplete_gamma(z, p), rel=1e-11)


NEGATIVE_ORDERS = [-1.0, -0.95, -0.6312, -0.5, -0.2, -0.05]
GRID_PS = np.concatenate([10.0 ** np.linspace(-10, 2.8, 25), [1.4999, 1.5, 750.0]])


@pytest.mark.parametrize("z", NEGATIVE_ORDERS)
def test_vector_grid_negative_orders_match_scalar(z):
    # the cutoff share for b in (1, 2] needs Gamma(1 - b, .) on arrays
    got = _gamma_upper_grid(z, GRID_PS)
    for g, p in zip(got, GRID_PS):
        if p > 700.0:
            assert g == 0.0
            continue
        if z == -1.0:
            # the grid and the scalar both use p^-1 E_2(p) here, so check
            # Gamma(-1, p) = p^-1 e^-p - E_1(p) instead
            ref = math.exp(-p) / p - _gamma_upper(0.0, p)
        else:
            ref = _gamma_upper(z, p)  # scalar series / continued fraction
        assert g == pytest.approx(ref, rel=1e-12), (z, p)


@pytest.mark.parametrize("z", NEGATIVE_ORDERS + [0.12, 0.3688, 0.8, 1.0])
def test_vector_grid_matches_mpmath(z):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ps = GRID_PS[GRID_PS <= 700.0]
    got = _gamma_upper_grid(z, ps)
    for g, p in zip(got, ps):
        assert g == pytest.approx(float(mpmath.gammainc(z, p)), rel=1e-12), (z, p)


@pytest.mark.parametrize("z", [-2.7, -2.0, -1.6312, -1.2, 1.3688, 2.5])
def test_scalar_recursions_match_mpmath(z):
    # orders outside [-1, 1] reach the grid kernel through the recursions
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for p in GRID_PS[GRID_PS <= 700.0]:
        assert _gamma_upper(z, p) == pytest.approx(float(mpmath.gammainc(z, p)),
                                                   rel=1e-12), (z, p)
