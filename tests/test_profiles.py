"""Profile construction and the admissibility report."""

import math

import numpy as np
import pytest

from enstrophy_lab import profiles

# frozen oracle: scipy.optimize.brentq on f'(x) = 0 for
# f = -sin(2 pi x) - 0.1 sin(4 pi x)   (xtol=1e-15)
TWO_TERM_X_STAR = 0.22020099244989777


def test_sine_closed_forms():
    p = profiles.make_sine_profile()
    assert p.x_star == 0.25
    assert abs(p.f(0.25) + 2.0 * math.pi) < 1e-14
    assert abs(p.f_prime_at_zero + 4.0 * math.pi ** 2) < 1e-12
    assert abs(p.F(0.5) + 2.0) < 1e-14
    assert p.F_min == -2.0 and p.F_max == 0.0
    assert profiles.validate_profile(p).ok


def test_two_term_x_star_and_F():
    p = profiles.make_sine_series_profile([1.0, 0.1])
    assert abs(p.x_star - TWO_TERM_X_STAR) < 1e-12
    # F(1/2) = -1/pi exactly for these coefficients
    assert abs(p.F(0.5) + 1.0 / math.pi) < 1e-14
    assert profiles.validate_profile(p).ok


def test_series_profile_is_odd_and_periodic():
    p = profiles.make_sine_series_profile([0.7, 0.05, 0.01])
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.max(np.abs(p.f(xs) + p.f(-xs))) < 1e-14
    assert np.max(np.abs(p.f(xs) - p.f(xs + 1.0))) < 1e-12


def _smoothed_triangle(sigma, terms=60):
    """Sine coefficients of a heat-smoothed triangle wave: odd n only,
    a_n proportional to (-1)^((n-1)/2) n^-2 exp(-(2 pi n sigma)^2 / 2)."""
    n = np.arange(1, terms + 1)
    return np.where(n % 2 == 1, (-1.0) ** ((n - 1) // 2) / n ** 2
                    * np.exp(-0.5 * (2.0 * np.pi * n * sigma) ** 2), 0.0)


@pytest.mark.parametrize("coeffs", [[1.0], [1.0, 0.1], [0.7, 0.05, 0.01],
                                    _smoothed_triangle(0.02)],
                         ids=["one-term", "two-term", "three-term",
                              "triangle-60"])
def test_series_closures_match_outer_product_sums(coeffs):
    # the term-by-term sums each closure stands for, on |x| <= 2
    a = np.asarray(coeffs)
    wn = 2.0 * np.pi * np.arange(1, len(a) + 1)
    xs = np.linspace(-2.0, 2.0, 8001)
    arg = np.multiply.outer(xs, wn)
    p = profiles.make_sine_series_profile(a, validate=False)
    for got, want in ((p.f, -np.sin(arg) @ a),
                      (p.f_prime, -np.cos(arg) @ (a * wn)),
                      (p.f_double_prime, np.sin(arg) @ (a * wn ** 2)),
                      (p.F, (np.cos(arg) - 1.0) @ (a / wn))):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got(xs) - want)) <= 1e-13 * scale
    # scalars in, scalars out
    assert np.ndim(p.f(0.3)) == 0 and np.ndim(p.F(0.3)) == 0


def test_sign_flip_is_caught():
    p = profiles.make_sine_series_profile([-1.0], validate=False)
    rep = profiles.validate_profile(p)
    assert not rep.ok
    assert "sign" in rep.names


def test_convexity_violation_is_caught():
    p = profiles.make_sine_series_profile([1.0, 0.25], validate=False)
    rep = profiles.validate_profile(p)
    assert rep.names == ("convexity",)
    with pytest.raises(profiles.ProfileError):
        profiles.make_sine_series_profile([1.0, 0.25])


def test_sine_is_the_one_term_series_bit_for_bit():
    # make_sine_profile builds the one-term series [2 pi]; its closures
    # and cached constants equal the closed forms exactly
    p = profiles.make_sine_profile()
    two_pi = 2.0 * math.pi
    x = np.linspace(-2.0, 2.0, 200001)
    theta = two_pi * x
    assert np.array_equal(p.f(x), -two_pi * np.sin(theta))
    assert np.array_equal(p.f_prime(x), -two_pi ** 2 * np.cos(theta))
    assert np.array_equal(p.f_double_prime(x), two_pi ** 3 * np.sin(theta))
    assert np.array_equal(p.F(x), np.cos(theta) - 1.0)
    assert p.x_star == 0.25
    assert p.F_min == -2.0 and p.F_max == 0.0
    assert p.f_prime_at_zero == -two_pi ** 2
    assert p.f_prime_max == two_pi ** 2
    assert p.label == "sine"


@pytest.mark.parametrize("coeffs, named", [
    ([math.nan], "a_1 = nan"), ([1.0, math.inf], "a_2 = inf"),
    ([-math.inf, 0.1], "a_1 = -inf")])
@pytest.mark.parametrize("validate", [True, False])
def test_non_finite_coefficients_rejected_by_name(coeffs, named, validate):
    with pytest.raises(profiles.ProfileError,
                       match=f"non-finite coefficient.*{named}"):
        profiles.make_sine_series_profile(coeffs, validate=validate)
