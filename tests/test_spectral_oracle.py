"""Fourier time stepper: linear limits, resolution control, guards."""

import math
import warnings

import numpy as np
import pytest

from enstrophy_lab import spectral_oracle

# exp(-4 pi^2 * 0.01), frozen
HEAT_FACTOR = 0.67382545123143356


def test_zero_amplitude_stays_zero(sine):
    snaps = spectral_oracle.integrate(sine, 0.0, [0.0, 1e-3])
    for s in snaps:
        assert np.max(np.abs(s.u_values)) == 0.0


def test_linear_heat_decay(sine, monkeypatch):
    # k -> 0 freezes the nonlinearity; mode 1 must decay by e^{-4 pi^2 t}
    k = 1e-6
    monkeypatch.setattr(spectral_oracle, "DT", 1e-4)
    monkeypatch.setattr(spectral_oracle, "N_MODES", 256)
    snap = spectral_oracle.integrate(sine, k, [0.01])[0]
    ref = k * sine.f(snap.x_grid) * HEAT_FACTOR
    assert np.max(np.abs(snap.u_values - ref)) < 1e-11


def test_snapshot_time_zero_and_oddness(sine):
    snaps = spectral_oracle.integrate(sine, 5.0, [0.0, 1e-3])
    assert snaps[0].a == math.inf
    assert np.max(np.abs(snaps[0].u_values
                         - 5.0 * sine.f(snaps[0].x_grid))) < 1e-12
    for s in snaps:
        assert s.oddness_residual < 1e-9


def test_cfl_clamp_warns(sine):
    with pytest.warns(RuntimeWarning, match="CFL"):
        spectral_oracle.integrate(sine, 2e4, [1e-8])


def test_negative_amplitude_is_half_period_shift(sine):
    # sin(2 pi (x + 1/2)) = -sin(2 pi x), so k -> -k shifts u by half a
    # period; the CFL bound must use |k| and step both runs alike
    n = 512
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos = spectral_oracle.integrate(sine, 5.0, [1e-3], n)[0]
        neg = spectral_oracle.integrate(sine, -5.0, [1e-3], n)[0]
    assert np.max(np.abs(np.roll(pos.u_values, n // 2)
                         - neg.u_values)) < 1e-12


def test_tail_warning_without_headroom(sine, monkeypatch):
    # 64 modes cannot hold a k=30 shock; with doubling frozen the tail
    # monitor must complain
    monkeypatch.setattr(spectral_oracle, "N_MODES", 64)
    monkeypatch.setattr(spectral_oracle, "MAX_N_MODES", 64)
    t = 1.0 / (480.0 * math.pi)
    with pytest.warns(RuntimeWarning, match="tail"):
        spectral_oracle.integrate(sine, 30.0, [t])


def test_auto_doubling_resolves(sine, monkeypatch):
    # same shock as above, but with headroom: doubling must quiet the tail
    # monitor.  The CFL clamp is allowed to fire at the higher resolutions.
    monkeypatch.setattr(spectral_oracle, "N_MODES", 128)
    monkeypatch.setattr(spectral_oracle, "MAX_N_MODES", 4096)
    t = 1.0 / (480.0 * math.pi)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*tail.*")
        warnings.filterwarnings("ignore", message=".*CFL.*")
        snaps = spectral_oracle.integrate(sine, 30.0, [t])
    assert len(snaps) == 1


def test_blowup_raises(sine, monkeypatch):
    monkeypatch.setattr(spectral_oracle, "DT", 1e-3)
    monkeypatch.setattr(spectral_oracle, "CFL_CONSTANT", 1e9)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(spectral_oracle.OracleError):
            spectral_oracle.integrate(sine, 100.0, [0.05])


def test_save_time_validation(sine):
    with pytest.raises(ValueError):
        spectral_oracle.integrate(sine, 5.0, [1e-3, 5e-4])
    # a bad time or amplitude is named before any stepping
    for k, times, named in ((5.0, [0.0, math.nan], "t=nan"),
                            (5.0, [0.0, math.inf], "t=inf"),
                            (5.0, [-1e-3, 0.0], "t=-0.001"),
                            (math.nan, [1e-3], "k=nan"),
                            (math.inf, [1e-3], "k=inf")):
        with pytest.raises(ValueError, match=named):
            spectral_oracle.integrate(sine, k, times)
