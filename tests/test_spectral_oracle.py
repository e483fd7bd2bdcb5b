"""Fourier time stepper: linear limits, integrator agreement, guards."""

import math
import warnings

import numpy as np
import pytest

from enstrophy_lab import spectral_oracle

# exp(-4 pi^2 * 0.01), frozen
HEAT_FACTOR = 0.67382545123143356


def test_zero_amplitude_stays_zero(sine):
    snaps = spectral_oracle.integrate(sine, 0.0, 1e-3, [0.0, 1e-3])
    for s in snaps:
        assert np.max(np.abs(s.u_values)) == 0.0


def test_linear_heat_decay(sine):
    # k -> 0 freezes the nonlinearity; mode 1 must decay by e^{-4 pi^2 t}
    k = 1e-6
    cfg = spectral_oracle.OracleConfig(dt=1e-4, n_modes=256)
    snap = spectral_oracle.integrate(sine, k, 0.01, [0.01], cfg)[0]
    ref = k * sine.f(snap.x_grid) * HEAT_FACTOR
    assert np.max(np.abs(snap.u_values - ref)) < 1e-11


def test_integrators_agree(sine):
    t = 2e-3
    s_etd = spectral_oracle.integrate(sine, 5.0, t, [t])[0]
    cfg = spectral_oracle.OracleConfig(integrator="imex-cn-ab2")
    s_cn = spectral_oracle.integrate(sine, 5.0, t, [t], cfg)[0]
    assert np.max(np.abs(s_etd.u_values - s_cn.u_values)) < 1e-4


def test_snapshot_time_zero_and_oddness(sine):
    snaps = spectral_oracle.integrate(sine, 5.0, 1e-3, [0.0, 1e-3])
    assert snaps[0].a == math.inf
    assert np.max(np.abs(snaps[0].u_values
                         - 5.0 * sine.f(snaps[0].x_grid))) < 1e-12
    for s in snaps:
        assert s.oddness_residual < 1e-9


def test_cfl_clamp_warns(sine):
    with pytest.warns(RuntimeWarning, match="CFL"):
        spectral_oracle.integrate(sine, 2e4, 1e-8, [1e-8])


def test_tail_warning_without_headroom(sine):
    # 64 modes cannot hold a k=30 shock; with doubling frozen the tail
    # monitor must complain
    cfg = spectral_oracle.OracleConfig(n_modes=64, max_n_modes=64)
    t = 1.0 / (480.0 * math.pi)
    with pytest.warns(RuntimeWarning, match="tail"):
        spectral_oracle.integrate(sine, 30.0, t, [t], cfg)


def test_auto_doubling_resolves(sine):
    # same shock as above, but with headroom: doubling must quiet the tail
    # monitor.  The CFL clamp is allowed to fire at the higher resolutions.
    cfg = spectral_oracle.OracleConfig(n_modes=128, max_n_modes=4096)
    t = 1.0 / (480.0 * math.pi)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*tail.*")
        warnings.filterwarnings("ignore", message=".*CFL.*")
        snaps = spectral_oracle.integrate(sine, 30.0, t, [t], cfg)
    assert len(snaps) == 1


def test_blowup_raises(sine):
    cfg = spectral_oracle.OracleConfig(dt=1e-3, integrator="imex-cn-ab2",
                                       cfl_constant=1e9)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(spectral_oracle.OracleError):
            spectral_oracle.integrate(sine, 100.0, 0.05, [0.05], cfg)


def test_save_time_validation(sine):
    with pytest.raises(ValueError):
        spectral_oracle.integrate(sine, 5.0, 1e-3, [1e-3, 5e-4])
    with pytest.raises(ValueError):
        spectral_oracle.integrate(sine, 5.0, 1e-3, [2e-3])


def test_config_validation():
    with pytest.raises(ValueError):
        spectral_oracle.OracleConfig(integrator="rk4")
    with pytest.raises(ValueError):
        spectral_oracle.OracleConfig(n_modes=100)
