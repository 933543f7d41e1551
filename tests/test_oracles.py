from __future__ import annotations

import numpy as np
import pytest

from cclab import oracles
from cclab.channels import make_channel, apply_uniform
from cclab.correlators import correlator, distributed_correlator
from cclab.states import PureState, pure_to_density
from conftest import random_pure


@pytest.mark.parametrize("N,k", [(2, 1), (3, 2), (4, 4), (5, 3)])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_pdc_xy_sum_collapses_to_power_law(N, k, p):
    # the alternating binomial sum telescopes to (1-p)^k
    assert oracles.pdc_xy_multiplier(N, k, p) == pytest.approx((1 - p) ** k, abs=1e-12)


def test_pdc_multiplier_z_plane_is_one():
    assert oracles.pdc_multiplier(4, 2, 0.9, "z") == 1.0


def test_pdc_xy_validation():
    with pytest.raises(ValueError):
        oracles.pdc_xy_multiplier(3, 4, 0.2)
    with pytest.raises(ValueError):
        oracles.pdc_xy_multiplier(3, 2, 1.2)


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("p", [0.1, 0.4, 0.8])
def test_pdc_distributed_multiplier_matches_pair_law(N, p):
    # grouped form must agree with the plain k=2 multiplier
    assert oracles.pdc_distributed_multiplier(N, p) == pytest.approx(
        oracles.pdc_xy_multiplier(N, 2, p), abs=1e-12)


def test_pdc_distributed_zz_passthrough():
    # nodal zz pair sums pass through PDC; xx sums take the distributed multiplier
    rho = pure_to_density(random_pure(4, 17))
    out = apply_uniform(rho, make_channel("pdc", 0.4))
    assert distributed_correlator(out, ("Z", "Z")) == pytest.approx(
        distributed_correlator(rho, ("Z", "Z")), abs=1e-12)
    assert distributed_correlator(out, ("X", "X")) == pytest.approx(
        oracles.pdc_distributed_multiplier(4, 0.4) * distributed_correlator(rho, ("X", "X")),
        abs=1e-12)


def test_dpc_genuine_multiplier_numeric():
    rho = pure_to_density(random_pure(3, 21))
    p = 0.35
    out = apply_uniform(rho, make_channel("dpc", p))
    mult = abs(oracles.dpc_genuine_multiplier(3, p))
    for lab in ("X", "Y", "Z"):
        labels = (lab,) * 3
        assert correlator(out, labels) == pytest.approx(
            mult * correlator(rho, labels), abs=1e-12)


def test_adc_xy_multiplier_values():
    assert oracles.adc_xy_multiplier(2, 0.19) == pytest.approx(0.81)
    assert oracles.adc_xy_multiplier(3, 0.0) == 1.0
    with pytest.raises(ValueError):
        oracles.adc_xy_multiplier(0, 0.5)


def test_gw_adc_final_state_matches_engine():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    p = 0.45
    exact = oracles.gw_adc_final_state(a, p)
    numeric = apply_uniform(pure_to_density(PureState.generalized_w(a)),
                            make_channel("adc", p))
    assert np.allclose(exact.matrix, numeric.matrix, atol=1e-12)


def test_gw_adc_z_correlator_w3_full_weight():
    w_amps = np.full(3, 1 / np.sqrt(3))
    p = 0.3
    # the closed form gives (1 + 2p)/3 for the genuine W^3 correlator
    assert oracles.gw_adc_z_correlator(w_amps, 3, p) == pytest.approx((1 + 2 * p) / 3)
    # the leading-sites variant agrees with the numeric engine instead
    lead = oracles.gw_adc_z_correlator_leading(w_amps, 3, p)
    numeric = correlator(
        apply_uniform(pure_to_density(PureState.w_state(3)), make_channel("adc", p)),
        ("Z", "Z", "Z"))
    assert lead == pytest.approx(numeric, abs=1e-12)
    assert lead == pytest.approx(abs(1 - 2 * p), abs=1e-12)


def test_gw_adc_z_correlator_leading_partial_weight():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)
    p = 0.25
    for k in (1, 2):
        numeric = correlator(
            apply_uniform(pure_to_density(PureState.generalized_w(a)),
                          make_channel("adc", p)),
            ("Z",) * k + ("I",) * (3 - k))
        assert oracles.gw_adc_z_correlator_leading(a, k, p) == pytest.approx(
            numeric, abs=1e-12)


def test_gw_adc_z_correlator_rejects_unnormalized():
    with pytest.raises(ValueError):
        oracles.gw_adc_z_correlator([1.0, 1.0], 1, 0.2)


def test_gw_pair_xx_numeric():
    rng = np.random.default_rng(17)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)
    p = 0.3
    out = apply_uniform(pure_to_density(PureState.generalized_w(a)),
                        make_channel("adc", p))
    # term i's excitation sits at basis integer 2^(i-1), i.e. site N-i+1;
    # the (site N, site N-i+1) pair carries the a_1 a_i^* coherence
    from cclab.states import partial_trace
    pair = partial_trace(out, (2, 3))
    assert oracles.gw_pair_xx(a, 2, p) == pytest.approx(
        correlator(pair, ("X", "X")), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.9, np.pi / 2, np.pi])
def test_gghz_adc_zz_numeric(theta):
    p = 0.4
    g = pure_to_density(PureState.generalized_ghz(3, theta))
    out = apply_uniform(g, make_channel("adc", p))
    assert correlator(out, ("Z", "Z", "I")) == pytest.approx(
        abs(oracles.gghz_adc_zz(theta, p)), abs=1e-12)


def test_gghz_adc_distributed_zz():
    # every nodal pair of a noisy gGHZ state carries the same zz correlator
    g = pure_to_density(PureState.generalized_ghz(4, 0.7))
    out = apply_uniform(g, make_channel("adc", 0.2))
    assert distributed_correlator(out, ("Z", "Z")) == pytest.approx(
        3 * abs(oracles.gghz_adc_zz(0.7, 0.2)), abs=1e-12)


def test_discrimination_closed_forms_w3():
    forms = oracles.discrimination_closed_forms(3, 0.3)
    assert forms["pdc"] == 1.0
    assert forms["adc"] == pytest.approx(abs(2 * 0.3 - 1))
    assert forms["dpc"] == pytest.approx(abs(1 - 0.4) ** 3)


def test_equivalence_sweep_small():
    rows = oracles.oracle_equivalence_sweep(
        n_values=(2, 3), p_values=[0.0, 0.5, 1.0], states_per_cell=10,
        include_mixed_pauli_dpc=True)
    assert max(r["max_dev"] for r in rows) < 1e-10
    checks = {r["check"] for r in rows}
    assert {"pdc_xy", "pdc_z_invariance", "adc_xy", "dpc_genuine_x",
            "dpc_genuine_mixed", "gw_adc_state", "gghz_adc_zz"} <= checks
