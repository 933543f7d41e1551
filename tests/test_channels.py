from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab.channels import (KINDS, KrausChannel, apply_local, apply_uniform,
                            make_channel)
from cclab.states import DensityMatrix, PureState, pure_to_density
from conftest import random_density


def test_make_channel_validation():
    with pytest.raises(ValueError):
        make_channel("xyz", 0.1)
    with pytest.raises(ValueError):
        make_channel("pdc", 1.5)
    with pytest.raises(ValueError):
        make_channel("adc", -0.1)


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel("bad", 0.5, (np.eye(2) * 0.5,))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_channels_complete(kind, p):
    ch = make_channel(kind, p)
    total = sum(K.conj().T @ K for K in ch.kraus_ops)
    assert np.allclose(total, np.eye(2), atol=1e-12)


def _closed_form_ptm(kind, p):
    """R[i, j] = tr(sigma_i E(sigma_j)) / 2 from each channel's law: PDC and
    DPC shrink the Bloch vector's xy (and z) components, ADC shrinks x and y
    by sqrt(1 - p) and maps z to (1 - p) z + p."""
    if kind == "pdc":
        return np.diag([1.0, 1 - p, 1 - p, 1.0])
    if kind == "dpc":
        return np.diag([1.0] + [1 - 4 * p / 3] * 3)
    R = np.diag([1.0, np.sqrt(1 - p), np.sqrt(1 - p), 1 - p])
    R[3, 0] = p
    return R


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [0.0, 0.2, 0.37, 0.75, 1.0])
def test_ptm_matches_closed_form(kind, p):
    assert np.max(np.abs(make_channel(kind, p).ptm - _closed_form_ptm(kind, p))) <= 1e-15


def test_p_zero_is_identity():
    rho = random_density(3, 0)
    for kind in KINDS:
        out = apply_uniform(rho, make_channel(kind, 0.0))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)


def test_adc_p_one_pumps_to_ground():
    rho = random_density(2, 1)
    out = apply_uniform(rho, make_channel("adc", 1.0))
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    assert np.allclose(out.matrix, expect, atol=1e-12)


def test_dpc_p_three_quarters_depolarizes():
    rho = random_density(2, 2)
    out = apply_uniform(rho, make_channel("dpc", 0.75))
    assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)


def test_pdc_kills_single_qubit_coherence():
    plus = pure_to_density(PureState.from_amplitudes(np.array([1, 1]) / np.sqrt(2)))
    out = apply_local(plus, make_channel("pdc", 1.0), (1,))
    assert abs(out.matrix[0, 1]) < 1e-12


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS),
       p=st.floats(0.0, 1.0),
       seed=st.integers(0, 10**6))
def test_cptp_property(kind, p, seed):
    """Output stays trace-1 and positive for random states and strengths."""
    rho = random_density(3, seed)
    out = apply_uniform(rho, make_channel(kind, p))
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(KINDS), p=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
def test_site_order_irrelevant(kind, p, seed):
    rho = random_density(3, seed)
    ch = make_channel(kind, p)
    a = apply_local(apply_local(rho, ch, (1,)), ch, (2,))
    b = apply_local(apply_local(rho, ch, (2,)), ch, (1,))
    assert np.allclose(a.matrix, b.matrix, atol=1e-12)


def test_apply_local_site_validation():
    rho = random_density(2, 3)
    ch = make_channel("pdc", 0.2)
    with pytest.raises(IndexError):
        apply_local(rho, ch, (0,))
    with pytest.raises(IndexError):
        apply_local(rho, ch, (3,))


def test_heterogeneous_matches_sequential():
    # distinct channels on sites 1 and 3, applied one after the other, equal
    # the dense Kraus sum of their tensor product
    rho = random_density(3, 4)
    a, b = make_channel("pdc", 0.2), make_channel("adc", 0.5)
    out = apply_local(apply_local(rho, a, (1,)), b, (3,))
    ref = np.zeros((8, 8), dtype=complex)
    for Ka in a.kraus_ops:
        for Kb in b.kraus_ops:
            big = np.kron(np.kron(Ka, np.eye(2)), Kb)
            ref += big @ rho.matrix @ big.conj().T
    assert np.allclose(out.matrix, ref, atol=1e-12)


def _dense_kraus_sum(rho, ch, sites):
    """sum over one Kraus operator per site in `sites` of the full-register
    operator K rho K^dagger."""
    out = np.zeros_like(rho.matrix)
    for ops in itertools.product(ch.kraus_ops, repeat=len(sites)):
        big = np.eye(1)
        for q in range(1, rho.n_qubits + 1):
            big = np.kron(big, ops[sites.index(q)] if q in sites else np.eye(2))
        out += big @ rho.matrix @ big.conj().T
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_apply_local_matches_dense_kraus_sum(n, kind):
    rho = random_density(n, 10 + n)
    ch = make_channel(kind, 0.37)
    for sites in ((1,), (n,), (n, 1), tuple(range(1, n + 1))):
        out = apply_local(rho, ch, sites)
        assert np.max(np.abs(out.matrix - _dense_kraus_sum(rho, ch, sites))) <= 1e-15, sites


def test_single_site_action_matches_dense_kraus_sum():
    rho = random_density(2, 5)
    ch = make_channel("adc", 0.3)
    out = apply_local(rho, ch, (2,))
    ref = np.zeros((4, 4), dtype=complex)
    for K in ch.kraus_ops:
        big = np.kron(np.eye(2), K)
        ref += big @ rho.matrix @ big.conj().T
    assert np.allclose(out.matrix, ref, atol=1e-12)
