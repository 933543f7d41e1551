from __future__ import annotations

import itertools

import numpy as np
import pytest

from cclab.correlators import (correlator, distributed_cmax,
                               distributed_correlator, genuine_max, parse_index)
from cclab.measures import distributed_measure
from cclab.states import DensityMatrix, PureState, partial_trace, pure_to_density
from conftest import dense_pauli_expectation, random_density


def test_parse_index():
    assert parse_index("zzz") == ("Z", "Z", "Z")
    assert parse_index("xy.z") == ("X", "Y", "I", "Z")
    with pytest.raises(ValueError):
        parse_index("ab")
    with pytest.raises(ValueError):
        parse_index("...")


def test_correlator_is_rescaled(w3):
    # W state: <ZZZ> = -1/3 + ... each branch has one excitation -> product -1
    assert correlator(w3, ("Z", "Z", "Z")) == pytest.approx(1.0)


def test_genuine_max_w3(w3):
    value, labels = genuine_max(w3)
    assert value == pytest.approx(1.0)
    assert labels == ("Z", "Z", "Z")


def test_genuine_max_gghz_equator():
    g = pure_to_density(PureState.generalized_ghz(3, np.pi / 2))
    value, labels = genuine_max(g)
    assert value == pytest.approx(1.0)
    assert labels == ("X", "X", "X")
    assert correlator(g, ("Z", "Z", "Z")) == pytest.approx(0.0, abs=1e-12)


def test_genuine_max_maximally_mixed():
    value, _ = genuine_max(DensityMatrix.maximally_mixed(3))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_full_search_beats_same_pauli():
    # |+>|0> has max correlator XZ = 1, invisible to same-Pauli search
    psi = PureState.from_amplitudes(np.array([1, 0, 1, 0]) / np.sqrt(2))
    rho = pure_to_density(psi)
    same, _ = genuine_max(rho, "same_pauli")
    full, labels = genuine_max(rho, "full_search")
    assert full == pytest.approx(1.0)
    assert labels == ("X", "Z")
    assert full >= same


@pytest.mark.parametrize("mode", ["same_pauli", "full_search"])
def test_genuine_max_matches_brute_force(mode):
    """Both modes at n = 3 against enumerating the candidate labels with the
    dense Kronecker-product reference: the maximum, and the first candidate
    within 1e-15 of it."""
    candidates = ([(lab,) * 3 for lab in "XYZ"] if mode == "same_pauli"
                  else list(itertools.product("XYZ", repeat=3)))
    for seed in range(6):
        rho = random_density(3, 40 + seed)
        values = [abs(dense_pauli_expectation(rho.matrix, c).real) for c in candidates]
        value, labels = genuine_max(rho, mode)
        assert value == pytest.approx(max(values), abs=1e-14)
        assert labels == candidates[int(np.argmax(values))]


@pytest.mark.parametrize("mode", ["same_pauli", "full_search"])
def test_genuine_max_tie_rule(bell, mode):
    # the Bell state has |XX| = |YY| = |ZZ| = 1 up to rounding: the first
    # candidate within 1e-15 of the maximum wins
    value, labels = genuine_max(bell, mode)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert labels == ("X", "X")


def test_w_pair_marginal_genuine_max(w3):
    # every W pair marginal: C_zz = 1/3, C_xx = C_yy = 2/3
    for keep in ((1, 2), (1, 3), (2, 3)):
        value, labels = genuine_max(partial_trace(w3, keep))
        assert value == pytest.approx(2 / 3)
        assert labels in (("X", "X"), ("Y", "Y"))


def test_distributed_correlator_w3(w3):
    assert distributed_correlator(w3, ("Z", "Z")) == pytest.approx(2 / 3)
    assert distributed_correlator(w3, ("X", "X")) == pytest.approx(4 / 3)


def test_distributed_cmax_shared_direction(w3):
    # shared direction: max_j sum over the two nodal pairs
    assert distributed_cmax(w3) == pytest.approx(4 / 3)
    # per-pair maxima: the registry's pair measure "cmax"
    assert distributed_measure(w3, "cmax") == pytest.approx(4 / 3)


def test_distributed_cmax_shared_vs_per_pair():
    # pair (1,2) maximal in ZZ, pair (1,3) maximal in XX: per-pair sum wins
    rho = random_density(3, 12)
    shared = distributed_cmax(rho)
    per_pair = distributed_measure(rho, "cmax")
    assert per_pair >= shared - 1e-12
    assert shared == max(distributed_correlator(rho, (lab, lab)) for lab in "XYZ")


@pytest.mark.parametrize("mode", ["same_pauli", "full_search"])
def test_distributed_cmax_matches_pauli_expectations(mode):
    """The Fano-form distributed maximum equals the maximum, over the
    candidate label pairs, of the summed pair correlators from
    pauli_expectation."""
    rho = random_density(4, 13)
    labels = ([(lab, lab) for lab in "XYZ"] if mode == "same_pauli"
              else [(a, b) for a in "XYZ" for b in "XYZ"])
    pairs = [partial_trace(rho, (2, i)) for i in (1, 3, 4)]
    want = max(sum(correlator(r, lab) for r in pairs) for lab in labels)
    assert distributed_cmax(rho, 2, mode) == pytest.approx(want, abs=1e-15)
    for lab in labels:
        assert distributed_correlator(rho, lab, 2) == pytest.approx(
            sum(correlator(r, lab) for r in pairs), abs=1e-15)
    with pytest.raises(ValueError):
        distributed_cmax(rho, 2, "sideways")


def test_distributed_nodal_validation(w3):
    with pytest.raises(IndexError):
        distributed_cmax(w3, nodal=4)
    with pytest.raises(IndexError):
        distributed_correlator(w3, ("Z", "Z"), nodal=0)


def test_unknown_mode(w3):
    with pytest.raises(ValueError):
        genuine_max(w3, "sideways")
