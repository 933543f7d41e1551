from __future__ import annotations

import numpy as np
import pytest

from cclab.correlators import (correlator, correlator_set, distributed_cmax,
                               distributed_correlator, genuine_max,
                               nongenuine_max, parse_index)
from cclab.measures import distributed_measure
from cclab.states import DensityMatrix, PureState, pure_to_density
from conftest import random_density


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


def test_nongenuine_requires_strict_subset(w3):
    with pytest.raises(ValueError):
        nongenuine_max(w3, (1, 2, 3))
    value, labels = nongenuine_max(w3, (1, 2))
    # W pair marginal: C_zz = 1/3, C_xx = C_yy = 2/3
    assert value == pytest.approx(2 / 3)
    assert labels in (("X", "X"), ("Y", "Y"))


def test_correlator_set_levels(w3):
    cs = correlator_set(w3)
    assert sorted(cs.levels) == [1, 2, 3]
    assert len(cs.levels[2]) == 3
    assert cs.levels[3][(1, 2, 3)][0] == pytest.approx(1.0)
    for v in cs.values_at(2):
        assert v == pytest.approx(2 / 3)


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


def test_distributed_nodal_validation(w3):
    with pytest.raises(IndexError):
        distributed_cmax(w3, nodal=4)
    with pytest.raises(IndexError):
        distributed_correlator(w3, ("Z", "Z"), nodal=0)


def test_unknown_mode(w3):
    with pytest.raises(ValueError):
        genuine_max(w3, "sideways")
