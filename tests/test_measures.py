from __future__ import annotations

import numpy as np
import pytest

from cclab.channels import make_channel, apply_uniform
from cclab.measures import (classical_discord, classical_discord_detailed,
                            concurrence, distributed_measure,
                            entanglement_of_formation, koashi_winter_check,
                            local_work, log_negativity, mutual_information,
                            quantum_discord)
from cclab.states import DensityMatrix, PureState, pure_to_density
from conftest import random_density, random_pure


def bell_rho():
    return pure_to_density(PureState.from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2)))


def classically_correlated():
    return DensityMatrix(2, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def product_rho():
    return pure_to_density(PureState.basis(2, 1))


def test_mutual_information_landmarks():
    assert mutual_information(bell_rho()) == pytest.approx(2.0)
    assert mutual_information(classically_correlated()) == pytest.approx(1.0)
    assert mutual_information(product_rho()) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        mutual_information(DensityMatrix.maximally_mixed(3))


def test_classical_discord_landmarks():
    assert classical_discord(bell_rho()) == pytest.approx(1.0, abs=1e-6)
    assert classical_discord(classically_correlated()) == pytest.approx(1.0, abs=1e-6)
    assert classical_discord(product_rho()) == pytest.approx(0.0, abs=1e-9)


def test_classical_discord_detailed_reports_basis():
    res = classical_discord_detailed(bell_rho())
    assert res.converged
    assert 0 <= res.theta <= np.pi
    with pytest.raises(ValueError):
        classical_discord_detailed(bell_rho(), measured_side="up")


def test_quantum_discord_landmarks():
    assert quantum_discord(bell_rho()) == pytest.approx(1.0, abs=1e-6)
    assert quantum_discord(classically_correlated()) == pytest.approx(0.0, abs=1e-6)
    assert quantum_discord(product_rho()) == pytest.approx(0.0, abs=1e-9)


def test_discord_direction_asymmetry():
    # classical flag on the first qubit, non-orthogonal states on the second
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    r0 = pure_to_density(PureState.from_amplitudes(np.array([1.0, 0.0])))
    r1 = pure_to_density(PureState.from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2)))
    m = 0.5 * np.kron(p0, r0.matrix) + 0.5 * np.kron(p1, r1.matrix)
    rho = DensityMatrix(2, m)
    left = classical_discord(rho, "first")
    right = classical_discord(rho, "second")
    assert abs(left - right) > 0.05


def test_local_work_landmarks():
    assert local_work(DensityMatrix.maximally_mixed(2)) == pytest.approx(0.0, abs=1e-9)
    assert local_work(pure_to_density(PureState.basis(2, 0))) == pytest.approx(2.0, abs=1e-9)
    assert local_work(bell_rho()) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        local_work(bell_rho(), mode="three_sided")


def test_local_work_one_sided_dominates_two_sided():
    # dephasing one side only can never raise entropy above the two-sided min
    for seed in range(4):
        rho = random_density(2, 40 + seed)
        assert local_work(rho, "one_sided") >= local_work(rho, "two_sided") - 1e-6


def test_log_negativity():
    assert log_negativity(bell_rho()) == pytest.approx(1.0)
    assert log_negativity(classically_correlated()) == pytest.approx(0.0, abs=1e-12)
    assert log_negativity(product_rho()) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_and_eof():
    assert concurrence(bell_rho()) == pytest.approx(1.0)
    assert entanglement_of_formation(bell_rho()) == pytest.approx(1.0)
    assert concurrence(product_rho()) == pytest.approx(0.0, abs=1e-8)
    assert entanglement_of_formation(classically_correlated()) == pytest.approx(0.0, abs=1e-8)


def test_pair_measure_dispatch():
    # on a 2-qubit state the nodal sum is the single pair (1, 2)
    rho = bell_rho()
    assert distributed_measure(rho, "mi") == pytest.approx(2.0)
    assert distributed_measure(rho, "cmax") == pytest.approx(1.0)
    assert distributed_measure(rho, "lw_half") == pytest.approx(
        distributed_measure(rho, "lw_one_sided") / 2)
    with pytest.raises(ValueError):
        distributed_measure(rho, "magic")
    with pytest.raises(ValueError):
        distributed_measure(rho, "dcmax")  # a whole-state measure


def test_measures_nonnegative_on_noisy_states():
    rho = pure_to_density(random_pure(2, 33))
    out = apply_uniform(rho, make_channel("adc", 0.4))
    for kind in ("cmax", "cd", "lw", "qd", "mi", "ln", "eof"):
        assert distributed_measure(out, kind) >= -1e-9


def test_distributed_measure_sums_pairs(w3):
    # W pair marginals are identical, so the distributed value is twice one pair
    from cclab.states import partial_trace
    pair = partial_trace(w3, (1, 2))
    assert distributed_measure(w3, "mi") == pytest.approx(2 * mutual_information(pair))
    with pytest.raises(IndexError):
        distributed_measure(w3, "mi", nodal=5)


def test_koashi_winter_on_pure_states():
    for seed in range(3):
        rho = pure_to_density(random_pure(3, 50 + seed))
        res = koashi_winter_check(rho)
        assert res["holds"]
        assert res["lhs"] <= res["bound"] + 1e-8
    with pytest.raises(ValueError):
        koashi_winter_check(bell_rho())


def test_koashi_winter_coarse_grid_is_conservative():
    rho = pure_to_density(random_pure(3, 60))
    fine = koashi_winter_check(rho)
    coarse = koashi_winter_check(rho, refine=False, grid=(24, 12))
    assert coarse["lhs"] <= fine["lhs"] + 1e-9
