from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cclab
from cclab.channels import make_channel, apply_uniform
from cclab import measures
from cclab.measures import (classical_discord, classical_discord_detailed,
                            concurrence, distributed_measure,
                            entanglement_of_formation, evaluate_measures,
                            koashi_winter_check, local_work, log_negativity,
                            mutual_information, quantum_discord)
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


def test_evaluate_measures_reduces_pairs_once(monkeypatch):
    rho = apply_uniform(pure_to_density(random_pure(4, 34)), make_channel("dpc", 0.3))
    kinds = ["mi", "dcmax", "ln", "eof", "cmax"]
    expected = [distributed_measure(rho, k, 2, "right") if k != "dcmax"
                else measures.correlators.distributed_cmax(rho, 2) for k in kinds]
    calls = []
    original = measures.nodal_pairs
    monkeypatch.setattr(measures, "nodal_pairs",
                        lambda r, nodal: calls.append(nodal) or original(r, nodal))
    assert evaluate_measures(rho, kinds, 2, "right") == expected
    assert calls == [2]
    with pytest.raises(ValueError, match="unknown measure"):
        evaluate_measures(rho, ["mi", "magic"])


def test_discord_computed_once_per_pair(monkeypatch):
    rho = apply_uniform(pure_to_density(random_pure(3, 35)), make_channel("adc", 0.4))
    kinds = ["cd", "qd", "mi"]
    for direction in ("left", "right"):
        separate = [evaluate_measures(rho, [k], 1, direction)[0] for k in kinds]
        calls = []
        original = measures.classical_discord_detailed
        monkeypatch.setattr(measures, "classical_discord_detailed",
                            lambda r, *a, **kw: calls.append(r) or original(r, *a, **kw))
        together = evaluate_measures(rho, kinds, 1, direction)
        monkeypatch.undo()
        # one discord per (1, i) pair of the 3-qubit state, none again for qd
        assert len(calls) == 2 and calls[0] is not calls[1]
        assert together == separate  # bit for bit
        cd, qd, mi = together
        assert qd + cd == pytest.approx(mi, abs=1e-12)


def test_returned_angles_reproduce_value(monkeypatch):
    """Each objective, evaluated at the angles a search returns, gives back
    its value: every measured qubit's angles from each zoom, the first
    qubit's from _minimize."""
    rho2 = apply_uniform(pure_to_density(random_pure(2, 71)), make_channel("adc", 0.3))
    runs, zooms = [], []
    minimize, zoom = measures._minimize, measures._zoom

    def spy_minimize(f, sides, *args, **kwargs):
        runs.append((f, sides, minimize(f, sides, *args, **kwargs)))
        return runs[-1][2]

    def spy_zoom(f, sides, *args):
        zooms.append((f, sides, zoom(f, sides, *args)))
        return zooms[-1][2]

    monkeypatch.setattr(measures, "_minimize", spy_minimize)
    monkeypatch.setattr(measures, "_zoom", spy_zoom)
    discord = [classical_discord_detailed(rho2, side) for side in ("first", "second")]
    local_work(rho2, "one_sided")
    local_work(rho2, "two_sided")
    assert [sides for _, sides, _ in runs] == [1, 1, 1, 2]
    assert [(r.theta, r.phi) for r in discord] == [(r.theta, r.phi) for _, _, r in runs[:2]]
    # discord zooms from 3 grid points, local work from 1
    assert [sum(g is f for g, _, _ in zooms) for f, _, _ in runs] == [3, 3, 1, 1]
    for f, sides, (value, x, converged) in zooms:
        assert converged
        bases = [measures._projectors(x[i], x[i + 1])[None] for i in range(0, 2 * sides, 2)]
        assert f(*bases).item() == pytest.approx(value, abs=1e-12)
    for f, sides, res in runs:
        assert res.converged
        value, x = min(((v, x) for g, _, (v, x, _) in zooms if g is f), key=lambda vx: vx[0])
        assert res.value == value and (res.theta, res.phi) == (x[0], x[1])


def test_import_leaves_scipy_out():
    """cclab needs numpy only: importing it must not load scipy."""
    src = Path(cclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, cclab, cclab.cli; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


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
