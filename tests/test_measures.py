from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import cclab
from cclab.channels import make_channel, apply_uniform
from cclab import measures
from cclab.measures import (classical_discord, classical_discord_detailed,
                            distributed_measure,
                            entanglement_of_formation, evaluate_measures,
                            koashi_winter_check, local_work, log_negativity,
                            evaluate_block, mutual_information, quantum_discord)
from cclab.sampling import SamplerConfig, sample_state
from cclab.states import (PAULI, DensityMatrix, PureState, fano, pair_forms,
                          partial_trace, pure_to_density, von_neumann_entropy)
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
    # concurrence 1 and 0 give EoF 1 and 0
    assert entanglement_of_formation(bell_rho()) == pytest.approx(1.0)
    assert entanglement_of_formation(product_rho()) == pytest.approx(0.0, abs=1e-8)
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
    calls, rebuilt = [], []
    original, density = measures.pair_forms, measures.density
    monkeypatch.setattr(measures, "pair_forms",
                        lambda F, nodal: calls.append(nodal) or original(F, nodal))
    monkeypatch.setattr(measures, "density",
                        lambda F, n: rebuilt.append(F.shape) or density(F, n))
    assert evaluate_measures(rho, kinds, 2, "right") == expected
    # the pairs are sliced once; mi and eof share one rebuilt matrix per pair,
    # and ln rebuilds each pair's partial transpose
    assert calls == [2] and rebuilt == [(3, 4, 4)] * 2
    with pytest.raises(ValueError, match="unknown measure"):
        evaluate_measures(rho, ["mi", "magic"])


def test_discord_computed_once_per_pair(monkeypatch):
    rho = apply_uniform(pure_to_density(random_pure(3, 35)), make_channel("adc", 0.4))
    kinds = ["cd", "qd", "mi"]
    for direction in ("left", "right"):
        separate = [evaluate_measures(rho, [k], 1, direction)[0] for k in kinds]
        calls = []
        original = measures._minimize
        monkeypatch.setattr(measures, "_minimize",
                            lambda f, F, *a, **kw: calls.append((f, len(F))) or original(f, F, *a, **kw))
        together = evaluate_measures(rho, kinds, 1, direction)
        monkeypatch.undo()
        # one discord search, one row per (1, i) pair of the 3-qubit state,
        # none again for qd
        assert calls == [(measures._conditional_entropy, 2)]
        assert together == separate  # bit for bit
        cd, qd, mi = together
        assert qd + cd == pytest.approx(mi, abs=1e-12)


def test_returned_angles_reproduce_value(monkeypatch):
    """Each Fano objective, evaluated at the angles a search returns, gives
    back its value: every row's measured-qubit angles from each zoom, the
    first qubit's from _minimize."""
    rho2 = apply_uniform(pure_to_density(random_pure(2, 71)), make_channel("adc", 0.3))
    runs, zooms = [], []
    minimize, zoom = measures._minimize, measures._zoom

    def spy_minimize(f, F, sides, *args, **kwargs):
        runs.append((f, sides, minimize(f, F, sides, *args, **kwargs)))
        return runs[-1][2]

    def spy_zoom(f, F, *args):
        zooms.append((f, F, zoom(f, F, *args)))
        return zooms[-1][2]

    monkeypatch.setattr(measures, "_minimize", spy_minimize)
    monkeypatch.setattr(measures, "_zoom", spy_zoom)
    discord = [classical_discord_detailed(rho2, side) for side in ("first", "second")]
    local_work(rho2, "one_sided")
    local_work(rho2, "two_sided")
    assert [sides for _, sides, _ in runs] == [1, 1, 1, 2]
    assert [(r.theta, r.phi) for r in discord] == [(r.theta[0], r.phi[0]) for _, _, r in runs[:2]]
    # one lockstep zoom per search: discord's rows start from 3 grid bases,
    # local work's from 1
    assert [(g, len(F)) for g, F, _ in zooms] == [(f, n) for (f, _, _), n in zip(runs, (3, 3, 1, 1))]
    for f, F, (value, x, converged) in zooms:
        assert converged.all()
        for r in range(len(F)):
            bases = [measures._bloch(*angles)[None] for angles in x[r]]
            assert f(F[r:r + 1], *bases).item() == pytest.approx(value[r], abs=1e-12)
    for (_, _, res), (_, _, (value, x, _)) in zip(runs, zooms):
        k = int(np.argmin(value))
        assert res.converged[0]
        assert res.value[0] == value[k] and (res.theta[0], res.phi[0]) == tuple(x[k, 0])


def _noisy_pairs(count):
    """Fano forms of the (1, 2) and (1, 3) pairs of noisy seeded 3-qubit states."""
    out = []
    for i in range(count // 2):
        rho = apply_uniform(pure_to_density(random_pure(3, 200 + i)),
                            make_channel(("pdc", "dpc", "adc")[i % 3], 0.25))
        out.append(pair_forms(fano(rho.matrix[None]), 1)[0])
    return np.concatenate(out)


SEARCHES = {
    "cd_first": lambda F: measures._discord(F, "first"),
    "cd_second": lambda F: measures._discord(F, "second"),
    "lw_one_sided": lambda F: measures._local_work(F, "one_sided"),
    "lw_two_sided": lambda F: measures._local_work(F, "two_sided"),
}


@pytest.mark.parametrize("search", SEARCHES)
def test_search_row_independent_of_stack(search):
    """A row of a 64-row batched search has the value, angles and converged
    flag, bit for bit, of the same row searched alone."""
    F = _noisy_pairs(64)
    stacked = SEARCHES[search](F)
    for r in range(0, 64, 9):
        alone = SEARCHES[search](F[r:r + 1])
        assert [v[0] for v in astuple(alone)] == [v[r] for v in astuple(stacked)], r


@pytest.mark.parametrize("grid,count", [((60, 30), 841), (measures.LW_GRID, 57),
                                        ((24, 12), 121), ((8, 5), 13), ((7, 5), 22)])
def test_basis_grid_holds_each_basis_once(grid, count):
    n, tg, pg = measures._basis_grid(*grid)
    assert len(n) == len(tg) == len(pg) == count
    assert np.allclose(n, measures._bloch(tg, pg))
    # n and m are one basis when |n . m| = 1
    same = np.abs(n @ n.T) > 1 - 1e-9
    assert np.array_equal(same, np.eye(count, dtype=bool))
    phis = np.linspace(0.0, 2 * np.pi, grid[0], endpoint=False)
    thetas = np.linspace(0.0, np.pi, grid[1])
    full = measures._bloch(thetas[:, None], phis[None, :]).reshape(-1, 3)
    assert np.all(np.abs(full @ n.T).max(axis=1) > 1 - 1e-12)  # no basis dropped


def test_pure_pairs_discord_is_marginal_entropy():
    """A pure pair (every N=2 Haar sample) has cd = qd = S(rho_A) measured on
    either side; pure marginals also reach |r| = 1 and the log of zero."""
    cfg = SamplerConfig(2, count=12, master_seed=4)
    rhos = [pure_to_density(sample_state(cfg, i)) for i in range(cfg.count)]
    rhos.append(pure_to_density(PureState.basis(2, 2)))
    for direction in ("left", "right"):
        values, _ = evaluate_block(fano(np.array([r.matrix for r in rhos])), ["cd", "qd"], 1,
                                   direction)
        for (cd, qd), rho in zip(values, rhos):
            s_a = von_neumann_entropy(partial_trace(rho, (1,)))
            assert cd == pytest.approx(s_a, abs=1e-9)
            assert qd == pytest.approx(s_a, abs=1e-9)


def _haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _bell_diagonal_states():
    """(c, rho) for Bell-diagonal rho = (I + sum_j c_j sigma_j x sigma_j) / 4
    after random local unitaries, and after small x rotations that tilt the
    optimal axis (z) off the grid's pole but not as far as its next row."""
    rng = np.random.default_rng(12)
    paulis = [PAULI[k] for k in "XYZ"]
    tilt = [np.cos(a / 2) * np.eye(2) - 1j * np.sin(a / 2) * PAULI["X"] for a in (0.03, -0.05)]
    out = []
    while len(out) < 14:
        c = rng.uniform(-1, 1, 3)
        if len(out) >= 12:
            c[2] = np.sign(c[2]) * (np.max(np.abs(c)) + 0.1)
        m = (np.eye(4) + sum(cj * np.kron(p, p) for cj, p in zip(c, paulis))) / 4
        if np.linalg.eigvalsh(m)[0] < 0:
            continue
        u = np.kron(*tilt) if len(out) >= 12 else np.kron(_haar_unitary(rng), _haar_unitary(rng))
        out.append((c, DensityMatrix(2, u @ m @ u.conj().T)))
    return out


def test_bell_diagonal_matches_luo_closed_form():
    """A Bell-diagonal state has classical correlation 1 - h((1 + c) / 2),
    c = max_j |c_j| (Luo, PRA 77, 042303 (2008)), from either side and after
    any local unitary. With no local Bloch vectors, the one-sided local work
    log2(4) - min_n [1 + h((1 + |Tn|) / 2)] is the same number."""
    for c, rho2 in _bell_diagonal_states():
        q = (1 + np.max(np.abs(c))) / 2
        want = 1 + q * np.log2(q) + (1 - q) * np.log2(1 - q)
        for side in ("first", "second"):
            res = classical_discord_detailed(rho2, side)
            assert res.converged and res.value == pytest.approx(want, abs=1e-7)
            assert quantum_discord(rho2, side) == pytest.approx(
                mutual_information(rho2) - want, abs=1e-7)
        assert local_work(rho2, "one_sided") == pytest.approx(want, abs=1e-7)


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
