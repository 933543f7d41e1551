"""Axiomatic bipartite correlation measures and their nodal-sum distributed
versions: mutual information, classical/quantum discord, local work,
logarithmic negativity, entanglement of formation, plus the Koashi-Winter
bound check.

Discord and local work are maximized over rank-1 projective measurement bases
with a vectorized coarse grid followed by Nelder-Mead refinement.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from . import correlators
from .states import (DensityMatrix, PAULI, partial_trace, partial_transpose,
                     von_neumann_entropy)

GRID_PHI = 60
GRID_THETA = 30
REFINE_TOL = 1e-7


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.n_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.n_qubits} qubits")


def mutual_information(rho2: DensityMatrix) -> float:
    """I = S(A) + S(B) - S(AB), in bits."""
    _require_two_qubits(rho2)
    sa = von_neumann_entropy(partial_trace(rho2, (1,)))
    sb = von_neumann_entropy(partial_trace(rho2, (2,)))
    sab = von_neumann_entropy(rho2)
    return max(0.0, sa + sb - sab)


def _projectors(theta, phi) -> np.ndarray:
    """Rank-1 projective basis with Bloch angles (theta, phi), arrays ok:
    T[..., o, a, b] = conj(w[..., o, a]) w[..., o, b] for outcomes o in {0, 1}."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    u = np.stack([c, e * s], axis=-1)
    v = np.stack([-np.conj(e) * s, c], axis=-1)
    w = np.stack([u, v], axis=-2)
    return np.conj(w)[..., :, None] * w[..., None, :]


@lru_cache(maxsize=4)
def _measurement_grid(n_phi: int, n_theta: int):
    """Projectors of a flattened (theta, phi) grid and its angles."""
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    thetas = np.linspace(0.0, np.pi, n_theta)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    return _projectors(tg.ravel(), pg.ravel()), tg.ravel(), pg.ravel()


def _refine(objective, x0, maxiter: int = 300):
    return minimize(objective, x0=x0, method="Nelder-Mead",
                    options={"fatol": REFINE_TOL, "xatol": 1e-6, "maxiter": maxiter})


def _eig2x2_entropy(mats: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Entropy of stacked unnormalized 2x2 conditional states, weighted by
    outcome probabilities; returns the average conditional entropy per row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(probs > 1e-14, probs, 1.0)
        half_tr = 0.5
        a = mats[..., 0, 0].real / norm
        d = mats[..., 1, 1].real / norm
        off = np.abs(mats[..., 0, 1]) / norm
        disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + off**2, 0.0))
        lam1 = np.clip(half_tr * (a + d) + disc, 1e-16, 1.0)
        lam2 = np.clip(half_tr * (a + d) - disc, 1e-16, 1.0)
        ent = -(lam1 * np.log2(lam1) + lam2 * np.log2(lam2))
    ent = np.where(probs > 1e-14, ent, 0.0)
    return np.sum(probs * ent, axis=-1)


def _outcome_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of outcome probabilities, in bits."""
    p = np.clip(probs, 0.0, None)
    keep = p > 1e-12
    return -np.sum(np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0), axis=-1)


def _conditional_states(rho4: np.ndarray, measured_first: bool, T: np.ndarray):
    """Unnormalized post-measurement states of the unmeasured qubit and the
    outcome probabilities for every basis in T. rho4 is the density matrix
    reshaped to [x1, y1, x2, y2]."""
    if measured_first:
        cond = np.einsum("goab,aybw->goyw", T, rho4, optimize=True)
    else:
        cond = np.einsum("goab,xayb->goxy", T, rho4, optimize=True)
    return cond, np.einsum("goaa->go", cond).real


def _conditional_entropy(rho4, measured_first, T):
    """Average post-measurement entropy of the unmeasured qubit."""
    return _eig2x2_entropy(*_conditional_states(rho4, measured_first, T))


def _one_sided_entropy(rho4, T):
    """Entropy after dephasing the first qubit in each basis of T:
    H(outcomes) + average conditional entropy of the second qubit."""
    cond, probs = _conditional_states(rho4, True, T)
    return _eig2x2_entropy(cond, probs) + _outcome_entropy(probs)


@dataclass(frozen=True)
class OptimizedMeasure:
    value: float
    theta: float
    phi: float
    converged: bool


def classical_discord_detailed(rho2: DensityMatrix, measured_side: str = "second",
                               grid=(GRID_PHI, GRID_THETA), refine: bool = True) -> OptimizedMeasure:
    """CD = S(unmeasured) - min over rank-1 projective bases of the average
    conditional entropy; measurement on `measured_side` ("first" / "second")."""
    _require_two_qubits(rho2)
    if measured_side not in ("first", "second"):
        raise ValueError(f"measured_side must be 'first' or 'second', got {measured_side!r}")
    measured_first = measured_side == "first"
    unmeasured = (2,) if measured_first else (1,)
    s_un = von_neumann_entropy(partial_trace(rho2, unmeasured))
    rho4 = rho2.matrix.reshape(2, 2, 2, 2)

    T, tg, pg = _measurement_grid(*grid)
    cond = _conditional_entropy(rho4, measured_first, T)
    order = np.argsort(cond)
    best_val = float(cond[order[0]])
    best_angles = (float(tg[order[0]]), float(pg[order[0]]))
    converged = True
    if refine:
        converged = False
        for idx in order[:3]:
            res = _refine(lambda x: float(_conditional_entropy(
                rho4, measured_first, _projectors(x[0], x[1])[None])[0]),
                [tg[idx], pg[idx]])
            if res.fun < best_val:
                best_val = float(res.fun)
                best_angles = (float(res.x[0]), float(res.x[1]))
            converged = converged or bool(res.success)
    value = max(0.0, s_un - best_val)
    return OptimizedMeasure(value, best_angles[0], best_angles[1], converged)


def classical_discord(rho2: DensityMatrix, measured_side: str = "second") -> float:
    return classical_discord_detailed(rho2, measured_side).value


def quantum_discord(rho2: DensityMatrix, measured_side: str = "second") -> float:
    """D = I - CD, clipped to be non-negative."""
    return max(0.0, mutual_information(rho2) - classical_discord(rho2, measured_side))


def _dephased_probs(rho4, TA, TB):
    p = np.einsum("aixz,bjyw,xyzw->abij", TA, TB, rho4, optimize=True)
    return np.clip(p.real, 0.0, None)


def local_work(rho2: DensityMatrix, mode: str = "two_sided",
               grid=(16, 9), refine: bool = True) -> float:
    """Locally extractable work: log2(4) minus the minimal entropy after
    dephasing in a product of rank-1 projective bases.

    mode "two_sided" optimizes both sides jointly; "one_sided" dephases only
    the first qubit."""
    _require_two_qubits(rho2)
    rho4 = rho2.matrix.reshape(2, 2, 2, 2)

    if mode == "one_sided":
        T, tg, pg = _measurement_grid(GRID_PHI, GRID_THETA)
        ent = _one_sided_entropy(rho4, T)
        idx = np.argsort(ent)[0]  # not argmin: ties keep the reference start point
        best = float(ent[idx])
        if refine:
            res = _refine(lambda x: float(_one_sided_entropy(
                rho4, _projectors(x[0], x[1])[None])[0]), [tg[idx], pg[idx]])
            best = min(best, float(res.fun))
        return max(0.0, 2.0 - best)

    if mode != "two_sided":
        raise ValueError(f"unknown local_work mode {mode!r}")

    T, tg, pg = _measurement_grid(*grid)
    probs = _dephased_probs(rho4, T, T)
    safe = np.where(probs > 1e-14, probs, 1.0)
    ent = -np.sum(probs * np.log2(safe), axis=(2, 3))
    a0, b0 = np.unravel_index(np.argmin(ent), ent.shape)
    best = float(ent[a0, b0])
    x0 = [tg[a0], pg[a0], tg[b0], pg[b0]]
    if refine:
        res = _refine(lambda x: float(_outcome_entropy(_dephased_probs(
            rho4, _projectors(x[0], x[1])[None], _projectors(x[2], x[3])[None]).ravel())),
            x0, maxiter=600)
        best = min(best, float(res.fun))
    return max(0.0, 2.0 - best)


def log_negativity(rho2: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose; 0 for PPT states."""
    _require_two_qubits(rho2)
    pt = partial_transpose(rho2, (2,))
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    return max(0.0, float(np.log2(trace_norm)))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def concurrence(rho2: DensityMatrix) -> float:
    """Wootters concurrence from the spin-flipped spectrum."""
    _require_two_qubits(rho2)
    yy = np.kron(PAULI["Y"], PAULI["Y"])
    R = rho2.matrix @ yy @ rho2.matrix.conj() @ yy
    evals = np.linalg.eigvals(R).real
    lam = np.sqrt(np.clip(np.sort(evals)[::-1], 0.0, None))
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def entanglement_of_formation(rho2: DensityMatrix) -> float:
    c = concurrence(rho2)
    return _binary_entropy((1 + np.sqrt(max(0.0, 1 - c**2))) / 2)


# The measure registry: name -> (pair, f). A pair measure f(rho2, measured_side)
# is summed over the (nodal, i) reduced pairs by distributed_measure; a
# whole-state measure f(rho, nodal) sees the full register. The lambdas look
# functions up when they run, so a rebound module attribute reaches every call.
MEASURES = {
    "cmax": (True, lambda r, side: correlators.genuine_max(r)[0]),
    "cd": (True, lambda r, side: classical_discord(r, side)),
    "lw": (True, lambda r, side: local_work(r)),
    "qd": (True, lambda r, side: quantum_discord(r, side)),
    "mi": (True, lambda r, side: mutual_information(r)),
    "ln": (True, lambda r, side: log_negativity(r)),
    "eof": (True, lambda r, side: entanglement_of_formation(r)),
    # "lw_half" (half the one-sided work, dephasing the nodal qubit) is the
    # local-work variant that tracks the published per-pair table values
    "lw_one_sided": (True, lambda r, side: local_work(r, "one_sided")),
    "lw_half": (True, lambda r, side: local_work(r, "one_sided") / 2),
    # shared-direction distributed correlator maximum
    "dcmax": (False, lambda rho, nodal: correlators.distributed_cmax(rho, nodal)),
    "genuine_cmax": (False, lambda rho, nodal: correlators.genuine_max(rho)[0]),
}

# direction "left" measures the partner (CD^<-), "right" the nodal qubit
MEASURED_SIDE = {"left": "second", "right": "first"}


def check_measures(kinds) -> None:
    for kind in kinds:
        if kind not in MEASURES:
            raise ValueError(f"unknown measure {kind!r}, expected one of {tuple(MEASURES)}")


def distributed_measure(rho: DensityMatrix, kind: str, nodal: int = 1,
                        direction: str = "left") -> float:
    """Sum of a pair measure over all (nodal, other) reduced pairs."""
    check_measures([kind])
    pair, f = MEASURES[kind]
    if not pair:
        raise ValueError(f"{kind!r} is a whole-state measure, not a pair measure")
    if not 1 <= nodal <= rho.n_qubits:
        raise IndexError(f"nodal qubit {nodal} out of range")
    measured = MEASURED_SIDE[direction]
    total = 0.0
    for i in range(1, rho.n_qubits + 1):
        if i == nodal:
            continue
        total += f(partial_trace(rho, (nodal, i)), measured)
    return total


def evaluate_measure(rho: DensityMatrix, kind: str, nodal: int = 1,
                     direction: str = "left") -> float:
    """Any registry measure of a full state."""
    check_measures([kind])
    pair, f = MEASURES[kind]
    return distributed_measure(rho, kind, nodal, direction) if pair else f(rho, nodal)


def koashi_winter_check(rho: DensityMatrix, nodal: int = 1, refine: bool = True,
                        grid=(GRID_PHI, GRID_THETA)) -> dict:
    """D^EoF + D^CD<- against (N-1) S(rho_nodal), with the cyclic pairing
    B_{N+1} = B_2 for the discord terms.

    With refine=False (or a coarser grid) the discord sum is only
    underestimated, so a passing bound check stays valid."""
    n = rho.n_qubits
    if n < 3:
        raise ValueError("need at least 3 qubits")
    partners = [i for i in range(1, n + 1) if i != nodal]
    lhs = 0.0
    for j, i in enumerate(partners):
        nxt = partners[(j + 1) % len(partners)]
        lhs += entanglement_of_formation(partial_trace(rho, (nodal, i)))
        lhs += classical_discord_detailed(partial_trace(rho, (nodal, nxt)),
                                          "second", grid=grid, refine=refine).value
    bound = (n - 1) * von_neumann_entropy(partial_trace(rho, (nodal,)))
    return {"lhs": lhs, "bound": bound, "holds": lhs <= bound + 1e-8}
