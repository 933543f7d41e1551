"""Axiomatic bipartite correlation measures and their nodal-sum distributed
versions: mutual information, classical/quantum discord, local work,
logarithmic negativity, entanglement of formation, plus the Koashi-Winter
bound check.

Discord and local work minimize an entropy over rank-1 projective measurement
bases; `_minimize` is the one search routine for both: a vectorized coarse
grid, then Nelder-Mead refinement from its best points.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from . import correlators
from .states import (DensityMatrix, PAULI, nodal_pairs, partial_trace,
                     partial_transpose, shannon_entropy, von_neumann_entropy)

GRID_PHI = 60
GRID_THETA = 30
LW_GRID = (16, 9)  # per-qubit grid of the two-sided local-work search
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


def _eig2x2_entropy(mats: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Entropy of stacked unnormalized 2x2 conditional states, weighted by
    outcome probabilities; returns the average conditional entropy per row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(probs > 1e-14, probs, 1.0)
        a = mats[..., 0, 0].real / norm
        d = mats[..., 1, 1].real / norm
        off = np.abs(mats[..., 0, 1]) / norm
        disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + off**2, 0.0))
        lam1 = np.clip(0.5 * (a + d) + disc, 1e-16, 1.0)
        lam2 = np.clip(0.5 * (a + d) - disc, 1e-16, 1.0)
        ent = -(lam1 * np.log2(lam1) + lam2 * np.log2(lam2))
    ent = np.where(probs > 1e-14, ent, 0.0)
    return np.sum(probs * ent, axis=-1)


def _conditional_states(rho4: np.ndarray, measured_first: bool, T: np.ndarray):
    """Unnormalized post-measurement states of the unmeasured qubit and the
    outcome probabilities for every basis in T. rho4 is the density matrix
    reshaped to [x1, y1, x2, y2]."""
    if measured_first:
        cond = np.einsum("goab,aybw->goyw", T, rho4, optimize=True)
    else:
        cond = np.einsum("goab,xayb->goxy", T, rho4, optimize=True)
    return cond, np.einsum("goaa->go", cond).real


def _one_sided_entropy(rho4, T):
    """Entropy after dephasing the first qubit in each basis of T:
    H(outcomes) + average conditional entropy of the second qubit."""
    cond, probs = _conditional_states(rho4, True, T)
    return _eig2x2_entropy(cond, probs) + shannon_entropy(probs)


@dataclass(frozen=True)
class OptimizedMeasure:
    value: float
    theta: float
    phi: float
    converged: bool


def _minimize(f, sides: int, grid, refine: bool, starts: int = 1,
              maxiter: int = 300) -> OptimizedMeasure:
    """Minimum of a batched objective over rank-1 projective bases on `sides`
    qubits: f(T) gives one value per stacked basis T[g, o, a, b], f(TA, TB) a
    table over the product grid. Nelder-Mead refines the best `starts` points
    of the (n_phi, n_theta) grid; returns the least value seen, the first
    qubit's angles and whether any refinement converged."""
    T, tg, pg = _measurement_grid(*grid)
    values = f(*[T] * sides).ravel()
    order = np.argsort(values)

    def angles(k):  # flat grid index -> (theta, phi) of each measured qubit
        idx = divmod(k, len(tg)) if sides == 2 else (k,)
        return [v for i in idx for v in (tg[i], pg[i])]

    def objective(x):
        return f(*(_projectors(x[i], x[i + 1])[None] for i in range(0, len(x), 2))).item()

    best, x = float(values[order[0]]), angles(order[0])
    converged = True
    if refine:
        converged = False
        for k in order[:starts]:
            res = minimize(objective, x0=angles(k), method="Nelder-Mead",
                           options={"fatol": REFINE_TOL, "xatol": 1e-6, "maxiter": maxiter})
            if res.fun < best:
                best, x = float(res.fun), res.x
            converged = converged or bool(res.success)
    return OptimizedMeasure(best, float(x[0]), float(x[1]), converged)


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

    opt = _minimize(lambda T: _eig2x2_entropy(*_conditional_states(rho4, measured_first, T)),
                    1, grid, refine, starts=3)
    return OptimizedMeasure(max(0.0, s_un - opt.value), opt.theta, opt.phi, opt.converged)


def classical_discord(rho2: DensityMatrix, measured_side: str = "second") -> float:
    return classical_discord_detailed(rho2, measured_side).value


def quantum_discord(rho2: DensityMatrix, measured_side: str = "second") -> float:
    """D = I - CD, clipped to be non-negative."""
    return max(0.0, mutual_information(rho2) - classical_discord(rho2, measured_side))


def local_work(rho2: DensityMatrix, mode: str = "two_sided", refine: bool = True) -> float:
    """Locally extractable work: log2(4) minus the minimal entropy after
    dephasing in a product of rank-1 projective bases.

    mode "two_sided" optimizes both sides jointly; "one_sided" dephases only
    the first qubit."""
    _require_two_qubits(rho2)
    rho4 = rho2.matrix.reshape(2, 2, 2, 2)

    if mode == "one_sided":
        opt = _minimize(lambda T: _one_sided_entropy(rho4, T), 1,
                        (GRID_PHI, GRID_THETA), refine)
    elif mode == "two_sided":
        def f(TA, TB):  # entropy of the four joint outcomes, per pair of bases
            p = np.einsum("aixz,bjyw,xyzw->abij", TA, TB, rho4, optimize=True).real
            return shannon_entropy(p.reshape(len(TA), len(TB), 4))
        opt = _minimize(f, 2, LW_GRID, refine, maxiter=600)
    else:
        raise ValueError(f"unknown local_work mode {mode!r}")
    return max(0.0, 2.0 - opt.value)


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


def evaluate_measures(rho: DensityMatrix, kinds, nodal: int = 1,
                      direction: str = "left") -> list[float]:
    """Registry measures of a full state, in the order of `kinds`; the
    (nodal, i) pairs are reduced once and every pair measure sums over them."""
    check_measures(kinds)
    measured = MEASURED_SIDE[direction]
    pairs, out = None, []
    for kind in kinds:
        pair, f = MEASURES[kind]
        if pair and pairs is None:
            pairs = list(nodal_pairs(rho, nodal))
        out.append(sum(f(rho2, measured) for rho2 in pairs) if pair else f(rho, nodal))
    return out


def distributed_measure(rho: DensityMatrix, kind: str, nodal: int = 1,
                        direction: str = "left") -> float:
    """Sum of a pair measure over all (nodal, other) reduced pairs."""
    check_measures([kind])
    if not MEASURES[kind][0]:
        raise ValueError(f"{kind!r} is a whole-state measure, not a pair measure")
    return evaluate_measures(rho, [kind], nodal, direction)[0]


def koashi_winter_check(rho: DensityMatrix, nodal: int = 1, refine: bool = True,
                        grid=(GRID_PHI, GRID_THETA)) -> dict:
    """D^EoF + D^CD<- against (N-1) S(rho_nodal), with the cyclic pairing
    B_{N+1} = B_2 for the discord terms.

    With refine=False (or a coarser grid) the discord sum is only
    underestimated, so a passing bound check stays valid."""
    n = rho.n_qubits
    if n < 3:
        raise ValueError("need at least 3 qubits")
    pairs = list(nodal_pairs(rho, nodal))
    lhs = 0.0
    for j, rho2 in enumerate(pairs):
        lhs += entanglement_of_formation(rho2)
        lhs += classical_discord_detailed(pairs[(j + 1) % len(pairs)],
                                          "second", grid=grid, refine=refine).value
    bound = (n - 1) * von_neumann_entropy(partial_trace(rho, (nodal,)))
    return {"lhs": lhs, "bound": bound, "holds": lhs <= bound + 1e-8}
