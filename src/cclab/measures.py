"""Axiomatic bipartite correlation measures and their nodal-sum distributed
versions: mutual information, classical/quantum discord, local work,
logarithmic negativity, entanglement of formation, plus the Koashi-Winter
bound check.

Every measure reads one pair table, `_Pairs`: a block of states' real Fano
forms and their (nodal, i) pairs' forms, each a slice of the state's form;
the spectral measures rebuild the pairs' density matrices. Discord and
local work minimize an entropy over rank-1 projective measurement bases,
computed from the Fano forms with 3-vector algebra. `_minimize` is the one
search routine for all of them: for a whole stack of pairs at once, a grid of
distinct bases, then a lockstep zoom grid. The one-pair public functions are
the B = 1 case of the same kernels.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import correlators
from .states import (DensityMatrix, density, entropy_stack, fano, ordered_sum,
                     pair_forms, shannon_entropy)

GRID_PHI = 60
GRID_THETA = 30
LW_GRID = (16, 9)  # per-qubit grid of the two-sided local-work search
# Zoom-grid refinement: an 11x11 (theta, phi) window per measured qubit,
# starting one coarse-grid step wide on each side of its centre. A best point
# on the window's edge moves the window there at the same size; a best point
# inside shrinks it by ZOOM_SHRINK. The search stops after ZOOM_SHRINKS
# shrinks, or unconverged after ZOOM_MAX_ROUNDS windows.
ZOOM_OFFSETS = np.arange(-5, 6) / 5.0  # window points in units of its half-width
ZOOM_SHRINK = 0.35
ZOOM_SHRINKS = 8
ZOOM_MAX_ROUNDS = 40
# (row, basis) points per objective call: bounds the temporaries of a search
CHUNK_POINTS = 1 << 12


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.n_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.n_qubits} qubits")


def _qubit_entropy(r):
    """Entropy of qubits of Bloch radius r, in bits."""
    return shannon_entropy(np.stack([1 + r, 1 - r], axis=-1) / 2)


def _mutual_information(rho2s, F):
    """I = S(A) + S(B) - S(AB) of each pair, the marginal entropies from the
    Bloch radii."""
    s_a, s_b = _qubit_entropy(np.linalg.norm([F[:, 1:, 0], F[:, 0, 1:]], axis=-1))
    return np.maximum(0.0, s_a + s_b - entropy_stack(rho2s))


def _log_negativity(F):
    """log2 of the trace norm of each pair's partial transpose (its form with
    qubit 2's sigma_y column negated, as sigma_y^T = -sigma_y); 0 if PPT."""
    pt = density(F * [1.0, 1.0, -1.0, 1.0], 2)
    return np.maximum(0.0, np.log2(np.sum(np.abs(np.linalg.eigvalsh(pt)), axis=-1)))


# sigma_y x sigma_y
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).astype(complex)


def _entanglement_of_formation(rho2s):
    """h((1 + sqrt(1 - C^2)) / 2) of each pair's Wootters concurrence C, from
    the spin-flipped spectrum."""
    R = rho2s @ _YY @ rho2s.conj() @ _YY
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(R).real, axis=-1)[..., ::-1], 0.0, None))
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return _qubit_entropy(np.sqrt(np.maximum(0.0, 1 - c**2)))


def _dot(v, n):
    """v . n (K, G) for vectors v (K, 3), bases n shared (G, 3) or per row (K, G, 3)."""
    return v[:, None, 0] * n[..., 0] + v[:, None, 1] * n[..., 1] + v[:, None, 2] * n[..., 2]


def _outcomes(F, n):
    """Probabilities (K, G, 4) of measuring qubit 2 along n, then qubit 1 in
    its conditional eigenbasis: (1 +- b.n +- |a +- Tn|) / 4; and b.n."""
    a, bn = F[:, 1:, None, 0], _dot(F[:, 0, 1:], n)
    tn = [_dot(F[:, i, 1:], n) for i in (1, 2, 3)]
    r_plus, r_minus = (np.sqrt(sum((a[:, i] + sign * tn[i]) ** 2 for i in range(3)))
                       for sign in (1, -1))
    return np.stack([1 + bn + r_plus, 1 + bn - r_plus,
                     1 - bn + r_minus, 1 - bn - r_minus], axis=-1) / 4, bn


def _conditional_entropy(F, n):
    """Average entropy of qubit 1 after measuring qubit 2 along n: H(mu) - H(p)."""
    mu, bn = _outcomes(F, n)
    return shannon_entropy(mu) - shannon_entropy(np.stack([1 + bn, 1 - bn], axis=-1) / 2)


def _dephased_entropy(F, n):
    """Entropy of the pair after dephasing qubit 2 along n: H(mu)."""
    return shannon_entropy(_outcomes(F, n)[0])


def _two_sided_entropy(F, m, n):
    """Entropy (K, G1, G2) of the outcomes (1 +- a.m +- b.n +- m.Tn) / 4 of
    measuring qubit 1 along m and qubit 2 along n."""
    am = _dot(F[:, 1:, 0], m)[:, :, None]
    bn = _dot(F[:, 0, 1:], n)[:, None, :]
    mtn = sum(m[..., i - 1, None] * _dot(F[:, i, 1:], n)[:, None, :] for i in (1, 2, 3))
    return shannon_entropy(np.stack([1 + am + bn + mtn, 1 + am - bn - mtn,
                                     1 - am + bn - mtn, 1 - am - bn + mtn], axis=-1) / 4)


def _bloch(theta, phi) -> np.ndarray:
    """Bloch vectors (..., 3) of the angles theta and phi, broadcast together."""
    s = np.sin(theta)
    x, y = s * np.cos(phi), s * np.sin(phi)
    return np.stack([x, y, np.broadcast_to(np.cos(theta), x.shape)], axis=-1)


@lru_cache(maxsize=4)
def _basis_grid(n_phi: int, n_theta: int):
    """Bloch vectors and angles of the distinct bases of the (n_phi, n_theta)
    grid, first point of each kept. n and -n are one basis: the theta = 0 and
    pi rows are all (0, 0)'s, and (pi - theta, phi + pi) is (theta, phi)'s."""
    i, k = np.divmod(np.arange(n_theta * n_phi), n_phi)
    antipode = (n_theta - 1 - i) * n_phi + (k + n_phi // 2) % n_phi
    pole = (i == 0) | (i == n_theta - 1)
    keep = np.where(pole, i + k == 0, (n_phi % 2 == 1) | (i * n_phi + k < antipode))
    tg = np.linspace(0.0, np.pi, n_theta)[i[keep]]
    pg = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)[k[keep]]
    return _bloch(tg, pg), tg, pg


def _evaluate(f, F, *bases) -> np.ndarray:
    """f's flattened values per row of F, in chunks of CHUNK_POINTS points;
    each basis array is shared (G, 3) or per row (R, G, 3)."""
    points = int(np.prod([b.shape[-2] for b in bases]))
    out, step = np.empty((len(F), points)), max(1, CHUNK_POINTS // points)
    for r in range(0, len(F), step):
        rows = slice(r, r + step)
        out[rows] = f(F[rows], *(b if b.ndim == 2 else b[rows] for b in bases)).reshape(-1, points)
    return out


@dataclass(frozen=True)
class OptimizedMeasure:
    """A search's value, the measured (first, if both are) qubit's Bloch
    angles and whether every zoom converged: floats for one pair, arrays with
    one entry per pair from a batched search."""
    value: float | np.ndarray
    theta: float | np.ndarray
    phi: float | np.ndarray
    converged: bool | np.ndarray


def _zoom(f, F, x, half, value):
    """Lockstep zoom from the angles x (R, sides, 2) of value (R,), windows
    of half-widths `half` (R, sides, 2). Each row keeps its own window, counts,
    value and angles and leaves when it stops; a round evaluates all active
    rows at once. Returns per row the least value, its angles and whether all
    shrinks ran."""
    n, sides = len(ZOOM_OFFSETS), x.shape[1]
    x, value, half = (np.array(a, dtype=float) for a in (x, value, half))
    shrinks, rounds = np.zeros((2, len(x)), dtype=int)
    active = np.arange(len(x))
    while active.size:
        rounds[active] += 1
        th = x[active, :, :1] + half[active, :, :1] * ZOOM_OFFSETS  # (active, sides, n)
        ph = x[active, :, 1:] + half[active, :, 1:] * ZOOM_OFFSETS
        window = _bloch(th[..., :, None], ph[..., None, :]).reshape(len(active), sides, n * n, 3)
        values = _evaluate(f, F[active], *window.swapaxes(0, 1))
        k = np.argmin(values, axis=1)
        idx = np.unravel_index(k, (n,) * 2 * sides)  # theta, phi window index per side
        best = values[np.arange(len(active)), k]
        better = best < value[active]
        value[active[better]] = best[better]
        for s in range(sides):
            x[active[better], s, 0] = th[better, s, idx[2 * s][better]]
            x[active[better], s, 1] = ph[better, s, idx[2 * s + 1][better]]
        # a best point on the window's edge moves it at its size; else it shrinks
        shrink = active[~better | ~np.any([i % (n - 1) == 0 for i in idx], axis=0)]
        half[shrink] *= ZOOM_SHRINK
        shrinks[shrink] += 1
        active = active[(shrinks[active] < ZOOM_SHRINKS) & (rounds[active] < ZOOM_MAX_ROUNDS)]
    return value, x, shrinks == ZOOM_SHRINKS


def _minimize(f, F, sides: int, grid, refine: bool, starts: int = 1) -> OptimizedMeasure:
    """Least objective per row of the Fano forms F (R, 4, 4) over rank-1
    projective bases on `sides` qubits: f(F, n) is a value per row and basis,
    f(F, m, n) a table over both. One `_zoom` refines every row's best
    `starts` bases of the distinct (n_phi, n_theta) grid."""
    n, tg, pg = _basis_grid(*grid)
    values = _evaluate(f, F, *[n] * sides)
    ks = np.argsort(values, axis=1)[:, :starts if refine else 1]
    best = np.take_along_axis(values, ks, axis=1)  # (R, starts)
    x = np.stack([np.stack([tg[i], pg[i]], axis=-1)  # (R, starts, sides, 2)
                  for i in np.unravel_index(ks, (len(tg),) * sides)], axis=-2)
    converged = np.ones(best.shape, dtype=bool)
    if refine:
        step = (np.pi / (grid[1] - 1), 2 * np.pi / grid[0])
        # phi does not move the basis at the pole, so a window there spans every phi
        half = np.where(x[..., :1] == 0.0, (step[0], np.pi), step).reshape(-1, sides, 2)
        zoomed = _zoom(f, np.repeat(F, ks.shape[1], axis=0), x.reshape(-1, sides, 2),
                       half, best.ravel())
        best, x, converged = (a.reshape(b.shape) for a, b in zip(zoomed, (best, x, converged)))
    pick = (np.arange(len(F)), np.argmin(best, axis=1))
    return OptimizedMeasure(best[pick], x[pick][:, 0, 0], x[pick][:, 0, 1], converged.all(axis=1))


def _discord(F, measured_side: str, grid=(GRID_PHI, GRID_THETA),
             refine: bool = True) -> OptimizedMeasure:
    """Classical discord of each Fano form, searched from 3 distinct bases."""
    if measured_side not in ("first", "second"):
        raise ValueError(f"measured_side must be 'first' or 'second', got {measured_side!r}")
    if measured_side == "first":
        F = F.transpose(0, 2, 1)
    s_un = _qubit_entropy(np.linalg.norm(F[:, 1:, 0], axis=1))
    opt = _minimize(_conditional_entropy, F, 1, grid, refine, starts=3)
    return replace(opt, value=np.maximum(0.0, s_un - opt.value))


def _local_work(F, mode: str, refine: bool = True) -> OptimizedMeasure:
    """Local work of each Fano form (see `local_work`)."""
    if mode == "one_sided":
        opt = _minimize(_dephased_entropy, F.transpose(0, 2, 1), 1,
                        (GRID_PHI, GRID_THETA), refine)
    elif mode == "two_sided":
        opt = _minimize(_two_sided_entropy, F, 2, LW_GRID, refine)
    else:
        raise ValueError(f"unknown local_work mode {mode!r}")
    return replace(opt, value=np.maximum(0.0, 2.0 - opt.value))


def _pair_value(rho2: DensityMatrix, kind: str, side: str = "second") -> float:
    """A registry pair measure of one 2-qubit state: the B = 1 block."""
    _require_two_qubits(rho2)
    return float(_Pairs(fano(rho2.matrix[None]), 1, side)[kind][0])


def mutual_information(rho2: DensityMatrix) -> float:
    """I = S(A) + S(B) - S(AB), in bits."""
    return _pair_value(rho2, "mi")


def classical_discord_detailed(rho2: DensityMatrix, measured_side: str = "second",
                               grid=(GRID_PHI, GRID_THETA), refine: bool = True) -> OptimizedMeasure:
    """CD = S(unmeasured) - min over rank-1 projective bases of the average
    conditional entropy; measurement on `measured_side` ("first" / "second")."""
    _require_two_qubits(rho2)
    opt = _discord(fano(rho2.matrix[None]), measured_side, grid, refine)
    return OptimizedMeasure(*(float(v[0]) for v in (opt.value, opt.theta, opt.phi)),
                            bool(opt.converged[0]))


def classical_discord(rho2: DensityMatrix, measured_side: str = "second") -> float:
    return classical_discord_detailed(rho2, measured_side).value


def quantum_discord(rho2: DensityMatrix, measured_side: str = "second") -> float:
    """D = I - CD, clipped to be non-negative."""
    return _pair_value(rho2, "qd", measured_side)


def local_work(rho2: DensityMatrix, mode: str = "two_sided", refine: bool = True) -> float:
    """Locally extractable work: log2(4) minus the minimal entropy after
    dephasing in a product of rank-1 projective bases.

    mode "two_sided" optimizes both sides jointly; "one_sided" dephases only
    the first qubit."""
    _require_two_qubits(rho2)
    return float(_local_work(fano(rho2.matrix[None]), mode, refine).value[0])


def log_negativity(rho2: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose; 0 for PPT states."""
    return _pair_value(rho2, "ln")


def entanglement_of_formation(rho2: DensityMatrix) -> float:
    return _pair_value(rho2, "eof")


# The measure registry: name -> (pair, f). f gets the _Pairs of a block of
# states and may read other registry values of the same block through it. A
# pair measure gives one value per pair (or a batched search's
# OptimizedMeasure), summed over each state's pairs; a whole-state measure
# gives one value per state. The lambdas look functions up when they run, so
# a rebound module attribute reaches every call.
MEASURES = {
    "cmax": (True, lambda pairs: correlators.fano_cmax(pairs.fano[:, None])),
    "cd": (True, lambda pairs: _discord(pairs.fano, pairs.side)),
    "lw": (True, lambda pairs: _local_work(pairs.fano, "two_sided")),
    "qd": (True, lambda pairs: np.maximum(0.0, pairs["mi"] - pairs["cd"])),
    "mi": (True, lambda pairs: _mutual_information(pairs.rho2s, pairs.fano)),
    "ln": (True, lambda pairs: _log_negativity(pairs.fano)),
    "eof": (True, lambda pairs: _entanglement_of_formation(pairs.rho2s)),
    # "lw_half" (half the one-sided work, dephasing the nodal qubit) is the
    # local-work variant that tracks the published per-pair table values
    "lw_one_sided": (True, lambda pairs: _local_work(pairs.fano, "one_sided")),
    "lw_half": (True, lambda pairs: pairs["lw_one_sided"] / 2),
    # shared-direction distributed correlator maximum, from the same table
    "dcmax": (False, lambda pairs: correlators.fano_cmax(pairs.fano.reshape(len(pairs.forms), -1, 4, 4))),
    # genuine_max's value for each state, from the block's n-qubit Fano forms
    "genuine_cmax": (False, lambda pairs: correlators.candidate_correlators(
        pairs.forms, pairs.forms.ndim - 1).max(axis=-1)),
}


class _Pairs:
    """A block of states' Fano forms (B, 4, ..., 4), the forms of their
    (nodal, i) pairs (state-major), the pairs' density matrices (rebuilt once,
    on first use), registry values and searches: each measure runs once per
    block, however many others read it."""

    def __init__(self, forms: np.ndarray, nodal: int, side: str):
        self.forms, self.side = forms, side
        self.fano = pair_forms(forms, nodal).reshape(-1, 4, 4)
        self.searches, self._values = {}, {}

    @cached_property
    def rho2s(self) -> np.ndarray:
        return density(self.fano, 2)

    def __getitem__(self, kind: str) -> np.ndarray:
        if kind not in self._values:
            value = MEASURES[kind][1](self)
            if isinstance(value, OptimizedMeasure):
                self.searches[kind], value = value, value.value
            self._values[kind] = np.asarray(value, dtype=float)
        return self._values[kind]


# direction "left" measures the partner (CD^<-), "right" the nodal qubit
MEASURED_SIDE = {"left": "second", "right": "first"}


def check_measures(kinds) -> None:
    for kind in kinds:
        if kind not in MEASURES:
            raise ValueError(f"unknown measure {kind!r}, expected one of {tuple(MEASURES)}")


def evaluate_block(forms: np.ndarray, kinds, nodal: int = 1, direction: str = "left"):
    """Registry measures (B, len(kinds)) of a stack of states' Fano forms
    (B, 4, ..., 4), and the searches run on their (nodal, i) pairs
    (state-major). Each measure runs once on all of the pairs."""
    check_measures(kinds)
    pairs = _Pairs(forms, nodal, MEASURED_SIDE[direction])
    out = np.empty((len(forms), len(kinds)))
    for j, kind in enumerate(kinds):
        values = pairs[kind]
        out[:, j] = ordered_sum(values.reshape(len(forms), -1)) if MEASURES[kind][0] else values
    return out, pairs.searches


def evaluate_measures(rho: DensityMatrix, kinds, nodal: int = 1,
                      direction: str = "left") -> list[float]:
    """Registry measures of one state, in the order of `kinds`."""
    return evaluate_block(fano(rho.matrix[None]), kinds, nodal, direction)[0][0].tolist()


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
    F = pair_forms(fano(rho.matrix[None]), nodal)[0]
    cds = _discord(np.roll(F, -1, axis=0), "second", grid, refine).value
    lhs = 0.0
    for eof, cd in zip(_entanglement_of_formation(density(F, 2)).tolist(), cds.tolist()):
        lhs += eof
        lhs += cd
    bound = (n - 1) * float(_qubit_entropy(np.linalg.norm(F[0, 1:, 0])))
    return {"lhs": lhs, "bound": bound, "holds": lhs <= bound + 1e-8}
