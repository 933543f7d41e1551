"""Frozen optimizer reference: discord and local work on 173 fixed two-qubit
pairs, refined and grid-only, against values stored in
data/optimizer_reference.json. The tolerance is 1e-5, the contract any
faster replacement of the projective-measurement search has to keep.

The pairs are the (1, 2) and (1, 3) reductions of 14 seeded Haar 3-qubit
states sent through pdc, dpc and adc at p = 0.2 and 0.6, followed by five
landmark pairs; REFERENCE["pairs"] lists their labels in this order."""
from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cclab.channels import apply_uniform, make_channel
from cclab.measures import (classical_discord_detailed, koashi_winter_check,
                            local_work)
from cclab.sampling import SamplerConfig, sample_state
from cclab.states import DensityMatrix, PureState, partial_trace, pure_to_density

REFERENCE = json.loads((Path(__file__).parent / "data" / "optimizer_reference.json").read_text())
TOL = 1e-5
HAAR = SamplerConfig(3, count=14, master_seed=2022)
CHANNELS = ("pdc", "dpc", "adc")
P_VALUES = (0.2, 0.6)


@lru_cache(maxsize=1)
def reference_pairs() -> tuple:
    """(label, two-qubit state) for every reference pair, in file order."""
    out = []
    for kind in CHANNELS:
        for p in P_VALUES:
            ch = make_channel(kind, p)
            for i in range(HAAR.count):
                rho = apply_uniform(pure_to_density(sample_state(HAAR, i)), ch)
                for j in (2, 3):
                    out.append((f"haar{i} {kind} p{p} (1,{j})", partial_trace(rho, (1, j))))
    bell = PureState.from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2))
    out += [("bell", pure_to_density(bell)),
            ("product", pure_to_density(PureState.basis(2, 1))),
            ("maximally_mixed", DensityMatrix.maximally_mixed(2)),
            ("classically_correlated",
             DensityMatrix(2, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))),
            ("w_pair", partial_trace(pure_to_density(PureState.w_state(3)), (1, 2)))]
    return tuple(out)


# reference key -> value of one pair, refined or grid-only
VALUES = {
    "cd_second": lambda r, refine: classical_discord_detailed(r, "second", refine=refine).value,
    "cd_first": lambda r, refine: classical_discord_detailed(r, "first", refine=refine).value,
    "lw_two_sided": lambda r, refine: local_work(r, "two_sided", refine=refine),
    "lw_one_sided": lambda r, refine: local_work(r, "one_sided", refine=refine),
}


def test_reference_pairs_match_file():
    assert [label for label, _ in reference_pairs()] == REFERENCE["pairs"]
    assert set(REFERENCE["values"]) == {f"{k}{s}" for k in VALUES for s in ("", "_grid")}


@pytest.mark.parametrize("key", VALUES)
def test_matches_frozen_reference(key):
    f = VALUES[key]
    refined_ref = REFERENCE["values"][key]
    grid_ref = REFERENCE["values"][key + "_grid"]
    for (label, rho2), want, want_grid in zip(reference_pairs(), refined_ref, grid_ref):
        refined, grid = f(rho2, True), f(rho2, False)
        assert refined == pytest.approx(want, abs=TOL), label
        assert grid == pytest.approx(want_grid, abs=TOL), label
        # refinement starts from the grid optimum and keeps the better value
        assert refined >= grid, label


@pytest.mark.parametrize("n,kind,p,seed", [(3, "adc", 0.3, 5), (3, "dpc", 0.2, 6),
                                           (4, "pdc", 0.4, 7), (4, "adc", 0.6, 8)])
def test_koashi_winter_with_refined_discord(n, kind, p, seed):
    psi = sample_state(SamplerConfig(n, count=1, master_seed=seed), 0)
    res = koashi_winter_check(apply_uniform(pure_to_density(psi), make_channel(kind, p)))
    assert res["holds"], res
