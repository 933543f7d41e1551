"""The measure registry: pinned values of every measure, one source of
measure names across config, CLI and evaluation, and property checks of the
pair measures on random 2-qubit states."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import cli
from cclab.measures import MEASURES, classical_discord_detailed, evaluate_measures
from cclab.sampling import SamplerConfig, evaluate_ensemble
from cclab.states import DensityMatrix
from conftest import random_density

NAMES = tuple(MEASURES)
OPTIMIZED = {"cd", "qd", "lw", "lw_one_sided", "lw_half"}
# one Haar 3-qubit state per channel at p = 0.4: (channel, master_seed)
CELLS = (("pdc", 11), ("dpc", 12), ("adc", 13))
# sample 0 of each cell, evaluated with evaluate_ensemble before the registry
# replaced the per-module name lists
PINNED = {
    ("pdc", "left"): {"cmax": 0.3718894013891035, "cd": 0.1998128400986351, "lw": 0.9173858378903099, "lw_one_sided": 0.9366009030753557, "lw_half": 0.46830045153767785, "qd": 0.14280141328786533, "mi": 0.3426142533865004, "ln": 0.0932682274505728, "eof": 0.01622493117778924, "dcmax": 0.2334549154860454, "genuine_cmax": 0.15544498344781035},
    ("pdc", "right"): {"cmax": 0.3718894013891035, "cd": 0.21622099485322266, "lw": 0.9173858378903099, "lw_one_sided": 0.9366009030753557, "lw_half": 0.46830045153767785, "qd": 0.12639325853327776, "mi": 0.3426142533865004, "ln": 0.0932682274505728, "eof": 0.01622493117778924, "dcmax": 0.2334549154860454, "genuine_cmax": 0.15544498344781035},
    ("dpc", "left"): {"cmax": 0.18203235946594515, "cd": 0.04749881089770325, "lw": 0.13246786281734169, "lw_one_sided": 0.140501400248479, "lw_half": 0.0702507001242395, "qd": 0.016741254747863143, "mi": 0.06424006564556639, "ln": 9.610279511444752e-16, "eof": 0.0, "dcmax": 0.140331503587675, "genuine_cmax": 0.05635198383003022},
    ("dpc", "right"): {"cmax": 0.18203235946594515, "cd": 0.04763260441478423, "lw": 0.13246786281734169, "lw_one_sided": 0.140501400248479, "lw_half": 0.0702507001242395, "qd": 0.01660746123078216, "mi": 0.06424006564556639, "ln": 9.610279511444752e-16, "eof": 0.0, "dcmax": 0.140331503587675, "genuine_cmax": 0.05635198383003022},
    ("adc", "left"): {"cmax": 0.511392198825945, "cd": 0.1204173982014679, "lw": 0.7447706907253218, "lw_one_sided": 0.7914767922345101, "lw_half": 0.39573839611725503, "qd": 0.0371056678837699, "mi": 0.1575230660852378, "ln": 0.0, "eof": 0.0, "dcmax": 0.511392198825945, "genuine_cmax": 0.10266348463726124},
    ("adc", "right"): {"cmax": 0.511392198825945, "cd": 0.1343237140473108, "lw": 0.7447706907253218, "lw_one_sided": 0.7914767922345101, "lw_half": 0.39573839611725503, "qd": 0.023199352037927, "mi": 0.1575230660852378, "ln": 0.0, "eof": 0.0, "dcmax": 0.511392198825945, "genuine_cmax": 0.10266348463726124},
}


@pytest.mark.parametrize("channel,seed", CELLS)
@pytest.mark.parametrize("direction", ["left", "right"])
def test_pinned_values(channel, seed, direction):
    pinned = PINNED[channel, direction]
    assert set(pinned) == set(NAMES)
    row = evaluate_ensemble(SamplerConfig(3, count=1, master_seed=seed), channel, 0.4,
                            NAMES, direction=direction)[0]
    for name, value in zip(NAMES, row):
        tol = 1e-6 if name in OPTIMIZED else 1e-12
        assert value == pytest.approx(pinned[name], abs=tol), name


CANDIDATES = NAMES + ("nope", "CD", "lw_two_sided", "pair_cmax")


def _accepted_by_config(name):
    try:
        cli.config_from_dict({"measures": [name]})
    except ValueError:
        return False
    return True


def _accepted_by_cli(name):
    try:
        cli.build_parser().parse_args(["measure", "--state", "s.json", "--kind", name])
    except SystemExit:
        return False
    return True


def _accepted_by_evaluation(name):
    try:
        evaluate_ensemble(SamplerConfig(3, count=1), "none", 0.0, [name])
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("accepts", [_accepted_by_config, _accepted_by_cli,
                                     _accepted_by_evaluation])
def test_every_entry_point_accepts_exactly_the_registry(accepts, capsys):
    assert {name for name in CANDIDATES if accepts(name)} == set(MEASURES)


def test_readme_measure_table_matches_registry():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Measure kinds", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (pair|whole-state) \|", section, re.M)
    assert {name: kind == "pair" for name, kind in rows} == {
        name: pair for name, (pair, _) in MEASURES.items()}


def _local_unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(rho, u, v):
    uv = np.kron(u, v)
    return DensityMatrix(2, uv @ rho.matrix @ uv.conj().T)


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, direction=st.sampled_from(["left", "right"]))
def test_discord_between_zero_and_mi(seed, direction):
    rho = random_density(2, seed)
    cd, qd, mi = evaluate_measures(rho, ["cd", "qd", "mi"], direction=direction)
    assert -1e-12 <= cd <= mi + 1e-9
    assert qd + cd == pytest.approx(mi, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, useed=SEEDS, vseed=SEEDS)
def test_local_unitary_invariance(seed, useed, vseed):
    rho = random_density(2, seed)
    u, v = _local_unitary(useed), _local_unitary(vseed)
    assert evaluate_measures(_rotated(rho, u, v), ["mi"])[0] == pytest.approx(
        evaluate_measures(rho, ["mi"])[0], abs=1e-6)
    # a unitary on the measured qubit moves the optimum off a finite grid, so
    # grid-only discord is compared under a unitary on the unmeasured one
    eye = np.eye(2)
    for side, rotated in (("second", _rotated(rho, u, eye)), ("first", _rotated(rho, eye, v))):
        before = classical_discord_detailed(rho, side, refine=False).value
        after = classical_discord_detailed(rotated, side, refine=False).value
        assert after == pytest.approx(before, abs=1e-6)
