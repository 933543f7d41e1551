from __future__ import annotations

import numpy as np
import pytest

from cclab.channels import make_channel
from cclab.discrimination import (ProbeTrace, classify, generate_probe_trace,
                                  gw_probe_state)

P_GRID = list(np.linspace(0.05, 0.5, 11))


def test_probe_trace_validation():
    with pytest.raises(ValueError):
        ProbeTrace(3, ((0.1, 1.0, 0.9), (0.1, 1.0, 0.8), (0.1, 1.0, 0.7)))
    with pytest.raises(ValueError):
        ProbeTrace(3, ((0.1, 1.5, 0.9), (0.2, 1.0, 0.8), (0.3, 1.0, 0.7)))
    # N = 0 would make the DPC model identically 0
    for n in (0, 1):
        with pytest.raises(ValueError, match="n_qubits"):
            ProbeTrace(n, ((0.1, 1.0, 0.9), (0.2, 1.0, 0.8), (0.3, 1.0, 0.7)))


def test_gw_probe_state_is_single_excitation():
    psi = gw_probe_state(0.8, 0.6, 0.1, 0.2)
    nz = np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]
    assert set(nz.tolist()) <= {1, 2, 4}
    assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["pdc", "adc", "dpc"])
def test_classify_noiseless(kind):
    probe = gw_probe_state(0.9, 0.7)
    trace = generate_probe_trace(probe, make_channel(kind, 0.1), P_GRID)
    verdict = classify(trace)
    assert verdict.label == kind


def test_classify_reports_residuals():
    probe = gw_probe_state(0.9, 0.7)
    trace = generate_probe_trace(probe, make_channel("adc", 0.1), P_GRID)
    verdict = classify(trace)
    assert set(verdict.residuals) >= {"pdc", "adc", "dpc"}
    assert verdict.residuals["adc"] < verdict.residuals["dpc"]
    # ADC difference trace of a gW probe is exactly 2p on this grid
    assert verdict.fitted_params["adc"]["slope"] == pytest.approx(2.0, abs=1e-6)


def test_classify_with_noise():
    rng = np.random.default_rng(0)
    probe = gw_probe_state(0.9, 0.7)
    for kind in ("pdc", "adc", "dpc"):
        trace = generate_probe_trace(probe, make_channel(kind, 0.1), P_GRID,
                                     noise_sigma=0.01, rng=rng)
        assert classify(trace).label == kind


@pytest.mark.parametrize("lo", [0.55, 0.8])
def test_classify_noiseless_dpc_past_three_quarters(lo):
    # 1 - 4p/3 turns negative at p = 3/4; the rescaled correlator follows
    # |1 - 4p/3|^N, and so must the DPC model
    probe = gw_probe_state(0.9, 0.7)
    trace = generate_probe_trace(probe, make_channel("dpc", lo),
                                 list(np.linspace(lo, 1.0, 11)))
    verdict = classify(trace)
    assert verdict.residuals["dpc"] < 1e-12
    # here the trace is within 0.01 RMS of a line, so the default margin
    # may withhold a verdict but must not pick ADC
    assert verdict.label in ("dpc", "inconclusive")
    # a noiseless trace needs no noise margin
    assert classify(trace, threshold=1e-3).label == "dpc"


def test_ambiguous_trace_is_inconclusive():
    # a hand-built trace equidistant from the ADC and DPC models
    p = np.array([0.1, 0.3, 0.5])
    delta = np.array([0.3, 0.3, 0.3])  # flat but too large for the PDC gate
    samples = tuple((float(pi), 1.0, float(1.0 - d)) for pi, d in zip(p, delta))
    verdict = classify(ProbeTrace(3, samples))
    assert verdict.label in ("inconclusive", "adc")  # never dpc on a flat offset
    assert verdict.label != "dpc"
