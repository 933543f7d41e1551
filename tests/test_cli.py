from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from cclab import cli
from cclab.states import PureState


def write_config(tmp_path, **overrides):
    obj = {
        "experiment": "demo",
        "sampler": {"n_qubits": 3, "count": 20, "master_seed": 3},
        "channels": ["pdc"],
        "p_grid": [0.2, 0.4],
        "measures": ["dcmax"],
        "bins": 8,
        "output_dir": str(tmp_path / "out"),
    }
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        cli.config_from_dict({"bogus_key": 1})
    with pytest.raises(ValueError):
        cli.config_from_dict({"sampler": {"bogus": 1}})
    with pytest.raises(ValueError):
        cli.config_from_dict({"measures": []})
    with pytest.raises(ValueError):
        cli.config_from_dict({"measures": ["mi"], "channels": ["foo"]})
    with pytest.raises(ValueError):
        cli.config_from_dict({"measures": ["mi"], "p_grid": [1.5]})
    with pytest.raises(ValueError, match="direction"):
        cli.config_from_dict({"measures": ["mi"], "direction": "sideways"})
    for nodal in (0, 4, 7):
        with pytest.raises(ValueError, match="nodal"):
            cli.config_from_dict({"measures": ["mi"], "nodal": nodal,
                                  "sampler": {"n_qubits": 3}})
    assert cli.config_from_dict({"measures": ["mi"], "nodal": 3}).nodal == 3
    for bins in (0, -3):
        with pytest.raises(ValueError, match="bins"):
            cli.config_from_dict({"measures": ["mi"], "bins": bins})


def test_bad_input_exits_2_with_one_line(tmp_path, capsys):
    path = write_config(tmp_path, direction="sideways")
    assert cli.main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cclab: error: ") and "sideways" in err
    assert len(err.splitlines()) == 1
    assert not os.path.exists(tmp_path / "out")


def test_one_qubit_sampler_rejected(tmp_path, capsys):
    # every pair measure of one qubit is an empty sum, so a sweep would write
    # all-zero statistics
    with pytest.raises(ValueError, match="n_qubits"):
        cli.config_from_dict({"measures": ["mi"], "sampler": {"n_qubits": 1}})
    path = write_config(tmp_path, sampler={"n_qubits": 1, "count": 3},
                        measures=["mi", "cd"])
    assert cli.main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cclab: error: ") and "n_qubits" in err
    assert len(err.splitlines()) == 1
    assert not os.path.exists(tmp_path / "out")


def test_config_hash_stable():
    a = cli.config_from_dict({"measures": ["mi"], "threads": 1})
    b = cli.config_from_dict({"measures": ["mi"], "threads": 8})
    # thread count must not affect the config identity
    assert a.config_hash() == b.config_hash()
    # hashes of the default, README-example and W-class configs are frozen
    assert a.config_hash() == "e0ffd7f072fe2609"
    readme = {"experiment": "demo", "channels": ["pdc", "adc"],
              "sampler": {"n_qubits": 3, "ensemble": "haar", "count": 1000, "master_seed": 7},
              "p_grid": [0.2, 0.4, 0.6], "measures": ["dcmax", "mi", "cd"], "bins": 50,
              "output_dir": "results", "threads": 8}
    assert cli.config_from_dict(readme).config_hash() == "259a1062f2a3d698"
    wclass = {"measures": ["cd", "lw_half"], "nodal": 2, "direction": "right",
              "sampler": {"ensemble": "w_class", "wclass_real_amplitudes": True}}
    assert cli.config_from_dict(wclass).config_hash() == "380dc7f90ec12b0d"


def test_sweep_end_to_end(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    manifest = cli.run_experiment(cfg)
    stats = os.path.join(cfg.output_dir, "demo_dcmax_pdc.csv")
    assert os.path.exists(stats)
    rows = read_csv(stats)
    assert rows[0][:3] == ["p", "mean", "std"]
    assert len(rows) == 3  # header + two p values
    hist = os.path.join(cfg.output_dir, "demo_dcmax_pdc_hist_p0.2.csv")
    assert os.path.exists(hist)
    freq = sum(float(r[2]) for r in read_csv(hist)[1:])
    assert freq == pytest.approx(1.0, abs=1e-9)
    man = json.load(open(os.path.join(cfg.output_dir, "demo_manifest.json")))
    assert man["config_hash"] == cfg.config_hash()
    assert stats in man["outputs"]


def test_sweep_thread_count_byte_identical(tmp_path):
    p1 = write_config(tmp_path, output_dir=str(tmp_path / "o1"), threads=1)
    cfg1 = cli.load_config(p1)
    cli.run_experiment(cfg1)
    p8 = write_config(tmp_path, output_dir=str(tmp_path / "o8"), threads=8)
    cfg8 = cli.load_config(p8)
    cli.run_experiment(cfg8)
    for name in ("demo_dcmax_pdc.csv", "demo_dcmax_pdc_hist_p0.2.csv"):
        a = open(os.path.join(cfg1.output_dir, name), "rb").read()
        b = open(os.path.join(cfg8.output_dir, name), "rb").read()
        assert a == b


def test_cli_measure_command(tmp_path, capsys):
    state = tmp_path / "bell.json"
    state.write_text(PureState.from_amplitudes(
        np.array([1, 0, 0, 1]) / np.sqrt(2)).to_json())
    rc = cli.main(["measure", "--state", str(state), "--kind", "mi"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"value", "kind"}
    assert out["value"] == pytest.approx(2.0)
    assert cli.main(["measure", "--state", str(state), "--kind", "mi", "--nodal", "3"]) == 2
    assert capsys.readouterr().err.startswith("cclab: error: nodal qubit 3")


def test_cli_measure_reports_search_convergence(tmp_path, capsys):
    state = tmp_path / "w3.json"
    state.write_text(PureState.w_state(3).to_json())
    for kind in ("cd", "qd", "lw", "lw_one_sided", "lw_half", "mi"):
        assert cli.main(["measure", "--state", str(state), "--kind", kind]) == 0
        out = json.loads(capsys.readouterr().out)
        keys = {"value", "kind"}
        if kind != "mi":
            keys.add("converged")
            assert out["converged"] is True
        if kind in ("cd", "qd"):
            # the measured qubit's angles for each of the pairs (1, 2) and (1, 3)
            keys |= {"theta", "phi"}
            assert len(out["theta"]) == len(out["phi"]) == 2
            assert all(isinstance(v, float) for v in out["theta"] + out["phi"])
        assert set(out) == keys, kind


def test_cli_correlators_command(tmp_path, capsys):
    state = tmp_path / "w3.json"
    state.write_text(PureState.w_state(3).to_json())
    rc = cli.main(["correlators", "--state", str(state), "--index", "zzz"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)
    rc = cli.main(["correlators", "--state", str(state)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["argmax"] == "zzz"


def test_cli_oracle_command(capsys):
    rc = cli.main(["oracle", "--channel", "dpc", "--N", "3", "--p", "0.3"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx((1 - 0.4) ** 3)


def test_cli_discriminate_simulated(capsys):
    rc = cli.main(["discriminate", "--channel", "adc", "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "adc"


@pytest.mark.parametrize("n", ["5", "0", "2"])
def test_discriminate_simulated_n_must_match_probe(n, capsys):
    # the simulated gW probe has 3 qubits; any other --N used to be ignored
    assert cli.main(["discriminate", "--channel", "dpc", "--N", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cclab: error: --N") and len(err.splitlines()) == 1
    assert cli.main(["discriminate", "--channel", "dpc", "--N", "3"]) == 0


def test_discriminate_trace_needs_two_qubits(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("p,c_before,c_after\n0.1,1.0,0.9\n0.2,1.0,0.8\n0.3,1.0,0.7\n")
    assert cli.main(["discriminate", "--trace", str(path), "--N", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cclab: error: ") and "n_qubits" in err
    assert len(err.splitlines()) == 1
    assert cli.main(["discriminate", "--trace", str(path), "--N", "3"]) == 0


# config values of the wrong JSON type, each once silently cast or a traceback
BAD_TYPES = [
    {"sampler": {"count": 2.7}}, {"sampler": {"n_qubits": 3.0}},
    {"sampler": {"master_seed": "1"}}, {"sampler": {"count": True}},
    {"sampler": {"wclass_real_amplitudes": "false"}},
    {"sampler": {"wclass_real_amplitudes": 0}}, {"sampler": ["n_qubits"]},
    {"nodal": 1.6}, {"bins": "8"}, {"threads": 2.0},
    {"p_grid": 0.2}, {"p_grid": ["0.2"]}, {"p_grid": [True]},
    {"channels": "pdc"}, {"measures": "dcmax"},
    {"experiment": 5}, {"sampler": {"ensemble": 1}}, {"direction": ["left"]},
    {"output_dir": 7}, {"experiment": None},
]


@pytest.mark.parametrize("override", BAD_TYPES, ids=lambda o: json.dumps(o))
def test_config_strict_json_types(override, tmp_path, capsys):
    with pytest.raises(ValueError, match="must be a JSON"):
        cli.config_from_dict({"measures": ["mi"], **override})
    path = write_config(tmp_path, **override)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cclab: error: ") and len(err.splitlines()) == 1
    assert not os.path.exists(tmp_path / "out")


def test_config_top_level_must_be_object(tmp_path, capsys):
    for text in ("[]", '["measures"]', "3", '"sweep"'):
        with pytest.raises(ValueError, match="must be a JSON object"):
            cli.config_from_dict(json.loads(text))
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert cli.main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cclab: error: ") and len(err.splitlines()) == 1


def test_fit_bounds_empty_csv(tmp_path, capsys):
    for text in ("", "x,y\n"):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert cli.main(["fit-bounds", "--csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cclab: error: ") and len(err.splitlines()) == 1


def test_fit_bounds_short_row(tmp_path, capsys):
    for text in ("x,y\n1\n", "x,y\n1,2\n3\n"):
        path = tmp_path / "short.csv"
        path.write_text(text)
        assert cli.main(["fit-bounds", "--csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cclab: error: ") and "columns" in err
        assert len(err.splitlines()) == 1


def test_cli_fit_bounds(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 2, 2000)
    y = x * rng.uniform(0.5, 1.0, 2000)
    path = tmp_path / "xy.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        w.writerows(zip(x, y))
    rc = cli.main(["fit-bounds", "--csv", str(path), "--bins", "15"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m_u"] == pytest.approx(1.0, abs=0.1)
    assert out["m_l"] == pytest.approx(0.5, abs=0.1)


def test_recipe_fig1(tmp_path, capsys):
    rc = cli.main(["recipe", "fig1_wstate", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "fig1_wstate.csv")
    assert rows[0] == ["p", "pdc", "adc", "dpc"]
    assert len(rows) == 22
    p = np.array([float(r[0]) for r in rows[1:]])
    adc = np.array([float(r[2]) for r in rows[1:]])
    assert np.allclose([float(r[1]) for r in rows[1:]], 1.0)
    assert np.allclose(adc, (1 + 2 * p) / 3, atol=1e-10)
    assert np.all(np.diff(adc) > 0)


def test_recipe_unknown(capsys):
    rc = cli.main(["recipe", "nope"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("cclab: error: unknown recipe 'nope'")


def test_recipe_determinism(tmp_path):
    for sub, threads in (("a", "1"), ("b", "8")):
        rc = cli.main(["recipe", "ghzw_decay_pdc", "--out", str(tmp_path / sub),
                       "--seed", "3", "--count", "60", "--threads", threads])
        assert rc == 0
    a = open(tmp_path / "a" / "decay_rate_pdc.csv", "rb").read()
    b = open(tmp_path / "b" / "decay_rate_pdc.csv", "rb").read()
    assert a == b


def test_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "envout"))
    rc = cli.main(["recipe", "fig1_wstate"])
    assert rc == 0
    assert os.path.exists(tmp_path / "envout" / "fig1_wstate.csv")


def test_sweep_threads_without_seed(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg: seen.append(cfg) or cli.RunManifest("h", "v", 0.0))
    path = write_config(tmp_path)
    assert cli.main(["sweep", "--config", str(path), "--threads", "4"]) == 0
    assert seen[-1].threads == 4
    assert seen[-1].sampler.master_seed == 3
    assert cli.main(["sweep", "--config", str(path), "--seed", "9"]) == 0
    assert seen[-1].sampler.master_seed == 9 and seen[-1].threads == 1
    assert seen[-1].config_hash() != seen[0].config_hash()


def test_discriminate_needs_one_source(tmp_path):
    for argv in (["discriminate"],
                 ["discriminate", "--channel", "adc", "--trace", str(tmp_path / "t.csv")]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_oracle_check_seed_zero(tmp_path, monkeypatch, capsys):
    seeds = []

    def sweep(states_per_cell, seed, include_mixed_pauli_dpc):
        seeds.append(seed)
        return [{"check": "c", "N": 2, "k": 1, "p": 0.0, "max_dev": 0.0}]

    monkeypatch.setattr(cli.oracles, "oracle_equivalence_sweep", sweep)
    assert cli.main(["oracle-check", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert cli.main(["oracle-check", "--out", str(tmp_path)]) == 0
    assert seeds == [0, 7]


def test_recipe_count_zero_fails(tmp_path, capsys):
    rc = cli.main(["recipe", "ghzw_decay_pdc", "--out", str(tmp_path), "--count", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "count" in err
    assert not os.path.exists(tmp_path / "decay_rate_pdc.csv")
