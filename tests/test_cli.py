"""End-to-end command-line checks: exit codes, CSV schemas, determinism."""

import json
import logging
import shutil

import numpy as np
import pytest

from encmpc.cli import main, parse_sweep, BENCH_COLUMNS
from encmpc.config import ConfigError
from encmpc.mpqp import PwaController
from encmpc.simulation import benchmark_scenario, scenario_to_dict


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synthesized benchmark controller shared by the read-only tests."""
    out = tmp_path_factory.mktemp("cli")
    assert main(["synthesize", "--out", str(out)]) == 0
    return out


def read_csv(path):
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(row[idx]) for row in rows]


def test_synthesize_writes_controller(workdir, capsys):
    ctrl = PwaController.load(workdir / "controller.json")
    assert ctrl.nregions >= 3
    # resave must reproduce the file byte for byte
    text = (workdir / "controller.json").read_text()
    ctrl.save(workdir / "resaved.json")
    assert (workdir / "resaved.json").read_text() == text


def test_synthesize_logs_funnel(tmp_path, capsys, caplog):
    """The pruning funnel goes to the "encmpc" logger; stdout keeps its
    two result lines."""
    caplog.set_level(logging.INFO, logger="encmpc")
    assert main(["synthesize", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("scenario double-integrator: 39 regions")
    funnel = [r for r in caplog.records if r.getMessage().startswith("synthesis funnel")]
    assert len(funnel) == 1 and funnel[0].name == "encmpc"
    assert funnel[0].getMessage() == (
        "synthesis funnel: candidates 71, rank_fails 26, dead_kills 0, "
        "lp_calls 45, empty 6, thin 0, merged 0, oracle_steps 8, "
        "boundary_facets 30, unresolved 0, redundancy_lps 335, "
        "rows_duplicate 206, rows_ray 153, rows_box 748, rows_lp 179")


def test_synthesize_unconstrained_single_region(tmp_path, capsys):
    d = scenario_to_dict(benchmark_scenario())
    d["name"] = "unconstrained"
    d["u_lo"] = [-1e999]
    d["u_hi"] = [1e999]
    d["x_lo"] = [-1e999, -1e999]
    d["x_hi"] = [1e999, 1e999]
    (tmp_path / "uncon.json").write_text(json.dumps(d))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"scenario_path": str(tmp_path / "uncon.json")}))
    rc = main(["synthesize", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    ctrl = PwaController.load(tmp_path / "out" / "controller.json")
    assert ctrl.nregions == 1


def test_malformed_config_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"backend": "qe",}')
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1 column 18" in err


def test_malformed_scenario_exits_2_with_location(tmp_path, capsys):
    (tmp_path / "sc.json").write_text("{\n  broken\n}")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"scenario_path": str(tmp_path / "sc.json")}))
    rc = main(["synthesize", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_backend_and_field_exit_2(tmp_path, capsys):
    assert main(["run", "--backend", "rot13", "--out", str(tmp_path)]) == 2
    (tmp_path / "cfg.json").write_text(json.dumps({"keybits": 512}))
    assert main(["run", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path)]) == 2
    assert "keybits" in capsys.readouterr().err


BENCH_SCENARIO = scenario_to_dict(benchmark_scenario())


@pytest.mark.parametrize("scenario,named", [
    ({**BENCH_SCENARIO, "T": 0}, "T must be >= 1"),
    ({**{k: v for k, v in BENCH_SCENARIO.items() if k != "r_steps"},
      "r_step": [[0, 1.0]]}, "['r_step']"),
    (5, "JSON object"),
    ({**BENCH_SCENARIO, "r_steps": [[5, 1.0], [20, 1.5]]}, "r_steps"),
    ({**BENCH_SCENARIO, "T": "sixty"}, "sixty"),
    ({**BENCH_SCENARIO, "x0": [1.0]}, "x0 has shape"),
    ({**BENCH_SCENARIO, "C_out": [[1, 0], [0, 1]]}, "C_out has 2 rows"),
], ids=["empty-episode", "typo-key", "not-an-object", "late-reference",
        "not-a-number", "short-x0", "two-outputs"])
def test_bad_scenario_exits_2(workdir, tmp_path, capsys, scenario, named):
    """An empty episode, a key that is no field, a file that is no object,
    a reference program that starts after step 0, a value of the wrong
    type, an array of the wrong shape and a second output are
    configuration errors that name what is wrong and the file."""
    (tmp_path / "sc.json").write_text(json.dumps(scenario))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"scenario_path": str(tmp_path / "sc.json")}))
    rc = main(["run", "--config", str(tmp_path / "cfg.json"),
               "--out", str(workdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "sc.json" in err


@pytest.mark.parametrize("config,scenario,named", [
    ({"steps": 2.5}, {}, "steps"),
    ({"w_b": 16.0}, {}, "w_b"),
    ({"key_bits": 512.0, "backend": "paillier"}, {}, "key_bits"),
    ({"seed_quant": 2.5, "backend": "qe_quantized"}, {}, "seed_quant"),
    ({"seed_keys": 1.5}, {}, "seed_keys"),
    ({"rho": 2.5, "backend": "paillier"}, {}, "rho"),
    ({"delta": 10.5, "backend": "paillier"}, {}, "delta"),
    ({"attack_trials": True}, {}, "attack_trials"),
    ({"gamma": "4"}, {}, "gamma"),
    ({}, {"T": 2.5}, "T must be an integer"),
    ({}, {"horizon": 4.7}, "horizon must be an integer"),
    ({}, {"r_steps": [[0, 0.0], [20.9, 1.0]]}, "start step must be an integer"),
    ({}, {"T": True}, "T must be an integer"),
], ids=["steps-float", "w_b-16.0", "key_bits-512.0", "seed_quant-float",
        "seed_keys-float", "rho-float", "delta-float", "attack_trials-bool",
        "gamma-string", "T-float", "horizon-float", "r_steps-float", "T-bool"])
def test_integer_field_refuses_non_integer_exits_2(workdir, tmp_path, capsys,
                                                    config, scenario, named):
    """An integer field of the run config or the scenario holding a float
    (16.0 included), a bool or a string is a configuration error naming
    the field, not a crash in the loop, a truncation or a run."""
    shutil.copy(workdir / "controller.json", tmp_path)
    (tmp_path / "sc.json").write_text(json.dumps({**BENCH_SCENARIO, **scenario}))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"scenario_path": str(tmp_path / "sc.json"), **config}))
    assert main(["run", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def one_region_controller(**region):
    """controller.json text of one region for n = 2, m = 1, with the
    given region fields replaced."""
    reg = {"active_set": [], "A_ineq": [[1.0, 0.0]], "b_ineq": [1.0],
           "K": [[0.5, 0.5]], "b": [0.0], "cheb_center": [0.0, 0.0],
           "cheb_radius": 1.0}
    return json.dumps({"format": "pwa-controller/1", "n": 2, "m": 1,
                       "horizon": 5, "meta": {}, "regions": [{**reg, **region}]})


@pytest.mark.parametrize("text,named", [
    ("{", "line 1"),
    ("[1]", "pwa-controller/1"),
    ('{"format": "pwa-controller/0"}', "pwa-controller/1"),
    ('{"format": "pwa-controller/1", "n": 2, "m": 1, "horizon": 5}', "regions"),
    (one_region_controller(K=[[1, 2, 3]]), "region 0: K has shape (1, 3)"),
    (one_region_controller(b=[0, 1]), "b (2,)"),
    (one_region_controller(A_ineq=[[1.0, 0.0, 0.0]]), "its rows 3 columns"),
    (one_region_controller(A_ineq=[[1.0, 0.0], [1.0]]), "inhomogeneous"),
], ids=["malformed", "not-an-object", "other-format", "missing-key",
        "wide-gain", "long-offset", "wide-rows", "ragged-rows"])
def test_bad_controller_file_exits_2(tmp_path, capsys, text, named):
    """controller.json is read like every other input: malformed JSON, an
    object of another format, a missing key or a region whose gain,
    offset or rows do not fit n and m is a configuration error that
    names the file."""
    (tmp_path / "controller.json").write_text(text)
    assert main(["run", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "controller.json" in err


TWO_INPUTS = {**BENCH_SCENARIO, "B": [[0.5, 0.0], [1.0, 0.5]],
              "R": [[0.5, 0.0], [0.0, 0.5]], "u_lo": [-1.0, -1.0],
              "u_hi": [1.0, 1.0]}
THREE_STATES = {**BENCH_SCENARIO, "A": np.eye(3).tolist(),
                "B": [[0.5], [1.0], [0.0]], "C_out": [[1.0, 0.0, 0.0]],
                "Q": np.eye(3).tolist(), "x_lo": [-5.0] * 3,
                "x_hi": [5.0] * 3, "x0": [-3.0, 0.5, 0.0]}


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("scenario,dims", [(TWO_INPUTS, "n = 2 and m = 2"),
                                           (THREE_STATES, "n = 3 and m = 1")],
                         ids=["two-inputs", "three-states"])
def test_controller_of_other_dimensions_exits_2(workdir, tmp_path, capsys,
                                                command, scenario, dims):
    """The benchmark's controller (n = 2, m = 1) under a scenario of other
    dimensions is a configuration error naming both, not a law broadcast
    onto two inputs or a crash in the loop."""
    (tmp_path / "sc.json").write_text(json.dumps(scenario))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"scenario_path": str(tmp_path / "sc.json")}))
    rc = main([command, "--config", str(tmp_path / "cfg.json"),
               "--out", str(workdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n = 2 states and m = 1 inputs" in err and dims in err


@pytest.mark.parametrize("command", ["synthesize", "run", "attack"])
def test_sweep_is_a_bench_flag(tmp_path, command):
    """Only bench sweeps; another command refuses --sweep, not ignores it."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--sweep", "w=3", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_run_requires_controller(tmp_path, capsys):
    rc = main(["run", "--backend", "qe", "--out", str(tmp_path / "empty")])
    assert rc == 2
    assert "synthesize" in capsys.readouterr().err


def test_bench_requires_controller(tmp_path, capsys):
    """bench reads controller.json through run's door: without one it
    exits 2 with run's message, not a controller of its own making."""
    rc = main(["bench", "--out", str(tmp_path / "empty"), "--sweep",
               "steps=1;backend=plaintext"])
    assert rc == 2
    assert "run `encmpc synthesize` first" in capsys.readouterr().err
    assert not (tmp_path / "empty" / "bench.csv").exists()


def test_run_qe_mismatch_and_determinism(workdir, capsys):
    assert main(["run", "--backend", "qe", "--out", str(workdir)]) == 0
    path = workdir / "trajectory_qe.csv"
    first = path.read_bytes()
    header, rows = read_csv(path)
    u = np.array(column(header, rows, "u0"))
    u_plain = np.array(column(header, rows, "u_plain0"))
    assert np.max(np.abs(u - u_plain)) <= 1e-9
    assert len(rows) == 60
    assert main(["run", "--backend", "qe", "--out", str(workdir)]) == 0
    assert path.read_bytes() == first


def test_run_paillier_small_delta_within_budget(workdir, tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"backend": "paillier", "delta": 6, "out_dir": str(workdir)}))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    header, rows = read_csv(workdir / "trajectory_paillier.csv")
    u = np.array(column(header, rows, "u0"))
    u_plain = np.array(column(header, rows, "u_plain0"))
    ctrl = PwaController.load(workdir / "controller.json")
    budget = (2 * 2**4 * np.max(np.abs(ctrl.gains)) + 2) * 2.0**-6
    assert np.max(np.abs(u - u_plain)) <= budget


def test_run_fault_exits_1_with_fault_row(tmp_path, capsys):
    d = scenario_to_dict(benchmark_scenario())
    d["x0"] = [40.0, 40.0]
    (tmp_path / "sc.json").write_text(json.dumps(d))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"scenario_path": str(tmp_path / "sc.json")}))
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(out)]) == 0
    rc = main(["run", "--config", str(tmp_path / "cfg.json"),
               "--backend", "qe", "--out", str(out)])
    assert rc == 1
    text = (out / "trajectory_qe.csv").read_text()
    assert "StateNotCovered" in text


def test_flag_overrides_config_file(workdir, tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"backend": "plaintext"}))
    assert main(["run", "--config", str(tmp_path / "cfg.json"),
                 "--backend", "qe", "--out", str(workdir)]) == 0
    assert "backend qe" in capsys.readouterr().out


def test_epsilon_q_conflict_exits_2(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"w": 4, "epsilon_q": 2**-10}))
    rc = main(["run", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("field,value", [
    ("key_bits", 300), ("attack_trials", 0), ("rho", 1), ("w", 0), ("steps", 0),
    ("w_b", 1), ("seed_keys", -1), ("seed_quant", -1), ("seed_attack", -5),
    ("gamma", -1), ("delta", 0), ("p_bits", 0),
])
def test_out_of_range_config_exits_2(workdir, tmp_path, capsys, field, value):
    """A field out of its range is a configuration error, named on stderr,
    before any command runs, whichever backend would run."""
    (tmp_path / "cfg.json").write_text(json.dumps({field: value}))
    for backend in ("plaintext", "qe", "qe_quantized", "paillier"):
        rc = main(["run", "--config", str(tmp_path / "cfg.json"),
                   "--backend", backend, "--out", str(workdir)])
        assert rc == 2, backend
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--sweep", "gamma=0;delta=40;backend=paillier"],
    ["run", "--backend", "paillier"],
], ids=["gain-overflow", "key-headroom"])
def test_paillier_codec_refusal_exits_2(workdir, tmp_path, capsys, argv):
    """A gamma and delta that the gains overflow (|K| > rho^gamma = 1) or
    that a 256-bit modulus cannot hold (2 rho^(gamma + 2 delta) >= n) are
    configuration errors naming gamma and delta."""
    (tmp_path / "cfg.json").write_text(json.dumps({"key_bits": 256, "delta": 127}))
    assert main(argv + ["--config", str(tmp_path / "cfg.json"),
                        "--out", str(workdir)]) == 2
    err = capsys.readouterr().err
    assert "gamma=" in err and "delta=" in err


def test_run_paillier_overflow_writes_fault_row(workdir, tmp_path, capsys):
    """A state beyond Paillier's fixed-point range (|x| > rho^gamma = 2) is
    a recorded fault: exit 1 and a trajectory CSV that ends in its row."""
    shutil.copy(workdir / "controller.json", tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"gamma": 1, "key_bits": 256}))
    rc = main(["run", "--config", str(tmp_path / "cfg.json"),
               "--backend", "paillier", "--out", str(tmp_path)])
    assert rc == 1
    assert (tmp_path / "trajectory_paillier.csv").read_bytes() == (
        b'k\r\n0,"FixedPointOverflow: |-3.0| exceeds rho^gamma = 2"\r\n')


def test_parse_sweep():
    assert parse_sweep("") == [{}]
    pts = parse_sweep("key_bits=512,1024;w=8")
    assert pts == [{"key_bits": 512, "w": 8}, {"key_bits": 1024, "w": 8}]
    with pytest.raises(ConfigError):
        parse_sweep("nonsense")
    with pytest.raises(ConfigError):
        parse_sweep("notafield=1")
    with pytest.raises(ConfigError):
        parse_sweep("w=")


def test_bench_schema_counts_and_determinism(workdir, capsys):
    argv = ["bench", "--out", str(workdir),
            "--sweep", "backend=qe,paillier"]
    assert main(argv) == 0
    path = workdir / "bench.csv"
    first = path.read_bytes()
    header, rows = read_csv(path)
    assert header == list(BENCH_COLUMNS)
    assert [r[0] for r in rows] == ["qe", "paillier"]
    qe = dict(zip(header, rows[0]))
    pl = dict(zip(header, rows[1]))
    # n=2, m=1: payload and count closed forms
    assert int(qe["payload_total"]) == 32 + 3 * 64 + 2 * 64 + 64
    assert (int(qe["enc"]), int(qe["con"]), int(qe["dec"]),
            int(qe["sums"])) == (3, 2, 3, 2)
    L = int(pl["key_bits"])
    assert int(pl["payload_s_to_c"]) == 32 + 3 * 2 * L
    assert int(pl["payload_c_to_a"]) == 2 * L
    assert (int(pl["he_enc"]), int(pl["he_mul"]), int(pl["he_add"]),
            int(pl["he_dec"])) == (3, 2, 2, 1)
    # wall times live on stdout, never in the CSV, as per-cycle medians
    out = capsys.readouterr().out
    assert "timing" in out and "per-cycle median" in out
    assert main(argv) == 0
    assert path.read_bytes() == first


def test_attack_csv_deterministic(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"attack_trials": 20, "key_bits": 256}))
    argv = ["attack", "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    path = tmp_path / "out" / "attack.csv"
    first = path.read_bytes()
    header, rows = read_csv(path)
    assert header == ["noise", "plaintext", "paillier", "qe", "qe_quantized"]
    assert [r[0] for r in rows] == ["none", "gaussian", "uniform", "impulse"]
    plain_none = float(rows[0][1])
    assert plain_none < 1e-3
    assert main(argv) == 0
    assert path.read_bytes() == first


def test_attack_with_too_few_steps_exits_2(tmp_path, capsys):
    """The fit needs n + m + 1 = 4 samples on the probe: 3 steps are a
    configuration error naming steps and the minimum."""
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"steps": 3, "attack_trials": 5, "key_bits": 256}))
    assert main(["attack", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "steps = 3" in err and "at least n + m + 1 = 4 steps" in err


def test_attack_runs_steps_beyond_scenario_T(tmp_path, capsys):
    """The probe dither is as long as the loop: steps above the scenario's
    T (60) run the whole table."""
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"steps": 100, "attack_trials": 5, "key_bits": 256}))
    assert main(["attack", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 0
    header, rows = read_csv(tmp_path / "out" / "attack.csv")
    assert [r[0] for r in rows] == ["none", "gaussian", "uniform", "impulse"]
    assert float(rows[0][1]) < 1e-3
