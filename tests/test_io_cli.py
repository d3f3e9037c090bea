import json
import math
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eprb_delay import __version__, cli, dde, experiment as ex, io_formats as io, spectral as sp
from eprb_delay.dde import step_trajectory


def read(path):
    return Path(path).read_bytes()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A step-response trajectory file and a tag file, the two kinds of
    input that spectrum takes."""
    d = tmp_path_factory.mktemp("inputs")
    io.write_trajectory_csv(d / "trajectory.csv", step_trajectory(1.0, 60.0))
    cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=300.0, seed=1,
                              pair_rate=2.0)
    io.write_tags_csv(d / "tags.csv", ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg)))
    return {"trajectory": d / "trajectory.csv", "tags": d / "tags.csv"}


class TestIoFormats:
    def test_trajectory_round_trip(self, tmp_path):
        traj = step_trajectory(1.0, 60.0)
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        back = io.read_trajectory_csv(path)
        assert np.array_equal(back.rho_d, traj.rho_d)
        assert np.array_equal(back.rho_target, traj.rho_target)
        header = path.read_text().splitlines()[0]
        assert header == "t,rho_d,rho_target"

    def test_tags_round_trip(self, tmp_path):
        cfg = ex.ExperimentConfig(
            gamma=1.0, tau=1.0, mu=0.5, duration=100.0, seed=3,
            pair_rate=2.0, coincidence_window=0.01,
        )
        tags = ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg))
        path = tmp_path / "tags.csv"
        io.write_tags_csv(path, tags, meta={"config": {"seed": 3}})
        back = io.read_tags_csv(path)
        assert np.array_equal(back.t, tags.t)
        assert np.array_equal(back.arm, tags.arm)
        assert np.array_equal(back.port, tags.port)
        assert np.array_equal(back.setting_index, tags.setting_index)
        meta = json.loads(path.with_suffix(".csv.meta.json").read_text())
        assert meta["config"]["seed"] == 3
        assert meta["format"]["columns"][0] == "t_seconds"

    def test_json_is_strict(self, tmp_path):
        def reject(name):
            raise ValueError(f"bare {name} in JSON")

        path = tmp_path / "x.json"
        io.write_json(path, {"nan": np.float64("nan"), "inf": np.float64("inf"),
                             "ninf": -math.inf, "x": np.float64(0.5)})
        data = json.loads(path.read_text(), parse_constant=reject)
        assert data == {"nan": None, "inf": "inf", "ninf": "-inf", "x": 0.5}

    def test_byte_identical_outputs(self, tmp_path):
        traj = step_trajectory(0.9, 60.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_trajectory_csv(a, traj)
        io.write_trajectory_csv(b, step_trajectory(0.9, 60.0))
        assert read(a) == read(b)


class TestCli:
    def test_step_writes_artifacts(self, tmp_path):
        out = tmp_path / "step"
        rc = cli.main(["step", "--gamma", "1.0", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "step_response.json").read_text())
        assert payload["period_tau"] == pytest.approx(4.6986, abs=0.05)
        assert not payload["diverged"]
        assert (out / "resolved_config.json").exists()
        assert (out / "trajectory.npz").exists()

    def test_step_divergent_flagged(self, tmp_path):
        out = tmp_path / "step16"
        assert cli.main(["step", "--gamma", "1.6", "--out", str(out)]) == 0
        assert json.loads((out / "step_response.json").read_text())["diverged"]

    def test_step_missing_gamma_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["step", "--out", "/tmp/nowhere"])
        assert err.value.code == 2

    def test_sweep_table(self, tmp_path):
        out = tmp_path / "sweep"
        rc = cli.main([
            "sweep", "--gamma-min", "0.8", "--gamma-max", "1.2", "--steps", "3",
            "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "gamma,decay_time_tau,period_tau,diverged"
        assert len(lines) == 4
        cells = [[float(c) for c in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in cells] == np.linspace(0.8, 1.2, 3).tolist()
        # single-point sweep equals the step command's numbers
        out2 = tmp_path / "one"
        cli.main(["sweep", "--gamma-min", "1.0", "--gamma-max", "1.0", "--steps", "1",
                  "--out", str(out2)])
        row = (out2 / "sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(4.6986, abs=0.01)

    def test_sweep_marks_divergent_rows(self, tmp_path):
        out = tmp_path / "sweepdiv"
        cli.main(["sweep", "--gamma-min", "1.5", "--gamma-max", "1.65", "--steps", "2",
                  "--out", str(out)])
        rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][3] == "0" and rows[1][3] == "1"

    def test_simulate_and_spectrum_and_chsh(self, tmp_path):
        out = tmp_path / "sim"
        rc = cli.main([
            "simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "500",
            "--seed", "1", "--pair-rate-tau", "2.0", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads((out / "schsh.json").read_text())
        assert 2.0 < payload["s_chsh_ideal"] < 2.83
        spec_out = tmp_path / "spec"
        rc = cli.main(["spectrum", "--input", str(out / "trajectory.npz"),
                       "--out", str(spec_out)])
        assert rc == 0
        peak = json.loads((spec_out / "peak.json").read_text())["peak"]
        assert peak is not None
        chsh_out = tmp_path / "chsh"
        rc = cli.main(["chsh", "--tags", str(out / "tags.npz"), "--window", "0.01",
                       "--out", str(chsh_out)])
        assert rc == 0
        result = json.loads((chsh_out / "chsh.json").read_text())
        assert abs(result["s_chsh"] - payload["s_chsh_counts"]) < 1e-12

    def test_simulate_mu_zero_gives_quantum_value(self, tmp_path):
        out = tmp_path / "mu0"
        cli.main(["simulate", "--gamma", "1.0", "--mu-tau", "0", "--duration-tau", "200",
                  "--out", str(out)])
        payload = json.loads((out / "schsh.json").read_text())
        assert payload["s_chsh_ideal"] == pytest.approx(2 * math.sqrt(2), abs=1e-10)

    def test_simulate_seed_fanout(self, tmp_path):
        out = tmp_path / "fan"
        cli.main(["simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "300",
                  "--seed", "4", "--seeds", "2", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [4, 5]
        assert (out / "seed_4" / "trajectory.npz").exists()
        assert (out / "seed_5" / "schsh.json").exists()

    def test_byte_identical_runs(self, tmp_path):
        args = ["simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "300",
                "--seed", "7", "--pair-rate-tau", "1.0"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(args + ["--out", str(out_a)])
        cli.main(args + ["--out", str(out_b)])
        for name in ("trajectory.npz", "tags.npz", "schsh.json", "summary.json"):
            assert read(out_a / name) == read(out_b / name), name

    def test_spectrum_input_without_rho_target_exits_2(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        path.write_text("t,rho_d\n" + "".join(f"{0.01 * k},0.5\n" for k in range(3000)))
        rc = cli.main(["spectrum", "--input", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'rho_target'" in err and str(path) in err

    def test_chsh_ragged_tag_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tags.csv"
        path.write_text("t_seconds,arm,port,setting_index\n0.5,a,+,0\n0.5,b,+\n")
        rc = cli.main(["chsh", "--tags", str(path), "--window", "0.01",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and str(path) in err

    def test_resolved_config_records_analysis_inputs(self, tmp_path, inputs):
        spec = tmp_path / "spec"
        assert cli.main(["spectrum", "--input", str(inputs["tags"]), "--welch-segments", "4",
                         "--window-tau", "0.02", "--out", str(spec)]) == 0
        resolved = json.loads((spec / "resolved_config.json").read_text())
        assert (resolved["welch_segments"], resolved["window_tau"]) == (4, 0.02)
        feas = tmp_path / "feas"
        assert cli.main(["feasibility", "--length-m", "5000", "--pair-rate", "3e5",
                         "--required-pairs-per-tau", "50", "--out", str(feas)]) == 0
        assert json.loads((feas / "feasibility.json").read_text())["verdict"] is False
        resolved = json.loads((feas / "resolved_config.json").read_text())
        assert resolved["required_pairs_per_tau"] == 50.0

    def test_chsh_empty_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t_seconds,arm,port,setting_index\n")
        rc = cli.main(["chsh", "--tags", str(empty), "--window", "0.01",
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_feasibility_cases(self, tmp_path, capsys):
        assert cli.main(["feasibility", "--length-m", "5000", "--pair-rate", "3e5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["pairs_per_tau"] == pytest.approx(5.0, abs=0.01)
        assert cli.main(["feasibility", "--length-m", "144000", "--pair-rate", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is False
        assert cli.main(["feasibility", "--length-m", "0", "--pair-rate", "10"]) == 2

    def test_concurrence_command(self, capsys):
        assert cli.main(["concurrence", "--epsilon", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["concurrence"] == pytest.approx(0.70, abs=1e-10)
        assert cli.main(["concurrence", "--rho-d", "0.375", "--rho-a", "0.125"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["concurrence"] == pytest.approx(0.0, abs=1e-10)
        assert payload["positive"] is True
        assert cli.main(["concurrence", "--epsilon", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["concurrence"] == pytest.approx(1.0)

    def test_config_file_with_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": 0.9, "unknown_knob": 1}))
        rc = cli.main(["simulate", "--config", str(cfg), "--duration-tau", "200",
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": 1.0, "mu_per_second": 0.0,
                                   "duration_seconds": 200.0}))
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "schsh.json").read_text())
        assert payload["s_chsh_ideal"] == pytest.approx(2 * math.sqrt(2), abs=1e-10)

    def test_tau_and_length_are_exclusive(self, tmp_path):
        rc = cli.main(["step", "--gamma", "1.0", "--tau-seconds", "1.0",
                       "--length-m", "5000", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_verify_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        assert "all golden checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "--gamma", "nan", "--mu-tau", "0.2", "--duration-tau", "100"],
    ["simulate", "--gamma", "0.9", "--mu-tau", "nan", "--duration-tau", "100"],
    ["step", "--gamma", "nan"],
    ["sweep", "--gamma-min", "nan", "--steps", "2"],
    ["feasibility", "--length-m", "nan", "--pair-rate", "3e5"],
    ["step", "--gamma", "1.0", "--t-end", "nan"],
    ["spectrum", "--input", "trajectory.csv", "--bin-width-tau", "nan"],
    ["chsh", "--tags", "tags.csv", "--window", "nan"],
    ["concurrence", "--epsilon", "nan"],
])
def test_non_finite_input_exits_2(tmp_path, capsys, argv):
    # concurrence prints its result and takes no --out
    out = [] if argv[0] == "concurrence" else ["--out", str(tmp_path / "out")]
    assert cli.main(argv + out) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["step", "--gamma", "-1"],
    ["chsh", "--tags", "nowhere.csv", "--window", "0.01"],
    ["sweep", "--gamma-min", "-1", "--gamma-max", "1", "--steps", "3"],
    ["simulate", "--gamma", "-1", "--mu-tau", "0.2", "--duration-tau", "10"],
    ["simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "10",
     "--pair-rate-tau", "1", "--beta-policy", "fixed", "--beta-fixed", "0.3"],
])
def test_rejected_run_creates_no_out_dir(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "out"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["chsh", "spectrum"])
def test_non_finite_tag_time_exits_2(tmp_path, capsys, inputs, command, value):
    lines = inputs["tags"].read_text().splitlines()
    lines[-1] = ",".join([value] + lines[-1].split(",")[1:])
    path = tmp_path / "tags.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = (["chsh", "--tags", str(path), "--window", "0.01"] if command == "chsh"
            else ["spectrum", "--input", str(path)])
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path} line {len(lines)} has non-finite t_seconds" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column, value", [
    ("arm", "x"), ("port", "?"), ("setting_index", "7"), ("setting_index", "-1"),
])
def test_invalid_tag_value_exits_2(tmp_path, capsys, inputs, column, value):
    lines = inputs["tags"].read_text().splitlines()
    cells = lines[3].split(",")
    cells[io.TAG_HEADER.index(column)] = value
    lines[3] = ",".join(cells)
    path = tmp_path / "tags.csv"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["chsh", "--tags", str(path), "--window", "0.01",
                     "--out", str(tmp_path / "out")]) == 2
    assert f"{path} line 4 has an invalid {column}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column, value", [("rho_d", "inf"), ("t", "nan"), ("rho_target", "-inf")])
def test_non_finite_trajectory_cell_exits_2(tmp_path, capsys, inputs, column, value):
    lines = inputs["trajectory"].read_text().splitlines()
    cells = lines[-2].split(",")
    cells[["t", "rho_d", "rho_target"].index(column)] = value
    lines[-2] = ",".join(cells)
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["spectrum", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path} line {len(lines) - 1} has non-finite {column}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, named, flags", [
    ("tags", "time-tag", ["--signal", "rho_d"]),
    ("trajectory", "trajectory", ["--welch-segments", "4"]),
    ("trajectory", "trajectory", ["--window-tau", "0.02"]),
])
def test_spectrum_flag_of_other_input_kind_exits_2(tmp_path, capsys, inputs, kind, named, flags):
    rc = cli.main(["spectrum", "--input", str(inputs[kind]), *flags,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert flags[0] in err and f"{named} input" in err


@pytest.mark.parametrize("argv, expected", [
    (["step", "--gamma", "1.0", "--tau-seconds", "1e-5"],
     {"command": "step", "gamma": 1.0, "t_end_tau": 60.0, "samples_per_tau": 100,
      "tau_seconds": 1e-5}),
    (["sweep", "--steps", "2"],
     {"command": "sweep", "gamma_min": 0.1, "gamma_max": 1.55, "steps": 2, "t_end_tau": 60.0}),
    (["spectrum", "--input", "trajectory"],
     {"command": "spectrum", "input": "trajectory", "bin_width_tau": 0.1,
      "signal": "deviation", "min_prominence": 10.0, "welch_segments": None,
      "window_tau": None, "tau_seconds": 1.0}),
    (["spectrum", "--input", "tags"],
     {"command": "spectrum", "input": "tags", "bin_width_tau": 0.1, "signal": None,
      "min_prominence": 10.0, "welch_segments": 8, "window_tau": None, "tau_seconds": 1.0}),
    (["chsh", "--tags", "tags", "--window", "0.01"],
     {"command": "chsh", "tags": "tags", "window_seconds": 0.01}),
    (["feasibility", "--length-m", "5000", "--pair-rate", "3e5"],
     {"command": "feasibility", "length_m": 5000.0, "pair_rate_per_second": 3e5,
      "required_pairs_per_tau": 5.0}),
])
def test_resolved_config_is_the_flags(tmp_path, inputs, argv, expected):
    # input names stand for the fixture's files
    argv = [str(inputs.get(a, a)) for a in argv]
    expected = {k: str(inputs.get(v, v)) if k in ("input", "tags") else v
                for k, v in expected.items()}
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved == {"version": __version__, **expected}


def test_spectrum_csv_units_match_peak(tmp_path):
    tau = ["--tau-seconds", "1e-5"]
    sim, spec = tmp_path / "sim", tmp_path / "spec"
    assert cli.main(["simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "500",
                     *tau, "--out", str(sim)]) == 0
    assert cli.main(["spectrum", "--input", str(sim / "trajectory.npz"), *tau,
                     "--out", str(spec)]) == 0
    peak = json.loads((spec / "peak.json").read_text())["peak"]
    rows = np.loadtxt(spec / "spectrum.csv", delimiter=",", skiprows=1)
    k = np.argmin(np.abs(rows[:, 0] - peak["frequency_per_tau"]))
    assert rows[k, 0] == pytest.approx(peak["frequency_per_tau"], rel=0.02)
    assert rows[k, 1] == pytest.approx(peak["frequency_hz"], rel=0.02)


@pytest.fixture(scope="module")
def npz_inputs(tmp_path_factory):
    """The two kinds of spectrum input as npz archives, from the data of
    ``inputs``."""
    d = tmp_path_factory.mktemp("npz_inputs")
    io.write_trajectory_npz(d / "trajectory.npz", step_trajectory(1.0, 60.0))
    cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=300.0, seed=1,
                              pair_rate=2.0)
    io.write_tags_npz(d / "tags.npz", ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg)))
    return {"trajectory": d / "trajectory.npz", "tags": d / "tags.npz"}


def _arrays(path) -> dict:
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def _set(name, k, value):
    def edit(arrays):
        arrays[name] = arrays[name].astype(type(value))
        arrays[name][k] = value
    return edit


# case -> (input kind, edit of its arrays in place, array the message names)
NPZ_CASES = {
    "missing array": ("tags", lambda a: a.pop("port"), "port"),
    "unequal lengths": ("tags", lambda a: a.update(arm=a["arm"][:-1]), "arm"),
    "nan t_seconds": ("tags", _set("t_seconds", -1, math.nan), "t_seconds"),
    "inf t_seconds": ("tags", _set("t_seconds", 5, math.inf), "t_seconds"),
    "nan rho_d": ("trajectory", _set("rho_d", -1, math.nan), "rho_d"),
    "inf rho_d": ("trajectory", _set("rho_d", 5, -math.inf), "rho_d"),
    "arm code 7": ("tags", _set("arm", 3, np.int8(7)), "arm"),
    "port code 7": ("tags", _set("port", 3, np.int8(7)), "port"),
    "setting_index code 7": ("tags", _set("setting_index", 3, np.int8(7)), "setting_index"),
    "object array": ("tags", lambda a: a.update(arm=a["arm"].astype(object)), "arm"),
    "missing t": ("trajectory", lambda a: a.pop("t"), "t"),
}


@pytest.mark.parametrize("command, case", [
    (command, case) for case, (kind, _, _) in NPZ_CASES.items()
    for command in (["chsh", "spectrum"] if kind == "tags" else ["spectrum"])
])
def test_malformed_npz_exits_2(tmp_path, capsys, npz_inputs, command, case):
    kind, edit, name = NPZ_CASES[case]
    arrays = _arrays(npz_inputs[kind])
    edit(arrays)
    path = tmp_path / f"{kind}.npz"
    np.savez(path, **arrays)
    argv = (["chsh", "--tags", str(path), "--window", "0.01"] if command == "chsh"
            else ["spectrum", "--input", str(path)])
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path} " in err and repr(name) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["chsh", "spectrum", "export"])
@pytest.mark.parametrize("content", [b"t_seconds,arm,port,setting_index\n", b"",
                                     b"PK\x03\x04 truncated", "npy"])
def test_npz_suffix_on_other_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "x.npz"
    if content == "npy":
        with path.open("wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        path.write_bytes(content)
    argv = {"chsh": ["chsh", "--tags", str(path), "--window", "0.01"],
            "spectrum": ["spectrum", "--input", str(path)],
            "export": ["export", "--input", str(path)]}[command]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"{path} is not an npz archive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _trajectory_file(tmp_path, fmt, t):
    """A trajectory file at times ``t``."""
    traj = dict(t=np.asarray(t, float), rho_d=np.full(len(t), 0.5),
                rho_target=np.full(len(t), 0.5))
    path = tmp_path / f"trajectory.{fmt}"
    if fmt == "npz":
        np.savez(path, **traj)
    else:
        path.write_text("t,rho_d,rho_target\n"
                        + "".join(f"{x!r},0.5,0.5\n" for x in traj["t"].tolist()))
    return path


@pytest.mark.parametrize("fmt, where", [("csv", "line 4"), ("npz", "array 't' index 2")])
@pytest.mark.parametrize("t, why", [
    (0.01 * np.arange(3000) ** 2, "the grid step is 0.01"),
    (np.r_[0.0, 0.01, 0.01, 0.03 + 0.01 * np.arange(3000)], "t must increase"),
])
def test_uneven_trajectory_exits_2(tmp_path, capsys, fmt, where, t, why):
    path = _trajectory_file(tmp_path, fmt, t)
    assert cli.main(["spectrum", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path} {where} has t " in err and why in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_one_row_trajectory_exits_2(tmp_path, capsys, fmt):
    path = _trajectory_file(tmp_path, fmt, [0.0])
    assert cli.main(["spectrum", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path} holds one sample" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_tolerance_accepts_package_grids(tmp_path):
    # tau scaling and long runs put rounding into the time step
    for tau in (1.0, 1e-5):
        traj = dde.step_trajectory(1.0, 2000.0)
        traj = replace(traj, t0=traj.t0 * tau, dt=traj.dt * tau)
        for fmt, write, read_ in (("npz", io.write_trajectory_npz, io.read_trajectory_npz),
                                  ("csv", io.write_trajectory_csv, io.read_trajectory_csv)):
            path = tmp_path / f"traj.{fmt}"
            write(path, traj)
            assert np.array_equal(read_(path).t, traj.t)


class TestNpz:
    def test_trajectory_round_trip(self, tmp_path):
        cfg = ex.ExperimentConfig(gamma=0.9, tau=1e-5, mu=0.2e5, duration=300e-5, seed=1)
        traj = ex.simulate_rho_d(cfg)
        path = tmp_path / "trajectory.npz"
        io.write_trajectory_npz(path, traj, extras=True)
        back = io.read_trajectory_npz(path)
        for name in ("t", "rho_d", "rho_target"):
            assert np.array_equal(getattr(back, name), getattr(traj, name)), name
        assert io.npz_arrays(path) == ["t", "rho_d", "rho_target", "rho_no_target",
                                       "rho_d_clamped"]
        assert np.array_equal(_arrays(path)["rho_d_clamped"], np.clip(traj.rho_d, 0.25, 0.5))

    def test_tags_round_trip(self, tmp_path):
        cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=0.5, duration=100.0, seed=3,
                                  pair_rate=2.0, coincidence_window=0.01)
        tags = ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg))
        path = tmp_path / "tags.npz"
        io.write_tags_npz(path, tags, meta={"config": {"seed": 3}})
        back = io.read_tags_npz(path)
        for name in ("t", "arm", "port", "setting_index"):
            assert np.array_equal(getattr(back, name), getattr(tags, name)), name
        assert set(back.arm.tolist()) == {"a", "b"} and set(back.port.tolist()) == {"+", "-"}
        stored = _arrays(path)
        assert [stored[n].dtype for n in io.TAG_HEADER] == [np.float64] + [np.int8] * 3
        assert np.array_equal(stored["arm"], (tags.arm == "b").astype(np.int8))
        meta = json.loads(path.with_suffix(".npz.meta.json").read_text())
        assert meta["config"] == {"seed": 3}
        assert meta["format"]["codes"]["port"] == {"0": "+", "1": "-"}
        assert io.read_meta(path) == {"config": {"seed": 3}}


class TestExport:
    """``export`` of an npz artifact is the CSV of the in-memory run."""

    def test_simulate_artifacts(self, tmp_path):
        run, out = tmp_path / "run", tmp_path / "csv"
        assert cli.main(["simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau",
                         "300", "--seed", "7", "--pair-rate-tau", "1.0", "--out", str(run)]) == 0
        for name in ("trajectory.npz", "tags.npz"):
            assert cli.main(["export", "--input", str(run / name), "--out", str(out)]) == 0
        cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=300.0, seed=7,
                                  pair_rate=1.0)
        traj = ex.simulate_rho_d(cfg)
        want = tmp_path / "want"
        want.mkdir()
        io.write_trajectory_csv(want / "trajectory.csv", traj, extras=True)
        config = json.loads((run / "tags.npz.meta.json").read_text())["config"]
        io.write_tags_csv(want / "tags.csv", ex.generate_time_tags(cfg, traj),
                          meta={"config": config})
        assert sorted(p.name for p in out.iterdir()) == [
            "tags.csv", "tags.csv.meta.json", "trajectory.csv"]
        for name in ("trajectory.csv", "tags.csv", "tags.csv.meta.json"):
            assert read(out / name) == read(want / name), name

    def test_step_trajectory(self, tmp_path):
        run, out = tmp_path / "run", tmp_path / "csv"
        assert cli.main(["step", "--gamma", "1.0", "--tau-seconds", "1e-5",
                         "--out", str(run)]) == 0
        assert cli.main(["export", "--input", str(run / "trajectory.npz"),
                         "--out", str(out)]) == 0
        traj = step_trajectory(1.0, 60.0)
        io.write_trajectory_csv(tmp_path / "want.csv",
                                replace(traj, t0=traj.t0 * 1e-5, dt=traj.dt * 1e-5))
        assert read(out / "trajectory.csv") == read(tmp_path / "want.csv")

    def test_malformed_sidecar_exits_2(self, tmp_path, npz_inputs, capsys):
        path = tmp_path / "tags.npz"
        path.write_bytes(npz_inputs["tags"].read_bytes())
        path.with_suffix(".npz.meta.json").write_text('{"config": ')
        assert cli.main(["export", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "tags.npz.meta.json is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_input_exits_2(self, tmp_path, inputs):
        assert cli.main(["export", "--input", str(inputs["tags"]),
                         "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


def test_reproduce_figures_script(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"
    runpy.run_path(str(script))["main"](tmp_path / "out")
    assert (tmp_path / "out" / "chsh_gamma09" / "chsh.json").is_file()
    assert (tmp_path / "out" / "spectrum_gamma09" / "peak.json").is_file()


class TestRunConfig:
    """simulate's config file: SI keys, explicit flags beat it, it beats defaults."""

    BASE = {"gamma": 0.9, "mu_per_second": 0.2, "duration_seconds": 200.0}

    def run(self, tmp_path, config, *flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**self.BASE, **config}))
        return cli.main(["simulate", "--config", str(path), *map(str, flags)])

    def test_seeds_key_runs_every_seed(self, tmp_path):
        out = tmp_path / "out"
        assert self.run(tmp_path, {"seeds": 3}, "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["seeds"] == [0, 1, 2]
        assert json.loads((out / "resolved_config.json").read_text())["seeds"] == 3

    def test_accidental_rate_key_is_used(self, tmp_path):
        out = tmp_path / "out"
        config = {"pair_rate_per_second": 2.0, "accidental_rate_per_second": 0.5}
        assert self.run(tmp_path, config, "--out", out) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        meta = json.loads((out / "tags.npz.meta.json").read_text())
        assert resolved["accidental_rate_per_second"] == 0.5
        assert meta["config"]["accidental_rate_per_second"] == 0.5

    def test_out_dir_key_is_used(self, tmp_path):
        out = tmp_path / "from_config"
        assert self.run(tmp_path, {"out_dir": str(out)}) == 0
        assert (out / "schsh.json").exists()

    def test_explicit_default_valued_flag_beats_config(self, tmp_path):
        out = tmp_path / "out"
        assert self.run(tmp_path, {"seed": 5}, "--seed", 0, "--out", out) == 0
        assert json.loads((out / "resolved_config.json").read_text())["seed"] == 0
        assert json.loads((out / "schsh.json").read_text())["seed"] == 0

    @pytest.mark.parametrize("bad", [{"gamma": "0.9"}, {"seeds": 2.0}, {"gamma": True},
                                     {"beta_policy": "alternate"}])
    def test_wrong_typed_value_exits_2(self, tmp_path, bad):
        assert self.run(tmp_path, bad, "--out", tmp_path / "out") == 2

    def test_malformed_config_file_exits_2(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"gamma": 0.9,')
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_resolved_config_round_trips(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main([
            "simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "300",
            "--seed", "2", "--seeds", "2", "--tau-seconds", "1e-5", "--pair-rate-tau", "3",
            "--window-tau", "0.02", "--accidental-rate-tau", "0.1", "--efficiency", "0.8",
            "--out", str(out_a),
        ]) == 0
        resolved = json.loads((out_a / "resolved_config.json").read_text())
        del resolved["command"], resolved["version"]
        config = tmp_path / "resolved.json"
        config.write_text(json.dumps({**resolved, "out_dir": str(out_b)}))
        assert cli.main(["simulate", "--config", str(config)]) == 0
        files = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        assert len(files) == 10
        assert files == sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        for name in files:
            assert read(out_a / name) == read(out_b / name), name


class TestCsvFormat:
    """The CSV dialect, rendered here by hand from the in-memory arrays: a
    header row, CRLF line ends, floats as repr, ints and strings as is."""

    @staticmethod
    def rendered(header, rows) -> bytes:
        return "".join(",".join(cells) + "\r\n" for cells in [header, *rows]).encode()

    @staticmethod
    def floats(*columns):
        return [[repr(float(x)) for x in row] for row in zip(*columns)]

    @pytest.mark.parametrize("extras", [False, True])
    def test_trajectory(self, tmp_path, extras):
        cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=50.0, seed=1)
        traj = ex.simulate_rho_d(cfg)
        header = ["t", "rho_d", "rho_target"]
        columns = [traj.t, traj.rho_d, traj.rho_target]
        if extras:
            header += ["rho_no_target", "rho_d_clamped"]
            columns += [0.75 - traj.rho_target, np.clip(traj.rho_d, 0.25, 0.5)]
        path = tmp_path / "trajectory.csv"
        io.write_trajectory_csv(path, traj, extras=extras)
        assert read(path) == self.rendered(header, self.floats(*columns))

    def test_tags(self, tmp_path):
        cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=50.0, seed=1,
                                  pair_rate=2.0)
        tags = ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg))
        rows = [[repr(float(t)), str(arm), str(port), str(int(i))]
                for t, arm, port, i in zip(tags.t, tags.arm, tags.port, tags.setting_index)]
        path = tmp_path / "tags.csv"
        io.write_tags_csv(path, tags)
        assert read(path) == self.rendered(io.TAG_HEADER, rows)

    def test_spectrum(self, tmp_path):
        tau = 1e-5
        spec = sp.trajectory_spectrum(step_trajectory(1.0, 60.0))
        f = spec.frequencies
        path = tmp_path / "spectrum.csv"
        io.write_spectrum_csv(path, spec, tau_seconds=tau)
        header = ["frequency_per_tau", "frequency_hz", "power"]
        assert read(path) == self.rendered(header, self.floats(f * tau, f, spec.power))

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--gamma-min", "1.5", "--gamma-max", "1.65", "--steps", "3",
                         "--out", str(out)]) == 0
        rows = [[repr(float(r.gamma)), repr(float(r.decay_time_tau)),
                 repr(float(r.period_tau)), str(int(r.diverged))]
                for r in dde.gamma_sweep(np.linspace(1.5, 1.65, 3), 60.0)]
        header = ["gamma", "decay_time_tau", "period_tau", "diverged"]
        assert read(out / "sweep.csv") == self.rendered(header, rows)
