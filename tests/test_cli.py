import hashlib

import numpy as np
import pytest

from gatesim import harness, pgnn
from gatesim.cli import build_parser, main
from gatesim.pgnn import load_params, mlp_forward


@pytest.fixture
def build_calls(monkeypatch):
    """Records each call of harness.build_default_models (each trains)."""
    calls = []
    build = harness.build_default_models

    def counting_build(**kwargs):
        calls.append(kwargs)
        return build(**kwargs)

    monkeypatch.setattr(harness, "build_default_models", counting_build)
    return calls


def test_profile_energy(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = main(["profile-energy", "--depth", "4", "--depth", "6", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "depth,v,energy_J"
    assert len(lines) == 33  # two depths x 16 velocities
    assert "hover" in capsys.readouterr().out


def test_profile_energy_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["profile-energy", "--depth", "3", "--out", str(a)]) == 0
    assert main(["profile-energy", "--depth", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_profile_energy_rejects_a_repeated_depth(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["profile-energy", "--depth", "4", "--depth", "4.0", "--out", str(out)]) == 1
    assert "--depth 4.0 is repeated" in capsys.readouterr().err
    assert not out.exists()


def test_profile_energy_rejects_a_non_numeric_depth(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    with pytest.raises(SystemExit) as exc:
        main(["profile-energy", "--depth", "four", "--out", str(out)])
    assert exc.value.code == 2
    assert "--depth: invalid float value: 'four'" in capsys.readouterr().err
    assert not out.exists()


def test_train_pgnn(tmp_path):
    params_path = tmp_path / "params.npz"
    curve_path = tmp_path / "curve.csv"
    code = main([
        "train-pgnn", "--epochs", "30", "--seed", "1",
        "--out", str(params_path), "--loss-curve", str(curve_path),
    ])
    assert code == 0
    params = load_params(params_path)
    v = mlp_forward(params, 4.0)
    assert 0.5 <= v <= 20.0
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "epoch,mse,physics_term,total"
    assert len(lines) == 31


def test_train_pgnn_writes_the_out_path_as_given(tmp_path):
    # np.savez appends ".npz" to a bare path; --out must name the file written.
    params_path = tmp_path / "params.bin"
    assert main(["train-pgnn", "--epochs", "2", "--out", str(params_path)]) == 0
    assert params_path.is_file()
    assert not (tmp_path / "params.bin.npz").exists()
    assert 0.5 <= mlp_forward(load_params(params_path), 4.0) <= 20.0


def test_train_pgnn_fifty_epochs_pinned(tmp_path):
    # Pins the command's outputs: the saved arrays and the loss-curve bytes.
    params_path = tmp_path / "params.npz"
    curve_path = tmp_path / "curve.csv"
    code = main([
        "train-pgnn", "--epochs", "50",
        "--out", str(params_path), "--loss-curve", str(curve_path),
    ])
    assert code == 0
    data = np.load(params_path)
    digest = hashlib.sha256()
    for key in data.files:
        digest.update(data[key].tobytes())
    assert digest.hexdigest() == (
        "7202b570a72b5fda36e8542ada521d08cf1473e02422e9842f12c85ff64a8cbf"
    )
    assert hashlib.sha256(curve_path.read_bytes()).hexdigest() == (
        "c149fa648c663ec066c07eadde8cf867083e496de638550ee5206ab90221cdc0"
    )


def test_train_pgnn_from_csv_dataset(tmp_path, dataset):
    from gatesim.fitting import write_dataset_csv

    data_path = tmp_path / "dataset.csv"
    write_dataset_csv(dataset, data_path)
    out = tmp_path / "params.npz"
    code = main([
        "train-pgnn", "--dataset", str(data_path), "--epochs", "10",
        "--lambda", "0", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()


def test_run_episode_command(tmp_path, capsys):
    cfg_path = tmp_path / "episode.ini"
    cfg_path.write_text("[world]\nseed = 7\n")
    traj_path = tmp_path / "traj.csv"
    code = main([
        "run", "--config", str(cfg_path), "--epochs", "50",
        "--trajectory-out", str(traj_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "success:" in out and "energy_J:" in out
    assert traj_path.read_text().startswith("t,x,y,vx,vy,ax,ay")


def test_benchmark_deterministic(tmp_path):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("drone_x,drone_y,gate_y0,gate_speed,alternate\n"
                         "2.000,0.000,2.000,0.500,1\n3.000,1.000,1.000,0.500,1\n")
    outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for out in outs:
        code = main([
            "benchmark", "--grid", str(grid_path), "--out", str(out),
            "--runs", "2", "--epochs", "30", "--seed", "5",
        ])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text().splitlines()[0].startswith("drone_x,")


def test_ablation_command(tmp_path, capsys):
    out = tmp_path / "ablation.csv"
    code = main(["ablation", "--out", str(out), "--runs", "1", "--epochs", "30"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 5
    assert "corner energy ratio" in capsys.readouterr().out


def test_errors_exit_nonzero(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.ini")])
    assert code == 1
    assert "error:" in capsys.readouterr().err

    code = main(["profile-energy", "--depth", "-4", "--out", str(tmp_path / "x.csv")])
    assert code == 1

    cfg_path = tmp_path / "episode.ini"
    cfg_path.write_text("[world]\n[episode]\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--model-seed", "-3"]) == 1
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("text, name", [
    ("[world]\ngate_sped = 3.0\n", "gate_sped"),
    ("[world]\nseed = 1.7\n", "seed"),
    ("[world]\ndrone_x = nan\n", "drone_x"),
    ("[world]\nevent_threshold = 0\n", "event_threshold"),
    ("[world]\nring_thickness_px = -1\n", "ring_thickness_px"),
    ("[world]\ngate_y0 = 2.5\n", "gate_y0"),
    ("[world]\ngate_radius = 0\n", "gate_radius"),
    ("[world]\nseed = -1\n", "seed"),
    ("[world]\nspurious_rate = -5\n", "spurious_rate"),
    ("[episode]\ndepth_noise_sigma = -0.1\n", "depth_noise_sigma"),
    ("[episode]\ndrone_radius = -1\n", "drone_radius"),
    ("[world]\ngate_radius = 0.5\n[episode]\ndrone_radius = 0.5\n", "gate_radius"),
])
def test_run_rejects_bad_config(tmp_path, capsys, text, name):
    cfg_path = tmp_path / "episode.ini"
    cfg_path.write_text(text)
    code = main(["run", "--config", str(cfg_path), "--epochs", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("text, name", [
    ("depth,v_star,k1,k2,k3,k4\n2,8,1,1,1,1\n", "k5"),
    ("depth,v_star,k1,k2,k3,k4,k5,k6\n2,8,1,1,1,1,1,1\n", "k6"),
    ("depth,v_star,k1,k2,k3,k4,k5\n2,8,1,1,1,1,1\n3,8,1,1\n", "line 3"),
    ("depth,v_star,k1,k2,k3,k4,k5\n2,fast,1,1,1,1,1\n", "v_star"),
    ("depth,depth,v_star,k1,k2,k3,k4,k5\n2,3,8,1,1,1,1,1\n", "duplicate column 'depth'"),
])
def test_train_pgnn_rejects_bad_dataset(tmp_path, capsys, text, name):
    data_path = tmp_path / "dataset.csv"
    data_path.write_text(text)
    code = main([
        "train-pgnn", "--dataset", str(data_path), "--epochs", "1",
        "--out", str(tmp_path / "p.npz"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("depth", ["nan", "-2", "0"])
def test_train_pgnn_rejects_bad_depth(tmp_path, capsys, depth):
    data_path = tmp_path / "dataset.csv"
    data_path.write_text(f"depth,v_star,k1,k2,k3,k4,k5\n2,8,1,1,1,1,1\n{depth},8,1,1,1,1,1\n")
    out = tmp_path / "p.npz"
    code = main(["train-pgnn", "--dataset", str(data_path), "--epochs", "3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3 of") and "depth must be finite and positive" in err
    assert not out.exists()


def test_train_pgnn_checks_settings_before_reading_the_dataset(tmp_path, capsys):
    out = tmp_path / "p.npz"
    code = main(["train-pgnn", "--epochs", "0", "--dataset", str(tmp_path / "missing.csv"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: epochs must be")
    assert not out.exists()


def test_train_pgnn_rejects_too_few_samples(tmp_path, capsys):
    # a well-formed dataset that training itself rejects
    data_path = tmp_path / "dataset.csv"
    rows = "".join(f"{depth},8,1,1,1,1,1\n" for depth in (2, 3, 4))
    data_path.write_text("depth,v_star,k1,k2,k3,k4,k5\n" + rows)
    out = tmp_path / "p.npz"
    code = main(["train-pgnn", "--dataset", str(data_path), "--epochs", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: need >= 8 training samples, got 3\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, want", [
    (["run", "--config", "c.ini"],
     dict(config="c.ini", trajectory_out=None, epochs=2000, model_seed=0)),
    (["benchmark", "--out", "o.csv"],
     dict(grid=None, out="o.csv", runs=10, seed=0, epochs=2000, model_seed=0)),
    (["ablation", "--out", "o.csv"],
     dict(out="o.csv", runs=10, seed=0, epochs=2000, model_seed=0)),
])
def test_episode_commands_options_and_defaults(argv, want):
    args = vars(build_parser().parse_args(argv))
    assert args.pop("command") == argv[0] and callable(args.pop("func"))
    assert args == want


@pytest.mark.parametrize("command", ["benchmark", "ablation"])
@pytest.mark.parametrize("runs", ["0", "-2"])
def test_suites_reject_run_counts_below_one(tmp_path, capsys, build_calls, command, runs):
    out = tmp_path / "out.csv"
    code = main([command, "--out", str(out), "--runs", runs, "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runs" in err
    assert build_calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["benchmark", "ablation"])
def test_suites_reject_negative_seed(tmp_path, capsys, build_calls, command):
    out = tmp_path / "out.csv"
    code = main([command, "--out", str(out), "--seed", "-5", "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert build_calls == []
    assert main([command, "--out", str(out), "--model-seed", "-3"]) == 1
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["profile-energy", "--depth", "nan"], "depth"),
    (["profile-energy", "--depth", "4", "--depth", "inf"], "depth"),
    (["train-pgnn", "--lambda", "nan", "--epochs", "1"], "lam"),
    (["train-pgnn", "--seed", "-1", "--epochs", "1"], "seed"),
])
def test_non_finite_arguments_rejected(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not out.exists()


def test_benchmark_rejects_bad_grid(tmp_path, capsys):
    grid_path = tmp_path / "bad.csv"
    grid_path.write_text("drone_x,drone_y\n2,0\n")
    code = main(["benchmark", "--grid", str(grid_path), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gate_y0" in err


def test_benchmark_rejects_bad_grid_row_before_training(tmp_path, capsys, build_calls):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("drone_x,drone_y,gate_y0\n2,0,2\n-5,0,2\n")
    out = tmp_path / "o.csv"
    code = main(["benchmark", "--grid", str(grid_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3 of") and "drone_x = -5.0" in err
    assert build_calls == []
    assert not out.exists()


def test_benchmark_rejects_empty_grid_before_training(tmp_path, capsys, build_calls):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("drone_x,drone_y,gate_y0\n")
    out = tmp_path / "o.csv"
    code = main(["benchmark", "--grid", str(grid_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid must be nonempty" in err
    assert build_calls == []
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--loss-curve"])
@pytest.mark.parametrize("bad, message", [
    ("missing/x", "does not exist"),
    (".", "is a directory"),
])
def test_train_pgnn_checks_output_paths_before_training(
    tmp_path, capsys, monkeypatch, flag, bad, message
):
    calls = []
    monkeypatch.setattr(pgnn, "train_pgnn", lambda *a, **k: calls.append(a))
    paths = {"--out": tmp_path / "p.npz", "--loss-curve": tmp_path / "curve.csv"}
    paths[flag] = tmp_path / bad
    argv = ["train-pgnn", "--epochs", "1"]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(paths[flag]) in err and message in err
    assert calls == []
    assert not any(p.is_file() for p in paths.values())


@pytest.mark.parametrize("command", ["benchmark", "ablation", "run"])
def test_commands_check_output_dir_before_training(tmp_path, capsys, build_calls, command):
    out = tmp_path / "missing" / "out.csv"
    if command == "run":
        cfg_path = tmp_path / "episode.ini"
        cfg_path.write_text("[world]\n[episode]\n")
        argv = ["run", "--config", str(cfg_path), "--trajectory-out", str(out)]
    else:
        argv = [command, "--out", str(out)]
    assert main([*argv, "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and "does not exist" in err
    assert build_calls == []
