import numpy as np

from quantlio import cli, pipeline
from quantlio.quantizer import Codebook, bits_per_measurement


def test_run_writes_reports(tmp_path, capsys):
    assert cli.main(["--duration", "1", "--out", str(tmp_path)]) == 0
    assert "scans=10" in capsys.readouterr().out
    trajectory = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert trajectory.shape == (10, 9)
    scan_bits = np.loadtxt(tmp_path / "scan_bits.csv", delimiter=",", skiprows=1)
    assert scan_bits.shape == (10, 3)
    assert len(np.loadtxt(tmp_path / "ground_truth.csv", delimiter=",", skiprows=1)) > 10
    header, values = (tmp_path / "metrics.csv").read_text().splitlines()
    assert header.startswith("ate_trans,") and len(header.split(",")) == len(values.split(","))


def test_trajectory_outside_the_scene_exits_2(capsys):
    assert cli.main(["--scene", "corridor", "--trajectory", "circle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and "corridor walls" in err


def test_sweep_writes_csv(tmp_path, capsys):
    argv = ["--duration", "1", "--out", str(tmp_path), "--sweep", "lp=5,ln=2..3,lz=2"]
    assert cli.main(argv) == 0
    assert "sweep: 2 configurations" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
    header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
    keys = header.split(",")
    assert {"ate_rqrs", "ate_norqrs", "diverged_rqrs", "diverged_norqrs"} <= set(keys)
    assert [row.split(",")[keys.index("l_n")] for row in rows] == ["2", "3"]
    for row in rows:
        fields = dict(zip(keys, row.split(",")))
        cb = Codebook(**{k: int(fields[k]) for k in ("l_p", "l_n", "l_z")})
        assert int(fields["bits_formula"]) == bits_per_measurement(cb)


def test_reversed_sweep_range_exits_2(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(pipeline, "run", no_run)
    assert cli.main(["--out", str(tmp_path), "--sweep", "lp=12..3"]) == 2
    assert "sweep range lp=12..3 is empty" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()
    # A bit count no Codebook accepts is refused before any run.
    assert cli.main(["--out", str(tmp_path), "--sweep", "lp=0"]) == 2
    assert "l_p must be in [1, 16]" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_bad_duration_or_out_dir_exits_2(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(pipeline, "run", no_run)
    monkeypatch.setattr(cli, "run", no_run)
    for duration in ("0", "-1"):
        assert cli.main(["--duration", duration]) == 2
        assert "duration must be in (0, 300] s" in capsys.readouterr().err
    for flag, value, message in (("--ds0", "0", "ds_0 must be positive"),
                                 ("--ds0", "-0.5", "ds_0 must be positive"),
                                 ("--sigma", "0", "sigma must be positive"),
                                 ("--alpha", "-0.01", "alpha must be nonnegative")):
        assert cli.main([flag, value]) == 2
        assert message in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text("duration = 1\nout_dir =\n")
    assert cli.main(["--config", str(path)]) == 2
    assert "out_dir must not be empty" in capsys.readouterr().err


def config(tmp_path, text, *flags):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return cli.config_from_args(cli.build_parser().parse_args(["--config", str(path), *flags]))


def test_flags_override_the_config_file(tmp_path):
    cfg = config(tmp_path, "l_p = 5\nseed = 3\nduration = 1\n", "--ln", "2", "--seed", "4")
    assert (cfg.codebook.l_p, cfg.codebook.l_n, cfg.seed, cfg.duration) == (5, 2, 4, 1.0)
    assert cfg.codebook.l_z == Codebook().l_z


def test_config_file_scene_size(tmp_path):
    assert config(tmp_path, "scene_size = 8 8 3\n").scene_size == (8.0, 8.0, 3.0)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("duration = 1\nwheel_base = 2\n")
    assert cli.main(["--config", str(path)]) == 2
    assert "unknown config key 'wheel_base'" in capsys.readouterr().err
