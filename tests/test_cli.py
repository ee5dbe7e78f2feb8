import numpy as np

from quantlio import cli


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
    header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
    keys = header.split(",")
    assert {"ate_rqrs", "ate_norqrs", "diverged_rqrs", "diverged_norqrs"} <= set(keys)
    assert [row.split(",")[keys.index("l_n")] for row in rows] == ["2", "3"]


def test_reversed_sweep_range_exits_2(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "--sweep", "lp=12..3"]) == 2
    assert "sweep range lp=12..3 is empty" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()
