"""tools/fingerprints.py is the identity check of every refactor; these tests
keep it running against the current API."""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprints.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_repeats_and_sees_the_payloads():
    tool = load_tool()
    from workloads import make_config, round_seed  # on sys.path once the tool loads

    cfg = dataclasses.replace(make_config("room-qlio", round_seed(0, 0)), duration=1.0)
    assert cfg.mode == "qlio"
    first = tool.fingerprint(cfg)
    assert tool.fingerprint(cfg) == first
    fields, trajectory, payloads = first
    assert fields.startswith("(") and len(trajectory) == 64
    assert payloads != hashlib.sha256().hexdigest()


def test_fingerprint_sees_the_obs_float_payloads():
    tool = load_tool()
    from workloads import make_config, round_seed

    cfg = dataclasses.replace(make_config("dense-float", round_seed(0, 0)), duration=0.5)
    assert cfg.mode == "baseline-float"
    _, _, payloads = tool.fingerprint(cfg)
    assert payloads != hashlib.sha256().hexdigest()


def test_compare_reports_differing_parts_fields_and_count(tmp_path, capsys):
    tool = load_tool()
    same = ("dense-float seed=1 baseline-float/inproc fields=(0.004, 0.002, 100, 5, 5, 0.05, "
            "1.0, 1120, 224.0, 224.0, np.False_, True, True, 0) trajectory=aa payloads=bb")
    old = ("room-qlio seed=0 qlio/inproc fields=(0.004, 0.002, 100, 5, 5, 0.05, 1.0, "
           "170, 34.0, 34.0, np.False_, True, True, 0) trajectory=ab payloads=cd")
    new = old.replace("(0.004, 0.002,", "(0.005, 0.002,").replace("trajectory=ab", "trajectory=ef")
    (tmp_path / "old.txt").write_text(f"{same}\n{old}\n")
    extra = same.replace("seed=1", "seed=2")
    (tmp_path / "new.txt").write_text(f"{same}\n{new}\n{extra}\n")
    assert tool.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "room-qlio seed=0 qlio/inproc: fields trajectory differ",
        "  ate_trans: 0.004 -> 0.005 (rel +0.25)",
        "dense-float seed=2 baseline-float/inproc: only in NEW",
        "identical: 1 of 3 lines",
    ]
    assert tool.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "old.txt")]) == 0
    assert capsys.readouterr().out == "identical: 2 of 2 lines\n"
