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
        "largest change: ate_trans 0.25; other fields identical",
        "means over seeds, old -> new:",
        "  dense-float baseline-float/inproc (n=1): ate_trans 0.004 -> 0.004 (rel +0); "
        "ate_rot 0.002 -> 0.002 (rel +0); meas_per_scan 0.05 -> 0.05 (rel +0); "
        "bits_per_meas_sent 224 -> 224 (rel +0)",
        "  room-qlio qlio/inproc (n=1): ate_trans 0.004 -> 0.005 (rel +0.25); "
        "ate_rot 0.002 -> 0.002 (rel +0); meas_per_scan 0.05 -> 0.05 (rel +0); "
        "bits_per_meas_sent 34 -> 34 (rel +0)",
        "identical: 1 of 3 lines; trajectory and payloads identical: 1 of 3",
    ]
    assert tool.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "old.txt")]) == 0
    assert capsys.readouterr().out == "identical: 2 of 2 lines; trajectory and payloads identical: 2 of 2\n"


def test_compare_summarises_each_workload_and_variant_over_seeds(tmp_path, capsys):
    # Two seeds of one variant and one of another; a run whose field count
    # changed is left out of the means.
    def line(run, ate, meas, bits, extra=""):
        return (f"{run} fields=({ate}, 0.002, 100, 5, 5, {meas}, 1.0, 170, {bits}, 34.0, "
                f"np.False_, True, True, 0{extra}) trajectory=ab payloads=cd")

    old = [line("room-qlio seed=0 qlio/inproc", 0.004, 450.0, 33.0),
           line("room-qlio seed=1 qlio/inproc", 0.006, 460.0, 33.2),
           line("yard-qlio seed=0 qlio/inproc", 0.010, 400.0, 32.0),
           line("yard-qlio seed=1 qlio/inproc", 0.010, 400.0, 32.0)]
    new = [line("room-qlio seed=0 qlio/inproc", 0.003, 452.0, 33.0),
           line("room-qlio seed=1 qlio/inproc", 0.005, 462.0, 33.0),
           line("yard-qlio seed=0 qlio/inproc", 0.010, 400.0, 32.0),
           line("yard-qlio seed=1 qlio/inproc", 0.010, 400.0, 32.0, extra=", 7")]
    (tmp_path / "old.txt").write_text("\n".join(old) + "\n")
    (tmp_path / "new.txt").write_text("\n".join(new) + "\n")
    assert load_tool().main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[out.index("means over seeds, old -> new:") + 1:] == [
        "  room-qlio qlio/inproc (n=2): ate_trans 0.005 -> 0.004 (rel -0.2); "
        "ate_rot 0.002 -> 0.002 (rel +0); meas_per_scan 455 -> 457 (rel +0.0044); "
        "bits_per_meas_sent 33.1 -> 33 (rel -0.00302)",
        "  yard-qlio qlio/inproc (n=1): ate_trans 0.01 -> 0.01 (rel +0); "
        "ate_rot 0.002 -> 0.002 (rel +0); meas_per_scan 400 -> 400 (rel +0); "
        "bits_per_meas_sent 32 -> 32 (rel +0)",
        "identical: 1 of 4 lines; trajectory and payloads identical: 4 of 4",
    ]


def test_compare_counts_lines_whose_estimate_is_identical(tmp_path, capsys):
    # A change that redefines a metric moves the fields but must not move the
    # estimate: its lines count as trajectory and payloads identical.
    def line(seed, ate, trajectory="ab", payloads="cd"):
        return (f"room-qlio seed={seed} qlio/inproc fields=({ate}, 0.002, 100, 5, 5, 450.0, "
                f"1.0, 170, 33.0, 34.0, np.False_, True, True, 0) "
                f"trajectory={trajectory} payloads={payloads}")

    old = [line(0, 0.004), line(1, 0.004), line(2, 0.004), line(3, 0.004)]
    new = [line(0, 0.004), line(1, 0.005), line(2, 0.005, trajectory="ef"),
           line(3, 0.004, payloads="ef")]
    (tmp_path / "old.txt").write_text("\n".join(old) + "\n")
    (tmp_path / "new.txt").write_text("\n".join(new) + "\n")
    assert load_tool().main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == ["room-qlio seed=1 qlio/inproc: fields differ",
                       "  ate_trans: 0.004 -> 0.005 (rel +0.25)",
                       "room-qlio seed=2 qlio/inproc: fields trajectory differ",
                       "  ate_trans: 0.004 -> 0.005 (rel +0.25)",
                       "room-qlio seed=3 qlio/inproc: payloads differ"]
    assert out[-1] == "identical: 1 of 4 lines; trajectory and payloads identical: 2 of 4"


def test_variants_follow_the_modes():
    tool = load_tool()
    from workloads import make_config, round_seed

    from quantlio.coprocessor import MODES

    labels = [label for label, _ in tool.variants(make_config("room-qlio", round_seed(0, 0)))]
    assert labels == [f"{mode}/inproc" for mode in MODES] + ["qlio/socket:0"] == [
        "qlio/inproc", "baseline-float/inproc", "qlio-no-rqrs/inproc", "qlio/socket:0"]


def test_compare_names_the_largest_change_of_each_field(tmp_path, capsys):
    # The largest relative change per field over all lines; a field that is
    # not a number reads inf when it changes, and a line that moved only its
    # trajectory moves no field.
    def line(seed, ate, diverged="np.False_", trajectory="ab"):
        return (f"room-qlio seed={seed} qlio/inproc fields=({ate}, 0.002, 100, 5, 5, 450.0, "
                f"1.0, 170, 33.0, 34.0, {diverged}, True, True, 0) "
                f"trajectory={trajectory} payloads=cd")

    old = [line(0, 0.004), line(1, 0.004), line(2, 0.004)]
    new = [line(0, 0.005), line(1, 0.006, diverged="np.True_"), line(2, 0.004, trajectory="ef")]
    (tmp_path / "old.txt").write_text("\n".join(old) + "\n")
    (tmp_path / "new.txt").write_text("\n".join(new) + "\n")
    tool = load_tool()
    assert tool.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 1
    assert "largest change: ate_trans 0.5, diverged inf; other fields identical" in \
        capsys.readouterr().out.splitlines()
    (tmp_path / "new.txt").write_text("\n".join(old[:2] + new[2:]) + "\n")
    assert tool.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 1
    assert "largest change: all fields identical" in capsys.readouterr().out.splitlines()
