"""Fingerprints of the pipeline's outputs over the benchmark's configurations.

Usage, from the repository root:

    python3 tools/fingerprints.py > fingerprints.txt
    python3 tools/fingerprints.py --compare OLD NEW

For each workload in bench/workloads.py and seeds 0-3, the configuration
make_config(name, round_seed(seed, 0)) runs once in-process per entry of
coprocessor.MODES, and once in qlio over socket:0. Each run prints one line
with three fingerprints: repr(RunMetrics.deterministic_fields()), the
SHA-256 of the trajectory rows and the SHA-256 of every observation payload
in order (OBS_GROUPS in the qlio modes, OBS_FLOAT in baseline-float). A
refactor that must leave the outputs unchanged is checked by running this
script on both commits and comparing the files with diff.

--compare OLD NEW reads two such files and reports, for each line that
differs, which of fields, trajectory and payloads differ and, per differing
deterministic field, its name (pipeline.DETERMINISTIC_FIELDS) and relative
change. If any line differs, one line follows with the largest relative
change of each deterministic field over all lines, then one row per workload
and variant with the means over seeds of SUMMARY_FIELDS, old -> new: the
report a change that moves fingerprints by design gives. It ends with the
count of identical lines and the count of lines whose trajectory and
payloads are identical (the estimate did not move, whatever its metrics
read), and exits 1 if any line differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from quantlio import pipeline  # noqa: E402
from quantlio.coprocessor import MODES  # noqa: E402
from quantlio.wire import FrameType  # noqa: E402

from workloads import WORKLOADS, make_config, round_seed  # noqa: E402

SEEDS = range(4)
SUMMARY_FIELDS = ("ate_trans", "ate_rot", "meas_per_scan", "bits_per_meas_sent")
LINE = re.compile(r"(?P<run>.+?) fields=\((?P<fields>.*)\) "
                  r"trajectory=(?P<trajectory>\w+) payloads=(?P<payloads>\w+)")


def variants(cfg):
    """The (label, config) pairs run per workload and seed: one
    '<mode>/inproc' per entry of MODES, then 'qlio/socket:0'."""
    for mode in MODES:
        yield f"{mode}/inproc", dataclasses.replace(cfg, mode=mode, transport="inproc")
    yield "qlio/socket:0", dataclasses.replace(cfg, mode="qlio", transport="socket:0")


def fingerprint(cfg) -> tuple[str, str, str]:
    """(repr of the deterministic fields, trajectory SHA-256, payload SHA-256)
    of one run."""
    payloads = hashlib.sha256()
    encode_frame = pipeline.encode_frame

    def recording(frame_type, timestamp_us, payload):
        if frame_type in (FrameType.OBS_GROUPS, FrameType.OBS_FLOAT):
            payloads.update(payload)
        return encode_frame(frame_type, timestamp_us, payload)

    pipeline.encode_frame = recording
    try:
        metrics, rows = pipeline.run(cfg)
    finally:
        pipeline.encode_frame = encode_frame
    trajectory = hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()
    return repr(metrics.deterministic_fields()), trajectory, payloads.hexdigest()


def parse(path) -> dict:
    """{run label: (field strings, trajectory, payloads)} of one output file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        m = LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"{path}: not a fingerprint line: {line!r}")
        runs[m["run"]] = (m["fields"].split(", "), m["trajectory"], m["payloads"])
    return runs


def field_change(old: str, new: str) -> str:
    """'old -> new', with the relative change when both are numbers."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return f"{old} -> {new}"
    rel = f"{(b - a) / abs(a):+.3g}" if a != 0.0 else "n/a"
    return f"{old} -> {new} (rel {rel})"


def relative_change(old: str, new: str) -> float:
    """|new - old| / |old| of two differing field strings; inf when they are
    not both numbers or old is zero."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return float("inf")
    return abs(b - a) / abs(a) if a != 0.0 else float("inf")


def largest_changes(old: dict, new: dict) -> str:
    """One line: per deterministic field that differs on any line in both
    files (with equal field counts), its largest relative change."""
    largest: dict[str, float] = {}
    for run in old.keys() & new.keys():
        a, b = old[run][0], new[run][0]
        if len(a) == len(b):
            for name, x, y in zip(pipeline.DETERMINISTIC_FIELDS, a, b):
                if x != y:
                    largest[name] = max(largest.get(name, 0.0), relative_change(x, y))
    moved = [f"{name} {largest[name]:.2g}" for name in pipeline.DETERMINISTIC_FIELDS
             if name in largest]
    if not moved:
        return "largest change: all fields identical"
    rest = "; other fields identical" if len(moved) < len(pipeline.DETERMINISTIC_FIELDS) else ""
    return f"largest change: {', '.join(moved)}{rest}"


def summary(old: dict, new: dict) -> list[str]:
    """One row per (workload, variant) of the runs in both files: the mean
    over seeds of each SUMMARY_FIELDS field, old -> new."""
    runs: dict[tuple[str, str], list[str]] = {}
    for run in old:
        if run in new and len(old[run][0]) == len(new[run][0]):
            workload, _, variant = run.split(" ")
            runs.setdefault((workload, variant), []).append(run)
    rows = []
    for (workload, variant), labels in runs.items():
        cells = []
        for name in SUMMARY_FIELDS:
            i = pipeline.DETERMINISTIC_FIELDS.index(name)
            a, b = (sum(float(side[r][0][i]) for r in labels) / len(labels)
                    for side in (old, new))
            cells.append(f"{name} {field_change(f'{a:.6g}', f'{b:.6g}')}")
        rows.append(f"  {workload} {variant} (n={len(labels)}): {'; '.join(cells)}")
    return rows


def compare(old_path, new_path) -> int:
    """Print the differences between two fingerprint files; 1 if any."""
    old, new = parse(old_path), parse(new_path)
    identical = same_estimate = 0
    for run in [*old, *(r for r in new if r not in old)]:
        if run not in new or run not in old:
            print(f"{run}: only in {'OLD' if run in old else 'NEW'}")
            continue
        same_estimate += old[run][1:] == new[run][1:]
        if old[run] == new[run]:
            identical += 1
            continue
        parts = [part for part, a, b in zip(("fields", "trajectory", "payloads"),
                                            old[run], new[run]) if a != b]
        print(f"{run}: {' '.join(parts)} differ")
        a, b = old[run][0], new[run][0]
        if len(a) != len(b):
            print(f"  field count {len(a)} -> {len(b)}")
            continue
        for name, x, y in zip(pipeline.DETERMINISTIC_FIELDS, a, b):
            if x != y:
                print(f"  {name}: {field_change(x, y)}")
    total = len(old.keys() | new.keys())
    if identical != total:
        print(largest_changes(old, new))
        print("means over seeds, old -> new:", *summary(old, new), sep="\n")
    print(f"identical: {identical} of {total} lines; "
          f"trajectory and payloads identical: {same_estimate} of {total}")
    return int(identical != total)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="report how two fingerprint files differ")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for name in WORKLOADS:
        for seed in SEEDS:
            base = make_config(name, round_seed(seed, 0))
            for label, cfg in variants(base):
                fields, trajectory, payloads = fingerprint(cfg)
                print(f"{name} seed={seed} {label} fields={fields} "
                      f"trajectory={trajectory} payloads={payloads}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
