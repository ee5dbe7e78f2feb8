"""Fingerprints of the pipeline's outputs over the benchmark's configurations.

Usage, from the repository root:

    python3 tools/fingerprints.py > fingerprints.txt

For each workload in bench/workloads.py and seeds 0-3, the configuration
make_config(name, round_seed(seed, 0)) runs in-process in every mode, and in
qlio over socket:0: 60 runs. Each prints one line with three fingerprints:
repr(RunMetrics.deterministic_fields()), the SHA-256 of the trajectory rows
and the SHA-256 of every OBS_GROUPS payload in order (the float baselines
send none). A refactor that must leave the outputs unchanged is checked by
running this script on both commits and comparing the files with diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from quantlio import pipeline  # noqa: E402
from quantlio.coprocessor import MODES  # noqa: E402

from workloads import WORKLOADS, make_config, round_seed  # noqa: E402

SEEDS = range(4)


def variants(cfg):
    """The five (label, config) pairs run per workload and seed."""
    for mode in MODES:
        yield f"{mode}/inproc", dataclasses.replace(cfg, mode=mode, transport="inproc")
    yield "qlio/socket:0", dataclasses.replace(cfg, mode="qlio", transport="socket:0")


def fingerprint(cfg) -> tuple[str, str, str]:
    """(repr of the deterministic fields, trajectory SHA-256, payload SHA-256)
    of one run."""
    payloads = hashlib.sha256()
    pack_groups = pipeline.pack_groups

    def recording(groups, cb):
        payload = pack_groups(groups, cb)
        payloads.update(payload)
        return payload

    pipeline.pack_groups = recording
    try:
        metrics, rows = pipeline.run(cfg)
    finally:
        pipeline.pack_groups = pack_groups
    trajectory = hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()
    return repr(metrics.deterministic_fields()), trajectory, payloads.hexdigest()


def main() -> int:
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
