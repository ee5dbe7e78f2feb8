"""The benchmark's workloads: seeded pipeline configurations.

Every workload is closed loop with one scan in flight, driven from one
process. One round is ROUND_S seconds of simulated motion at a pace of one
figure-eight cycle or one circle lap per 10 s, so a round is always the same
amount of work whatever the run length.
"""

from __future__ import annotations

import numpy as np

from quantlio.pipeline import RunConfig
from quantlio.simworld import LidarModel

ROUND_S = 10

# Why each workload exists is in README.md; BENCHMARK.json gates the first two.
WORKLOADS = ("room-qlio", "dense-float", "yard-qlio")


def round_seed(seed: int, index: int) -> int:
    """Seed of round `index` of a run started with `seed`; rounds never share
    inputs, neither within a run nor with another seed's rounds."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_config(name: str, seed: int) -> RunConfig:
    """RunConfig of one round of workload `name`."""
    laps = ROUND_S // 10
    if name == "room-qlio":
        return RunConfig(scene="box-room", trajectory="figure-eight", duration=ROUND_S,
                         seed=seed, mode="qlio", transport="socket:0",
                         trajectory_params={"cycles": laps})
    if name == "yard-qlio":
        return RunConfig(scene="open-yard", trajectory="circle", duration=ROUND_S,
                         seed=seed, mode="qlio", transport="inproc",
                         trajectory_params={"laps": laps})
    if name == "dense-float":
        return RunConfig(scene="box-room", trajectory="figure-eight", duration=ROUND_S,
                         seed=seed, mode="baseline-float", transport="inproc",
                         lidar=LidarModel(n_azimuth=256, n_elevation=32),
                         trajectory_params={"cycles": laps})
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
