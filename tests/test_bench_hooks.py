"""The benchmark's trace hooks wrap program functions by name, and a renamed
function is only reported as unhooked, so these tests pin which names the
hooks miss."""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
from checks import payload_problems  # noqa: E402
from hooks import RoundHooks  # noqa: E402
from workloads import make_config, round_seed  # noqa: E402

from quantlio import coprocessor, pipeline  # noqa: E402


def test_traced_hooks_miss_only_the_known_dead_targets():
    original = coprocessor.voxel_downsample
    with RoundHooks(traced=True, seed=0) as hooks:
        assert coprocessor.voxel_downsample is not original
    assert coprocessor.voxel_downsample is original
    assert sorted(hooks.unhooked) == [
        "VoxelMap.knn",
        "quantlio.pipeline.associate",
        "quantlio.pipeline.undistort",
        "quantlio.pipeline.voxel_downsample",
    ]


def test_benchmark_payload_check_passes_on_a_room_qlio_run():
    # The benchmark marks a round's outputs incorrect unless every OBS_GROUPS
    # payload decodes to the groups packed and has the length bench/checks.py
    # derives from the layout, so a layout change must keep both in step.
    cfg = dataclasses.replace(make_config("room-qlio", round_seed(0, 0)), duration=1.0)
    with RoundHooks(traced=False, seed=0) as hooks:
        pipeline.run(cfg)
    assert len(hooks.packed) == len(hooks.obs_sent) > 1
    assert max(len(groups) for groups, _ in hooks.packed) > 1
    assert payload_problems(hooks.packed, hooks.obs_sent, cfg.codebook) == []


def test_benchmark_float_check_passes_on_a_dense_float_run():
    # The benchmark marks a float round incorrect unless its bill is
    # FLOAT_OBS_BITS per observation the host was handed, counted once per
    # scan by Host.apply_float_observations: a header in the OBS_FLOAT
    # payload, or a handler skipped or called twice, fails here.
    cfg = dataclasses.replace(make_config("dense-float", round_seed(0, 0)), duration=1.0)
    with RoundHooks(traced=False, seed=0) as hooks:
        metrics, _ = pipeline.run(cfg)
    assert metrics.scans == 10 and metrics.measurements_total > 0
    assert len(hooks.obs_sent) == metrics.scans
    assert metrics.bits_total == checks.FLOAT_OBS_BITS * sum(hooks.obs_sent)
