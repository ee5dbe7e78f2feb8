"""The benchmark's trace hooks wrap program functions by name, and a renamed
function is only reported as unhooked, so these tests pin which names the
hooks miss."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from hooks import RoundHooks  # noqa: E402

from quantlio import coprocessor  # noqa: E402


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
