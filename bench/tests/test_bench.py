"""Tests of the benchmark itself; not part of the repository's default run.

    PYTHONPATH=src python3 -m pytest -q bench/tests

The smoke tests run one round of every workload (and a traced pair) through
the command line, with every output check, and take about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from quantlio.coprocessor import ObservationGroup  # noqa: E402
from quantlio.quantizer import Codebook  # noqa: E402
from quantlio.voxelmap import VoxelMap  # noqa: E402
from quantlio.wire import pack_groups  # noqa: E402

import checks  # noqa: E402
from run import E2E_UNITS, LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def helix(n: int = 40):
    """Non-planar ground-truth path with varying heading."""
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pos = np.stack([3 * np.cos(th), 2 * np.sin(th), 0.4 * np.sin(3 * th)], axis=1)
    rots = np.array([rot_z(a + 0.3) for a in th])
    return th, pos, rots


class TestAte:
    def test_rigidly_moved_copy_has_zero_error(self):
        _, pos, rots = helix()
        move_r = rot_z(0.7) @ np.array([[1, 0, 0], [0, math.cos(0.2), -math.sin(0.2)],
                                         [0, math.sin(0.2), math.cos(0.2)]])
        move_t = np.array([4.0, -1.0, 2.5])
        trans, rot = checks.ate(pos @ move_r.T + move_t, move_r @ rots, pos, rots)
        assert trans < 1e-12
        assert rot < 1e-7

    def test_known_offset_gives_known_rmse(self):
        # Alternating +-d along z is orthogonal to every rigid motion of this
        # path, so alignment cannot remove any of it: the RMSE is exactly d.
        th, pos, rots = helix()
        d = 0.013
        signs = np.where(np.arange(len(th)) % 2 == 0, 1.0, -1.0)
        est = pos + d * signs[:, None] * np.array([0.0, 0.0, 1.0])
        trans, rot = checks.ate(est, rots, pos, rots)
        assert trans == pytest.approx(d, rel=1e-9)
        assert rot < 1e-7

    def test_known_heading_offset_gives_known_rotation_rmse(self):
        _, pos, rots = helix()
        eps = 0.004
        trans, rot = checks.ate(pos, rots @ rot_z(eps), pos, rots)
        assert trans < 1e-12
        assert rot == pytest.approx(eps, rel=1e-6)

    def test_quaternion_round_trip(self):
        from quantlio.manifold import rot_to_quat
        _, _, rots = helix(7)
        back = checks.quat_to_rot(np.array([rot_to_quat(r) for r in rots]))
        np.testing.assert_allclose(back, rots, atol=1e-12)


class TestPayloadChecks:
    cb = Codebook()

    def groups(self, seed: int):
        rng = np.random.default_rng(seed)
        out = []
        for key in sorted(rng.choice(2 ** (3 * self.cb.l_n), size=5, replace=False)):
            members = [(int(rng.integers(2 ** self.cb.l_z)),
                        tuple(int(v) for v in rng.integers(2 ** self.cb.l_p, size=3)))
                       for _ in range(int(rng.integers(1, 9)))]
            out.append(ObservationGroup(rq_key=int(key), members=members))
        return out

    def test_sound_payloads_pass(self):
        packed = [(g, pack_groups(g, self.cb)) for g in map(self.groups, range(6))]
        sent = [sum(len(x.members) for x in g) for g, _ in packed]
        assert checks.payload_problems(packed, sent, self.cb) == []

    def test_flipped_bit_and_wrong_count_are_reported(self):
        groups = self.groups(0)
        payload = bytearray(pack_groups(groups, self.cb))
        payload[3] ^= 0x10
        sent = sum(len(g.members) for g in groups)
        assert checks.payload_problems([(groups, bytes(payload))], [sent], self.cb)
        good = pack_groups(groups, self.cb)
        assert checks.payload_problems([(groups, good)], [sent + 1], self.cb)
        assert checks.payload_problems([(groups, good + b"\0")], [sent], self.cb)


def test_brute_force_knn_matches_voxel_map():
    rng = np.random.default_rng(3)
    vmap = VoxelMap(edge=0.5)
    vmap.insert(np.round(rng.uniform(-4, 4, size=(3000, 3)), 2))
    points = vmap.points
    queries = rng.uniform(-6, 6, size=(50, 3))
    for q, got in zip(queries, vmap.knn_batch(queries, 5)):
        want = checks.brute_force_knn(points, q, 5, vmap.search_radius)
        np.testing.assert_array_equal(got, want)


def run_cli(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload):
    plain = run_cli("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 100
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(E2E_UNITS)
    assert all(v > 0 and math.isfinite(v) for v in metrics.values())
    if workload == "dense-float":
        assert metrics["bits_per_meas"] == 224

    traced = run_cli("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 200
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(layers) == set(LAYER_UNITS)
    assert layers["trace.knn_checked"] > 0
    codec = ("coprocessor.rq_resample_ms", "coprocessor.build_groups_ms", "wire.pack_ms",
             "wire.unpack_ms", "estimator.qmap_ms", "wire.payload_bytes")
    if workload == "dense-float":
        assert all(layers[k] == 0 for k in codec)
        assert layers["estimator.float_update_ms"] > 0
    else:
        assert all(layers[k] > 0 for k in codec)
        assert layers["estimator.float_update_ms"] == 0
    assert (layers["wire.link_ms"] > 0.05) == (workload == "room-qlio")


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("--workload", "room-qlio", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
