import math

import numpy as np
import pytest

from quantlio.manifold import ERROR_DIM, NavState, NoiseParams, propagate, rot_to_quat, so3_exp
from quantlio.simworld import (
    GRAVITY_W, LidarModel, build_scene, load_descriptor, synth_imu,
    synth_scan, synth_trajectory,
)

PRESETS = ["static", "line", "circle", "figure-eight"]


def yaw_rotation(yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestScenes:
    def test_box_room_construction(self):
        scene = build_scene("box-room", (10.0, 10.0, 3.0))
        assert len(scene.patches) == 6
        # Normals face the interior: each points from its patch toward the origin.
        for patch in scene.patches:
            assert patch.normal @ (np.zeros(3) - patch.center) > 0.0
            assert abs(np.linalg.norm(patch.normal) - 1.0) < 1e-12
            assert abs(patch.offset) > 0.5

    def test_corridor_construction(self):
        scene = build_scene("corridor", (40.0, 3.0, 2.5))
        long_patches = [p for p in scene.patches if max(p.half_u, p.half_v) >= 10.0]
        assert len(long_patches) == 4
        normals = np.array([p.normal for p in long_patches])
        pair_count = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if abs(normals[i] @ normals[j]) > 0.999)
        assert pair_count == 2  # two anti-parallel pairs among the long walls

    def test_observability_normal_diversity(self):
        for preset in ("box-room", "open-yard"):
            scene = build_scene(preset)
            normals = np.array([p.normal for p in scene.patches])
            distinct = 0
            for i in range(len(normals)):
                if all(normals[i] @ normals[j] < 0.999 for j in range(i)):
                    distinct += 1
            assert distinct >= 4

    def test_determinism(self):
        a = build_scene("open-yard", seed=42)
        b = build_scene("open-yard", seed=42)
        for pa, pb in zip(a.patches, b.patches):
            np.testing.assert_array_equal(pa.center, pb.center)
            np.testing.assert_array_equal(pa.normal, pb.normal)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_scene("dungeon")

    def test_clearance_to_walls(self):
        room = build_scene("box-room")
        np.testing.assert_allclose(room.clearance([[0.0, 0.0, 0.0], [4.5, 0.0, 0.0],
                                                   [6.0, 0.0, 0.0]]), [1.3, 0.5, -1.0])
        corridor = build_scene("corridor")
        np.testing.assert_allclose(corridor.clearance([[0.0, 1.0, 0.0], [-5.5, 0.0, 0.0]]),
                                   [0.5, -0.5])
        # The yard is open above and bounded by its half-width around.
        yard = build_scene("open-yard", (15.0,))
        np.testing.assert_allclose(yard.clearance([[14.0, 0.0, 50.0], [0.0, -16.0, 0.0]]),
                                   [1.0, -1.0])

    @pytest.mark.parametrize("scene, trajectory, params, inside", [
        ("box-room", "figure-eight", {"cycles": 1}, True),
        ("open-yard", "circle", {"laps": 1}, True),
        ("corridor", "line", {}, True),
        ("corridor", "circle", {}, False),  # radius 3 m, 3 m wide corridor
        ("box-room", "line", {}, False),    # 8 m long, wall at x = +5 m
    ])
    def test_presets_inside_their_scene(self, scene, trajectory, params, inside):
        gt = synth_trajectory(trajectory, 10.0, **params)
        clearance = build_scene(scene).clearance(gt.positions).min()
        assert (clearance >= LidarModel().min_range) == inside


class TestTrajectories:
    def test_static(self):
        gt = synth_trajectory("static", 10.0)
        assert np.abs(gt.positions - gt.positions[0]).max() == 0.0
        np.testing.assert_allclose([gt.motion(t).velocity for t in gt.times], 0.0)

    def test_circle_closure(self):
        gt = synth_trajectory("circle", 60.0, radius=5.0, laps=2)
        r0, p0 = gt.pose_at(0.0)
        r1, p1 = gt.pose_at(60.0)
        assert np.linalg.norm(p1 - p0) < 1e-6
        np.testing.assert_allclose(r0, r1, atol=1e-6)

    def test_figure_eight_speed_bounds_by_finite_differences(self):
        gt = synth_trajectory("figure-eight", 60.0)
        t = np.linspace(0.0, 60.0, 60_001)
        pos = np.array([gt.motion(tt).position for tt in t])
        speeds = np.linalg.norm(np.diff(pos, axis=0), axis=1) / np.diff(t)[0]
        assert speeds.max() <= 3.0
        yaw = np.unwrap([gt.motion(tt).yaw for tt in t])
        yaw_rates = np.abs(np.diff(yaw)) / np.diff(t)[0]
        assert yaw_rates.max() <= 1.5

    def test_analytic_derivatives_consistent(self):
        gt = synth_trajectory("figure-eight", 30.0)
        eps = 1e-6
        for t in (1.0, 7.3, 15.9, 28.2):
            at, ahead, behind = gt.motion(t), gt.motion(t + eps), gt.motion(t - eps)
            fd_v = np.subtract(ahead.position, behind.position) / (2 * eps)
            np.testing.assert_allclose(at.velocity, fd_v, atol=1e-6)
            fd_a = np.subtract(ahead.velocity, behind.velocity) / (2 * eps)
            np.testing.assert_allclose(at.acceleration, fd_a, atol=1e-5)
            fd_w = (ahead.yaw - behind.yaw) / (2 * eps)
            assert at.yaw_rate == pytest.approx(fd_w, abs=1e-5)

    @pytest.mark.parametrize("preset, duration, params, speed, yaw_rate", [
        ("figure-eight", 10.0, {"cycles": 1}, 2.67, 1.99),  # the benchmark's pace
        ("figure-eight", 2.0, {}, 13.3, 9.96),
        ("figure-eight", 30.0, {}, 0.889, 0.664),
        ("circle", 10.0, {}, 1.89, 0.628),
        ("line", 10.0, {}, 1.5, 0.0),
    ])
    def test_peak_speed_and_yaw_rate(self, preset, duration, params, speed, yaw_rate):
        # The peaks the synth_trajectory docstring states, read from the grid.
        gt = synth_trajectory(preset, duration, **params)
        assert np.linalg.norm(gt.velocities, axis=1).max() == pytest.approx(speed, rel=3e-3)
        assert np.abs(gt.yaw_rates).max() == pytest.approx(yaw_rate, rel=3e-3)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_grid_arrays_are_motion_samples(self, preset):
        gt = synth_trajectory(preset, 7.3)
        samples = [gt.motion(t) for t in gt.times]
        assert len(gt.times) == 1461 and gt.times[-1] == pytest.approx(7.3)
        for name, column in [("position", gt.positions), ("velocity", gt.velocities),
                             ("acceleration", gt.accelerations), ("yaw", gt.yaws),
                             ("yaw_rate", gt.yaw_rates)]:
            expected = np.array([getattr(m, name) for m in samples], dtype=float)
            assert column.shape == expected.shape and column.dtype == np.float64
            assert column.tobytes() == expected.tobytes(), name

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_trajectory("circle", 400.0)
        with pytest.raises(ValueError, match="'rate_hz'"):
            synth_trajectory("circle", 10.0, rate_hz=50.0)
        with pytest.raises(ValueError, match="'cycles'"):
            synth_trajectory("circle", 10.0, cycles=2)
        with pytest.raises(ValueError, match="'laps'"):
            synth_trajectory("figure-eight", 10.0, laps=1)
        with pytest.raises(ValueError):
            synth_trajectory("wiggle", 10.0)

    @pytest.mark.parametrize("preset, params", [
        ("static", {"position": (1, 2, 0), "yaw": 0.5}),
        ("line", {"length": 4.0, "direction": (0, 1, 0), "position": (1.0, 0.0, 0.0)}),
        ("circle", {"radius": 2.0, "laps": 2, "height": 0.3}),
        ("figure-eight", {"span": 2.0, "cycles": 2, "z_amplitude": 0.2}),
    ])
    def test_every_named_parameter_accepted(self, preset, params):
        synth_trajectory(preset, 10.0, **params)


def loop_synth_imu(gt, noise, seed, rate_hz=200.0):
    """synth_imu, one motion(t) call per sample: the per-sample reference."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / rate_hz
    n = int(round(gt.duration * rate_hz)) + 1
    sigma_g = noise.gyro_density * np.sqrt(rate_hz)
    sigma_a = noise.accel_density * np.sqrt(rate_hz)
    t_us, gyro, accel = [], [], []
    for i in range(n):
        t = i * dt
        motion = gt.motion(t)
        spec_force = yaw_rotation(motion.yaw).T @ (motion.acceleration - GRAVITY_W)
        gyro.append(np.array([0.0, 0.0, motion.yaw_rate]) + sigma_g * rng.standard_normal(3))
        accel.append(spec_force + sigma_a * rng.standard_normal(3))
        t_us.append(int(round(t * 1e6)))
    return np.array(t_us), np.array(gyro), np.array(accel)


class TestImu:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("duration", [10.0, 7.3])
    def test_matches_per_sample_reference(self, preset, duration):
        gt = synth_trajectory(preset, duration)
        stream = synth_imu(gt, NoiseParams(), seed=5)
        t_us, gyro, accel = loop_synth_imu(gt, NoiseParams(), seed=5)
        assert stream.t_us.dtype == np.int64 and len(stream) == len(t_us)
        np.testing.assert_array_equal(stream.t_us, t_us)
        np.testing.assert_array_equal(stream.gyro, gyro)
        np.testing.assert_array_equal(stream.accel, accel)

    def test_static_clean_stream(self):
        gt = synth_trajectory("static", 2.0)
        stream = synth_imu(gt, NoiseParams(0, 0, 0, 0), seed=1)
        assert len(stream) == 401
        np.testing.assert_allclose(stream.gyro, 0.0, atol=1e-15)
        np.testing.assert_allclose(stream.accel, np.tile([0.0, 0.0, 9.81], (401, 1)),
                                   atol=1e-12)

    def test_circle_centripetal(self):
        radius, laps, duration = 5.0, 2, 40.0
        gt = synth_trajectory("circle", duration, radius=radius, laps=laps)
        stream = synth_imu(gt, NoiseParams(0, 0, 0, 0), seed=2)
        rate = 2 * np.pi * laps / duration
        speed = radius * rate
        expected = speed ** 2 / radius
        mid = stream.accel[len(stream) // 2]
        horizontal = np.linalg.norm((mid - [0, 0, 9.81])[:2])
        assert horizontal == pytest.approx(expected, abs=1e-3)

    def test_determinism(self):
        gt = synth_trajectory("figure-eight", 5.0)
        a = synth_imu(gt, NoiseParams(), seed=3)
        b = synth_imu(gt, NoiseParams(), seed=3)
        np.testing.assert_array_equal(a.t_us, b.t_us)
        np.testing.assert_array_equal(a.gyro, b.gyro)
        np.testing.assert_array_equal(a.accel, b.accel)

    def test_reintegration_recovers_ground_truth(self):
        # Gentle rotating profile: the per-sample Euler truncation budget
        # over 10 s stays a few times under the 1e-3 m gate, while frame or
        # gravity-sign mistakes in the synthesized stream would blow it by
        # orders of magnitude.
        gt = synth_trajectory("circle", 60.0, radius=1.0, laps=1)
        stream = synth_imu(gt, NoiseParams(0, 0, 0, 0), seed=4)
        x = NavState()
        x.rotation, x.position = gt.pose_at(0.0)
        x.velocity = gt.velocities[0].copy()
        x.gravity = GRAVITY_W.copy()
        out, _ = propagate(x, np.eye(ERROR_DIM) * 1e-6, stream, NoiseParams(0, 0, 0, 0),
                           t_start=0.0, t_end=10.0)
        assert np.linalg.norm(out.position - gt.motion(10.0).position) < 1e-3


def loop_synth_scan(scene, gt, lidar, t_k, seed, extrinsic):
    """synth_scan with the per-time pose loop it batched: one motion call,
    one rotation and one pair of extrinsic products per firing time."""
    rng = np.random.default_rng(seed)
    dirs, offsets = lidar.ray_table()
    times = t_k - lidar.period + offsets
    r_il, t_il = extrinsic
    uniq, inverse = np.unique(times, return_inverse=True)
    origins_u = np.empty((len(uniq), 3))
    rots_u = np.empty((len(uniq), 3, 3))
    for i, t in enumerate(uniq):
        motion = gt.motion(t)
        rot_wi = yaw_rotation(motion.yaw)
        rots_u[i] = rot_wi @ r_il
        origins_u[i] = rot_wi @ t_il + np.array(motion.position)
    origins = origins_u[inverse]
    dirs_w = np.einsum("nij,nj->ni", rots_u[inverse], dirs)
    best_t = np.full(len(dirs), np.inf)
    for patch in scene.patches:
        denom = dirs_w @ patch.normal
        safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
        t_hit = ((patch.center - origins) @ patch.normal) / safe
        rel = origins + t_hit[:, None] * dirs_w - patch.center
        valid = (np.abs(denom) > 1e-12) & (t_hit > lidar.min_range) & (t_hit <= lidar.max_range)
        valid &= np.abs(rel @ patch.axis_u) <= patch.half_u
        valid &= np.abs(rel @ patch.axis_v) <= patch.half_v
        best_t = np.where(valid & (t_hit < best_t), t_hit, best_t)
    mask = np.isfinite(best_t)
    ranges = best_t[mask] + lidar.range_noise * rng.standard_normal(np.count_nonzero(mask))
    return dirs[mask] * ranges[:, None], times[mask]


class TestScans:
    @pytest.mark.parametrize("scene,preset", [("box-room", "figure-eight"),
                                              ("box-room", "static"),
                                              ("open-yard", "circle"), ("corridor", "line")])
    def test_matches_per_time_reference(self, scene, preset):
        # Bit for bit, with and without a tilted extrinsic, at the default
        # and the dense LiDAR of the benchmark.
        scene = build_scene(scene)
        gt = synth_trajectory(preset, 10.0)
        tilted = (so3_exp([0.1, -0.2, 0.3]), np.array([0.05, -0.02, 0.08]))
        for lidar in (LidarModel(), LidarModel(n_azimuth=256, n_elevation=32)):
            for extrinsic in ((np.eye(3), np.zeros(3)), tilted):
                for t_k in (0.1, 3.7, 10.0):
                    got = synth_scan(scene, gt, lidar, t_k, seed=3, extrinsic=extrinsic)
                    want = loop_synth_scan(scene, gt, lidar, t_k, 3, extrinsic)
                    assert len(got[0]) > 0
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])

    def test_wall_range_exact(self):
        scene = build_scene("box-room", (10.0, 10.0, 3.0))
        gt = synth_trajectory("static", 1.0, position=(4.0, 0.0, 0.0))
        lidar = LidarModel(n_azimuth=8, n_elevation=1, elevation_span=(0.0, 0.0),
                           range_noise=0.0)
        pts, _ = synth_scan(scene, gt, lidar, t_k=0.5, seed=0)
        # The forward ray (azimuth 0) hits the x = +5 wall one meter away.
        forward = pts[np.argmax(pts @ np.array([1.0, 0.0, 0.0]))]
        assert np.linalg.norm(forward) == pytest.approx(1.0, abs=1e-12)

    def test_static_pose_undistortion_noop(self):
        scene = build_scene("box-room")
        gt = synth_trajectory("static", 1.0)
        lidar = LidarModel(range_noise=0.0)
        pts, times = synth_scan(scene, gt, lidar, t_k=0.5, seed=0)
        rots = {tuple(gt.pose_at(t)[1]) for t in times}
        assert len(rots) == 1  # every per-point pose identical

    def test_moving_scan_points_on_patches(self):
        scene = build_scene("box-room")
        gt = synth_trajectory("figure-eight", 20.0)
        lidar = LidarModel(range_noise=0.0)
        pts, times = synth_scan(scene, gt, lidar, t_k=5.0, seed=0)
        assert len(pts) > 100
        world = np.empty_like(pts)
        for i, (p, t) in enumerate(zip(pts, times)):
            rot, pos = gt.pose_at(t)
            world[i] = rot @ p + pos
        dists = scene.point_to_patch_distances(world)
        assert dists.max() < 1e-9

    def test_noise_bound(self):
        scene = build_scene("box-room")
        gt = synth_trajectory("circle", 20.0, radius=2.0)
        lidar = LidarModel(range_noise=0.02)
        pts, times = synth_scan(scene, gt, lidar, t_k=3.0, seed=5)
        world = np.empty_like(pts)
        for i, (p, t) in enumerate(zip(pts, times)):
            rot, pos = gt.pose_at(t)
            world[i] = rot @ p + pos
        dists = scene.point_to_patch_distances(world)
        assert dists.max() <= 6 * lidar.range_noise

    def test_determinism(self):
        scene = build_scene("box-room")
        gt = synth_trajectory("circle", 10.0, radius=2.0)
        lidar = LidarModel(range_noise=0.02)
        a = synth_scan(scene, gt, lidar, t_k=2.0, seed=9)
        b = synth_scan(scene, gt, lidar, t_k=2.0, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_per_point_offsets_in_period(self):
        lidar = LidarModel()
        _, offsets = lidar.ray_table()
        assert np.all(offsets >= 0.0) and np.all(offsets < lidar.period)

    @pytest.mark.parametrize("value", [-0.01, float("nan"), float("inf")])
    def test_range_noise_refused_unless_nonnegative_and_finite(self, value):
        with pytest.raises(ValueError, match="range noise must be nonnegative and finite"):
            LidarModel(range_noise=value)


class TestDescriptor:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nscene = box-room\nduration = 30\n\nmode=qlio\n")
        parsed = load_descriptor(cfg)
        assert parsed == {"scene": "box-room", "duration": "30", "mode": "qlio"}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scene box-room\n")
        with pytest.raises(ValueError):
            load_descriptor(cfg)

    def test_ground_truth_csv(self, tmp_path):
        gt = synth_trajectory("circle", 2.0, radius=1.0)
        path = tmp_path / "gt.csv"
        gt.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,px,py,pz,qw,qx,qy,qz"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[1] == 8

    @pytest.mark.parametrize("preset", PRESETS)
    def test_ground_truth_csv_matches_per_sample_rows(self, tmp_path, preset):
        # The oracle writes one row per grid time from its own motion(t) call.
        gt = synth_trajectory(preset, 3.7)
        rows = []
        for t in gt.times:
            motion = gt.motion(t)
            rows.append((t, *motion.position, *rot_to_quat(yaw_rotation(motion.yaw))))
        np.savetxt(tmp_path / "oracle.csv", np.array(rows), delimiter=",",
                   header="t,px,py,pz,qw,qx,qy,qz", comments="")
        gt.to_csv(tmp_path / "gt.csv")
        assert (tmp_path / "gt.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
