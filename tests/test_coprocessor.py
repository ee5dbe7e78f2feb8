import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quantlio.coprocessor import (
    MODES, Coprocessor, PlaneObservations, apply_transform, associate, build_groups,
    compose, invert, rq_resample, se3_exp, se3_log, undistort, voxel_downsample,
)
from quantlio.manifold import skew, so3_exp
from quantlio.quantizer import (
    Codebook, int8_minmax_quantize, int8_minmax_reconstruct, quantize_points,
    quantize_residual_vectors, quantize_zs,
)
from quantlio.simworld import LidarModel, build_scene, synth_scan, synth_trajectory
from quantlio.voxelmap import VoxelMap, pack_cells, plane_fit_batch

IDENTITY = (np.eye(3), np.zeros(3))


def make_obs(us, zs, points_lidar, points_world=None):
    """Observation rows with unit normals us, residuals zs and LiDAR points;
    us, zs and points broadcast against each other."""
    us = np.atleast_2d(np.asarray(us, dtype=float))
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    pts = np.atleast_2d(np.asarray(points_lidar, dtype=float))
    n = max(len(us), len(zs), len(pts))
    us = np.broadcast_to(us / np.linalg.norm(us, axis=1, keepdims=True), (n, 3)).copy()
    pts = np.broadcast_to(pts, (n, 3)).copy()
    world = pts if points_world is None else np.asarray(points_world, dtype=float)
    return PlaneObservations(point_world=world, point_lidar=pts, normal=us,
                             plane_offset=np.zeros(n),
                             residual=np.broadcast_to(zs, (n,)).copy())


# -- reference implementations: the per-column and per-observation loops the
# -- array code replaced ------------------------------------------------------

def se3_exp_single(rho, theta):
    """One rigid transform from a twist, with the scalar so3_exp."""
    theta = np.asarray(theta, dtype=float)
    angle = np.linalg.norm(theta)
    w = skew(theta)
    if angle < 1e-8:
        v = np.eye(3) + 0.5 * w + (w @ w) / 6.0
    else:
        a2 = angle * angle
        v = (np.eye(3) + (1.0 - np.cos(angle)) / a2 * w
             + (angle - np.sin(angle)) / (a2 * angle) * (w @ w))
    return so3_exp(theta), v @ np.asarray(rho, dtype=float)


def undistort_per_column(points, times, t_prev, t_k, scan_delta, extrinsic):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rho, theta = se3_log(*scan_delta)
    r_il, t_il = extrinsic
    fractions = (t_k - np.asarray(times, dtype=float)) / (t_k - t_prev)
    out = np.empty_like(points)
    uniq, inverse = np.unique(fractions, return_inverse=True)
    imu_pts = points @ r_il.T + t_il
    for i, s in enumerate(uniq):
        rot_j, trans_j = se3_exp_single(s * rho, s * theta)
        sel = inverse == i
        out[sel] = (imu_pts[sel] @ rot_j.T + trans_j - t_il) @ r_il
    return out


def associate_per_observation(world_points, lidar_points, vmap, cb, plane_threshold=0.1):
    """(row, normal, offset, residual) per kept observation, and the skip count."""
    neighbors = vmap.knn_batch(world_points, 5)
    have5 = np.array([len(nb) == 5 for nb in neighbors])
    if not np.any(have5):
        return [], len(world_points)
    stacks = np.stack([nb for nb, ok in zip(neighbors, have5) if ok])
    normals, offsets, _, fit_ok = plane_fit_batch(stacks, max_residual=plane_threshold)
    kept = []
    skipped = int(np.count_nonzero(~have5))
    rows = np.flatnonzero(have5)
    signed = np.einsum("mj,mj->m", world_points[rows], normals) + offsets
    for local, row in enumerate(rows):
        if not fit_ok[local]:
            skipped += 1
            continue
        z, u, d = float(signed[local]), normals[local], float(offsets[local])
        if z < 0.0:
            z, u, d = -z, -u, -d
        if z >= cb.r_thr:
            skipped += 1
            continue
        kept.append((row, u, d, z))
    return kept, skipped


def voxel_downsample_lexsort(points, edge):
    """One float lexsort on (distance, x, y, z) over every point, then the
    first of each voxel: the selection voxel_downsample replaced."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    cells = np.floor(points / edge).astype(np.int64)
    centers = (cells + 0.5) * edge
    diff = points - centers
    dist = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0], dist))
    _, first = np.unique(pack_cells(cells[order]), return_index=True)
    return np.sort(order[first])


def rq_resample_per_bucket(obs, cb, ds_0, alpha):
    """Sorted kept row indices, from one reference voxel selection per bucket."""
    keys, _ = quantize_residual_vectors(obs.residual_vector, cb)
    ranges = np.linalg.norm(obs.point_lidar, axis=1)
    kept = []
    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        ds_k = ds_0 + alpha * float(ranges[members].mean())
        kept.extend(members[voxel_downsample_lexsort(obs.point_lidar[members], ds_k)])
    return np.sort(np.array(kept, dtype=np.int64))


def build_groups_per_observation(obs, cb):
    keys, _ = quantize_residual_vectors(obs.residual_vector, cb)
    p_idx, _ = quantize_points(obs.point_lidar, cb)
    z_idx, _, _, _ = quantize_zs(obs.residual, cb)
    grouped: dict = {}
    for key, pi, zi in zip(keys, p_idx, z_idx):
        grouped.setdefault(int(key), []).append((int(zi), tuple(int(v) for v in pi)))
    return [(key, sorted(grouped[key], key=lambda m: (m[1], m[0]))) for key in sorted(grouped)]


class TestSe3:
    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(0)
        rots = [so3_exp(rng.uniform(-2, 2, 3)) for _ in range(50)]
        trans = rng.uniform(-3, 3, (50, 3))
        twists = [se3_log(r, t) for r, t in zip(rots, trans)]
        rho = np.array([tw[0] for tw in twists])
        theta = np.array([tw[1] for tw in twists])
        rot2, trans2 = se3_exp(rho, theta)
        assert rot2.shape == (50, 3, 3) and trans2.shape == (50, 3)
        np.testing.assert_allclose(rot2, rots, atol=1e-10)
        np.testing.assert_allclose(trans2, trans, atol=1e-10)
        # An unbatched twist gives one transform.
        rot1, trans1 = se3_exp(rho[0], theta[0])
        np.testing.assert_array_equal(rot1, rot2[0])
        np.testing.assert_array_equal(trans1, trans2[0])

    def test_compose_invert(self):
        rng = np.random.default_rng(1)
        t = (so3_exp(rng.uniform(-1, 1, 3)), rng.uniform(-2, 2, 3))
        rot, trans = compose(t, invert(t))
        np.testing.assert_allclose(rot, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(trans, 0.0, atol=1e-12)


class TestUndistort:
    def test_identity_delta_noop(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, (100, 3))
        times = rng.uniform(0.0, 0.1, 100)
        out = undistort(pts, times, 0.0, 0.1, IDENTITY, IDENTITY)
        np.testing.assert_array_equal(out, pts)
        assert not np.shares_memory(out, pts)

    def test_empty(self):
        delta = (so3_exp([0, 0, 0.02]), np.array([0.1, 0.0, 0.0]))
        out = undistort(np.empty((0, 3)), np.empty(0), 0.0, 0.1, delta, IDENTITY)
        assert out.shape == (0, 3)

    def test_pure_translation_midscan(self):
        pts = np.array([[2.0, 0.0, 0.0]])
        delta = (np.eye(3), np.array([1.0, 0.0, 0.0]))
        out = undistort(pts, np.array([0.05]), 0.0, 0.1, delta, IDENTITY)
        np.testing.assert_allclose(out, [[2.5, 0.0, 0.0]], atol=1e-12)

    def test_count_preserved_and_window_checked(self):
        pts = np.zeros((10, 3))
        times = np.linspace(0.0, 0.1, 10)
        delta = (so3_exp([0, 0, 0.02]), np.array([0.1, 0.0, 0.0]))
        assert len(undistort(pts, times, 0.0, 0.1, delta, IDENTITY)) == 10
        with pytest.raises(ValueError):
            undistort(pts, times + 0.05, 0.0, 0.1, delta, IDENTITY)

    @given(seed=st.integers(0, 2**32 - 1),
           angle=st.sampled_from([0.0, 1e-12, 1e-9, 5e-8, 1e-3, 0.05, 0.7, 2.5]),
           translation=st.sampled_from([0.0, 1e-6, 0.3, 2.0]),
           columns=st.integers(1, 48), rows=st.integers(1, 6),
           tilted_extrinsic=st.booleans())
    def test_matches_per_column_loop(self, seed, angle, translation, columns, rows,
                                     tilted_extrinsic):
        # Angles below 1e-8 rad per column take the series branch; 5e-8
        # splits one scan between both branches; angle 0 is pure translation.
        rng = np.random.default_rng(seed)
        axis = rng.standard_normal(3)
        delta = (so3_exp(angle * axis / np.linalg.norm(axis)),
                 translation * rng.standard_normal(3))
        extrinsic = IDENTITY
        if tilted_extrinsic:
            extrinsic = (so3_exp(rng.uniform(-0.5, 0.5, 3)), rng.uniform(-0.2, 0.2, 3))
        t_prev, t_k = 3.0, 3.1
        column_times = np.r_[t_prev, t_k, rng.uniform(t_prev, t_k, columns)][:columns]
        times = rng.permutation(np.repeat(column_times, rows))
        pts = rng.uniform(-30.0, 30.0, (len(times), 3))
        got = undistort(pts, times, t_prev, t_k, delta, extrinsic)
        want = undistort_per_column(pts, times, t_prev, t_k, delta, extrinsic)
        assert np.abs(got - want).max() <= 1e-12

    def test_moving_scan_lands_on_patches(self):
        # Circle motion has a constant body twist, so the interpolation is
        # exact and noise-free points must re-project onto the scene.
        scene = build_scene("box-room")
        gt = synth_trajectory("circle", 30.0, radius=2.0, laps=1)
        lidar = LidarModel(range_noise=0.0)
        r_il = so3_exp([0.0, 0.0, 0.3])
        t_il = np.array([0.05, 0.0, 0.08])
        extrinsic = (r_il, t_il)
        t_k, t_prev = 5.0, 5.0 - lidar.period
        pts, times = synth_scan(scene, gt, lidar, t_k, seed=0, extrinsic=extrinsic)

        pose_prev = gt.pose_at(t_prev)
        pose_k = gt.pose_at(t_k)
        scan_delta = compose(invert(pose_k), pose_prev)
        fixed = undistort(pts, times, t_prev, t_k, scan_delta, extrinsic)
        world = apply_transform(compose(pose_k, extrinsic), fixed)
        assert scene.point_to_patch_distances(world).max() < 1e-6


class TestVoxelDownsample:
    def test_keeps_one_per_voxel_nearest_center(self):
        pts = np.array([
            [0.10, 0.10, 0.10],
            [0.26, 0.26, 0.26],  # nearest to the (0.25,) cell center
            [0.40, 0.40, 0.40],
            [0.90, 0.90, 0.90],
        ])
        kept = voxel_downsample(pts, 0.5)
        np.testing.assert_array_equal(kept, [1, 3])

    def test_spread_points_survive(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, (50, 3))
        kept = voxel_downsample(pts, 0.01)
        assert len(kept) == 50

    def test_empty(self):
        assert len(voxel_downsample(np.empty((0, 3)), 0.5)) == 0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           lattice=st.sampled_from([0.0625, 0.125, 0.25]),
           edge=st.sampled_from([0.25, 0.3, 0.5, 1.0]),
           duplicates=st.sampled_from([0.0, 0.3]), mirrors=st.sampled_from([0.0, 0.3]),
           jitter=st.sampled_from([0.0, 0.5]))
    def test_matches_lexsort_reference(self, seed, n, lattice, edge, duplicates, mirrors,
                                       jitter):
        # Lattice points around the origin (negative coordinates, points on
        # voxel faces, equal distances to voxel centres), exact copies of
        # other rows, and mirror images of rows through their voxel centre,
        # which tie on distance and differ in coordinates; a share jittered
        # off the lattice.
        rng = np.random.default_rng(seed)
        pts = rng.integers(-24, 24, (n, 3)) * lattice
        rows = np.flatnonzero(rng.random(n) < mirrors)
        centres = (np.floor(pts[rows] / edge) + 0.5) * edge
        pts[rows] = 2.0 * centres - pts[rows]
        rows = np.flatnonzero(rng.random(n) < duplicates)
        pts[rows] = pts[rng.integers(0, n, len(rows))]
        rows = np.flatnonzero(rng.random(n) < jitter)
        pts[rows] += rng.uniform(-0.1, 0.1, (len(rows), 3))
        np.testing.assert_array_equal(voxel_downsample(pts, edge),
                                      voxel_downsample_lexsort(pts, edge))

    def test_refuses_a_span_no_int64_key_holds(self):
        with pytest.raises(ValueError, match="int64"):
            voxel_downsample([[0.0, 0.0, 0.0], [1e12, 1e12, 0.0]], 1.0)


def build_plane_map(height=1.0, normal="z", extent=3.0, step=0.2):
    vmap = VoxelMap(edge=0.5, cell_cap=64)
    g = np.arange(-extent, extent + 1e-9, step)
    xx, yy = np.meshgrid(g, g)
    if normal == "z":
        pts = np.stack([xx.ravel(), yy.ravel(), np.full(xx.size, height)], axis=1)
    else:
        pts = np.stack([np.full(xx.size, height), xx.ravel(), yy.ravel()], axis=1)
    vmap.insert(pts)
    return vmap


class TestAssociate:
    def test_on_plane_zero_residual(self):
        vmap = build_plane_map(height=1.0)
        cb = Codebook()
        obs, skipped = associate([[0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0]], vmap, cb)
        assert len(obs) == 1 and skipped == 0
        assert obs.residual[0] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(obs.residual_vector[0], 0.0, atol=1e-9)

    def test_above_plane_residual_and_fold(self):
        # The q.n = -1 fit convention cannot represent planes through the
        # origin, so the example plane sits at z = 1 instead of z = 0.
        vmap = build_plane_map(height=1.0)
        cb = Codebook()
        obs, _ = associate([[0.05, 0.05, 1.02]], [[0.05, 0.05, 1.02]], vmap, cb)
        assert len(obs) == 1
        assert obs.residual[0] == pytest.approx(0.02, abs=1e-9)
        np.testing.assert_allclose(obs.normal[0], [0, 0, 1], atol=1e-9)
        np.testing.assert_allclose(obs.residual_vector[0], [0, 0, 0.02], atol=1e-9)
        # Invariants: z == |n| and n parallel to u.
        assert np.linalg.norm(obs.residual_vector[0]) == pytest.approx(obs.residual[0],
                                                                       abs=1e-12)

    def test_threshold_gate_drops(self):
        vmap = build_plane_map(height=1.0)
        cb = Codebook(r_thr=0.04)
        obs, skipped = associate([[0.0, 0.0, 1.05]], [[0.0, 0.0, 1.05]], vmap, cb)
        assert len(obs) == 0 and skipped == 1

    def test_residual_exactly_at_threshold_dropped(self):
        vmap = build_plane_map(height=1.0)
        pt = [[0.05, 0.05, 1.02]]
        obs, _ = associate(pt, pt, vmap, Codebook())
        z = float(obs.residual[0])
        obs, skipped = associate(pt, pt, vmap, Codebook(r_thr=z))
        assert len(obs) == 0 and skipped == 1
        obs, skipped = associate(pt, pt, vmap, Codebook(r_thr=np.nextafter(z, 1.0)))
        assert len(obs) == 1 and skipped == 0

    def test_unassociated_points_skipped(self):
        vmap = VoxelMap()
        vmap.insert(np.array([[0.0, 0.0, 0.0]]))
        cb = Codebook()
        obs, skipped = associate([[0.1, 0.0, 0.0]], [[0.1, 0.0, 0.0]], vmap, cb)
        assert len(obs) == 0 and skipped == 1

    @given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 80),
           r_thr=st.sampled_from([0.01, 0.04, 0.1]),
           offset_scale=st.sampled_from([0.005, 0.05, 0.2]))
    def test_matches_per_observation_loop(self, seed, queries, r_thr, offset_scale):
        # Three noisy walls, queries off them on both sides (the fold), some
        # beyond r_thr and some far outside the map (no 5 neighbours).
        rng = np.random.default_rng(seed)
        vmap = VoxelMap(edge=0.5, cell_cap=16)
        uv = rng.uniform(-2.0, 2.0, (300, 2))
        walls = [np.c_[uv[:100], np.full(100, -1.3)],
                 np.c_[np.full(100, 2.5), uv[100:200]],
                 np.c_[uv[200:, 0], np.full(100, -2.0), uv[200:, 1]]]
        vmap.insert(np.concatenate(walls) + 0.003 * rng.standard_normal((300, 3)))
        picks = rng.integers(0, 300, queries)
        world = np.concatenate(walls)[picks] + offset_scale * rng.standard_normal((queries, 3))
        world[rng.random(queries) < 0.1] += 40.0
        lidar = world - 1.0
        cb = Codebook(r_thr=r_thr)

        obs, skipped = associate(world, lidar, vmap, cb)
        kept, want_skipped = associate_per_observation(world, lidar, vmap, cb)
        assert skipped == want_skipped
        assert len(obs) == len(kept)
        rows = np.array([k[0] for k in kept], dtype=np.int64)
        np.testing.assert_array_equal(obs.point_world, world[rows].reshape(-1, 3))
        np.testing.assert_array_equal(obs.point_lidar, lidar[rows].reshape(-1, 3))
        np.testing.assert_array_equal(obs.normal, np.array([k[1] for k in kept]).reshape(-1, 3))
        np.testing.assert_array_equal(obs.plane_offset, [k[2] for k in kept])
        np.testing.assert_array_equal(obs.residual, [k[3] for k in kept])
        np.testing.assert_array_equal(
            obs.residual_vector, np.array([k[3] * k[1] for k in kept]).reshape(-1, 3))


class TestRqResample:
    def test_cell_size_formula(self):
        # Mean range about 50.26 m, so the bucket's voxel is
        # 0.5 + 0.01 * 50.26 = 1.0026 m: y = 0.1 and 0.6 share a voxel (0.6
        # is nearer its center), y = 1.1 lies in the next. A 0.5 m voxel
        # would keep all three.
        cb = Codebook()
        pts = [(50.25, y, 0.25) for y in (0.1, 0.6, 1.1)]
        kept = rq_resample(make_obs([0, 0, 1], 0.01, pts), cb, ds_0=0.5, alpha=0.01)
        np.testing.assert_array_equal(kept.point_lidar[:, 1], [0.6, 1.1])
        assert len(rq_resample(make_obs([0, 0, 1], 0.01, pts), cb, ds_0=0.5, alpha=0.0)) == 3

    def test_distinct_buckets_pass_through(self):
        cb = Codebook(l_n=3)
        us = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)]
        obs = make_obs(us, 0.01 + 0.002 * np.arange(4),
                       [(2.0 + i, 0.0, 0.0) for i in range(4)])
        kept = rq_resample(obs, cb, ds_0=0.5, alpha=0.01)
        assert len(kept) == len(obs)
        keys, _ = quantize_residual_vectors(kept.residual_vector, cb)
        assert len(np.unique(keys)) == len(us)

    def test_coincident_members_collapse(self):
        cb = Codebook()
        obs = make_obs([0, 0, 1], np.full(100, 0.01), (1.0, 1.0, 1.0))
        kept = rq_resample(obs, cb, ds_0=0.5, alpha=0.01)
        assert len(kept) == 1

    def test_partition_and_coherence_properties(self):
        rng = np.random.default_rng(4)
        cb = Codebook(l_n=2)
        us = rng.standard_normal((300, 3))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        zs = rng.uniform(0.0, cb.r_thr * 0.99, 300)
        obs = make_obs(us, zs, rng.uniform(-8, 8, (300, 3)),
                       points_world=np.c_[np.arange(300), np.zeros((300, 2))])
        kept = rq_resample(obs, cb, ds_0=0.3, alpha=0.01)
        assert len(kept) <= len(obs)
        rows = kept.point_world[:, 0].astype(int)
        # Kept rows are input rows, in input order.
        assert np.all(np.diff(rows) > 0)
        for name in ("point_lidar", "normal", "plane_offset", "residual"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(obs, name)[rows])
        # Every nonempty bucket keeps at least one member.
        keys, _ = quantize_residual_vectors(obs.residual_vector, cb)
        np.testing.assert_array_equal(np.unique(keys[rows]), np.unique(keys))
        np.testing.assert_array_equal(rows, rq_resample_per_bucket(obs, cb, 0.3, 0.01))

    def test_empty(self):
        assert len(rq_resample(PlaneObservations.empty(), Codebook(), 0.5, 0.01)) == 0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           directions=st.integers(1, 5), lattice=st.sampled_from([0.0625, 0.125, 0.25]),
           coincident=st.sampled_from([0.0, 0.3]), mirrors=st.sampled_from([0.0, 0.3]),
           ds_0=st.sampled_from([0.05, 0.3, 0.5]), alpha=st.sampled_from([0.0, 0.01, 0.05]))
    @example(seed=1, n=150, directions=2, lattice=0.125, coincident=0.3, mirrors=0.3,
             ds_0=0.5, alpha=0.0)
    @example(seed=2, n=150, directions=1, lattice=0.0625, coincident=0.0, mirrors=0.3,
             ds_0=0.3, alpha=0.0)
    def test_matches_per_bucket_loop(self, seed, n, directions, lattice, coincident,
                                     mirrors, ds_0, alpha):
        # Lattice points tie on their distance to voxel centres; copied rows
        # are coincident; few directions make buckets spanning many voxels.
        # A mirrored row copies another row's residual, so it shares that
        # row's bucket, and sits at its image through its ds_0 voxel centre:
        # with alpha 0 the voxel is ds_0, so the two tie on distance.
        rng = np.random.default_rng(seed)
        cb = Codebook(l_n=3)
        dirs = rng.standard_normal((directions, 3))
        us = dirs[rng.integers(0, directions, n)]
        zs = rng.uniform(0.0, 0.99 * cb.r_thr, n)
        pts = rng.integers(-24, 24, (n, 3)) * lattice
        copies = np.flatnonzero(rng.random(n) < coincident)
        pts[copies] = pts[rng.integers(0, n, len(copies))]
        rows = np.flatnonzero(rng.random(n) < mirrors)
        src = rng.integers(0, n, len(rows))
        us[rows], zs[rows] = us[src], zs[src]
        pts[rows] = 2.0 * (np.floor(pts[src] / ds_0) + 0.5) * ds_0 - pts[src]
        obs = make_obs(us, zs, pts, points_world=np.c_[np.arange(n), np.zeros((n, 2))])

        kept = rq_resample(obs, cb, ds_0, alpha)
        np.testing.assert_array_equal(kept.point_world[:, 0].astype(int),
                                      rq_resample_per_bucket(obs, cb, ds_0, alpha))
        groups = build_groups(kept, cb)
        assert [(g.rq_key, g.members) for g in groups] == build_groups_per_observation(kept, cb)


class TestBuildGroups:
    def test_shared_key_single_group(self):
        cb = Codebook()
        obs = make_obs([0, 0, 1], 0.011, [(1.0 + i, 0.0, 0.0) for i in range(3)])
        groups = build_groups(obs, cb)
        assert len(groups) == 1
        assert groups.counts.tolist() == [3]
        assert groups.members.shape == (3, 4)

    def test_two_keys_ascending(self):
        cb = Codebook()
        obs = make_obs([[0, 0, 1], [0, 0, -1]], 0.011, (1.0, 0.0, 0.0))
        groups = build_groups(obs, cb)
        assert len(groups) == 2
        assert groups.keys[0] < groups.keys[1]

    def test_flatten_is_permutation_of_quantized_inputs(self):
        rng = np.random.default_rng(5)
        cb = Codebook(l_p=6, l_n=2, l_z=3, r_max=20.0)
        us = rng.standard_normal((500, 3))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        obs = make_obs(us, rng.uniform(0.0, cb.r_thr * 0.99, 500),
                       rng.uniform(-19, 19, (500, 3)))
        groups = build_groups(obs, cb)

        expected = []
        p_idx, _ = quantize_points(obs.point_lidar, cb)
        z_idx, _, _, _ = quantize_zs(obs.residual, cb)
        keys, _ = quantize_residual_vectors(obs.residual_vector, cb)
        for key, pi, zi in zip(keys, p_idx, z_idx):
            expected.append((int(key), int(zi), tuple(int(v) for v in pi)))
        flattened = [(g.rq_key, m[0], m[1]) for g in groups for m in g.members]
        assert sorted(flattened) == sorted(expected)

    def test_member_ordering_deterministic(self):
        cb = Codebook()
        obs = make_obs([0, 0, 1], 0.011, [(3.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        groups = build_groups(obs, cb)
        rows = groups.members.tolist()  # (z, px, py, pz)
        assert rows == sorted(rows, key=lambda m: (m[1:], m[0]))


class TestCoprocessor:
    @staticmethod
    def static_scans():
        """Two scans of the box room from a sensor at rest at the origin."""
        scene = build_scene("box-room")
        gt = synth_trajectory("static", 1.0)
        lidar = LidarModel(n_azimuth=64, n_elevation=8)
        return [synth_scan(scene, gt, lidar, t_k=t, seed=s) for t, s in ((0.1, 1), (0.2, 2))]

    @pytest.mark.parametrize("mode", MODES)
    def test_observe_and_process_scan_per_mode(self, mode):
        (pts0, times0), (pts1, times1) = self.static_scans()
        coproc = Coprocessor(Codebook(), IDENTITY, mode=mode)
        obs, stats = coproc.observe(pts0, times0, 0.0, 0.1, IDENTITY, IDENTITY)
        assert len(obs) == 0 and stats["skipped"] == stats["points_assoc_input"] > 0
        coproc.integrate_posterior(IDENTITY)

        obs, stats = coproc.observe(pts1, times1, 0.1, 0.2, IDENTITY, IDENTITY)
        assert stats["points_in"] == len(pts1)
        assert stats["observations_raw"] == stats["observations_sent"] == len(obs) > 0
        # At rest, undistortion moves no point: every observed point is a
        # scan point, after the int8 round trip and float32 rounding where
        # the mode has them.
        sent = pts1
        if mode == "baseline-int8":
            sent = int8_minmax_reconstruct(*int8_minmax_quantize(pts1))
        if mode.startswith("baseline"):
            sent = sent.astype(np.float32).astype(np.float64)
        assert set(map(tuple, obs.point_lidar)) <= set(map(tuple, sent))

        groups, sent_obs, scan_stats = coproc.process_scan(
            pts1, times1, 0.1, 0.2, IDENTITY, IDENTITY)
        assert scan_stats["observations_raw"] == len(obs)
        assert scan_stats["observations_sent"] == len(sent_obs) \
            == sum(len(g.members) for g in groups)
        if mode == "qlio":
            assert len(sent_obs) < len(obs)
        else:
            assert len(sent_obs) == len(obs)

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="mode"):
            Coprocessor(Codebook(), IDENTITY, mode="float")
