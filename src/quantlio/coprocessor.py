"""LiDAR-side processing: undistortion, point-plane association, residual
vector resampling and observation-group assembly.

Pose convention used throughout: a rigid transform (R, t) maps coordinates
with p' = R @ p + t. The scan delta handed over by the host is the transform
taking scan-start IMU coordinates into the scan-end IMU frame, so applying
the interpolated fraction of its twist to a point captured mid-scan moves it
into the end-of-scan frame.

The voxel filter runs first, on the raw sensor-frame points, so what it
keeps depends on the raw scan alone. From there a scan stays in arrays: one
batched undistortion pose per column timestamp, gathered per kept point
(within 1e-12 m of a per-column loop, not bit for bit), then one
PlaneObservations record that resampling and grouping filter and quantize
whole, selecting exactly what per-row loops would, and last one
wire.ObservationGroups record, which pack_groups encodes.

Voxel selection, in voxel_downsample and per rq bucket in rq_resample,
keeps each voxel's first member in input order, the rule VoxelMap.insert
applies to its sub-voxels: no distance, no tie-break. Each (group, voxel)
pair is folded into one key, in the narrowest unsigned type that holds it
(NumPy's stable sort is a radix sort up to 16 bits), and np.unique's first
index per key is the selection.

Association fits its planes with voxelmap.plane_fit_batch, in closed form:
the 3x3 normal equations of each 5-point set, solved by adjugate and
determinant and refined twice. A set is kept only when its Gram matrix G
satisfies tr(G)^3 <= 4e12 det(G), a bound that proves cond <= 1e6, and its
worst point-plane distance is at most 0.1 m. The bound refuses sets that
lie close to a plane through the origin, collinear sets among them, since
every line lies in one. The kept sets' normals and offsets agree with an SVD
solve to about 1e-10.
"""

from __future__ import annotations

import numpy as np

from .manifold import rodrigues_terms, so3_log
from .quantizer import Codebook, quantize_points, quantize_residual_vectors, quantize_zs
from .voxelmap import VoxelMap, plane_fit_batch
# ObservationGroup is unused here; bench/tests/test_bench.py imports it from this module.
from .wire import ObservationGroup, ObservationGroups, PlaneObservations  # noqa: F401

MODES = ("qlio", "baseline-float", "qlio-no-rqrs")


def se3_log(rot, trans):
    """Twist (rho, theta) with exp recovering (rot, trans): rho solves
    V(theta) rho = trans, with se3_exp's own V."""
    theta = so3_log(rot)
    w, ww, _, b2, b3 = rodrigues_terms(theta)
    return np.linalg.solve(np.eye(3) + b2 * w + b3 * ww, np.asarray(trans, dtype=float)), theta


def se3_exp(rho, theta):
    """Rigid transforms (R (..., 3, 3), t (..., 3)) from twists (..., 3):
    Rodrigues and the V matrix, truncated series below 1e-6 rad."""
    rho = np.asarray(rho, dtype=float)
    w, ww, b1, b2, b3 = rodrigues_terms(theta)
    v = np.eye(3) + b2 * w + b3 * ww
    return np.eye(3) + b1 * w + b2 * ww, np.einsum("...ij,...j->...i", v, rho)


def compose(a, b):
    """(R, t) composition: apply b first, then a."""
    ra, ta = a
    rb, tb = b
    return ra @ rb, ra @ tb + ta


def invert(t):
    r, tr = t
    return r.T, -(r.T @ tr)


def apply_transform(t, points):
    r, tr = t
    return np.asarray(points) @ r.T + tr


def undistort(points, times, t_prev: float, t_k: float, scan_delta, extrinsic):
    """Map per-point-timestamped LiDAR points into the end-of-scan frame.

    scan_delta is the IMU-frame transform over the scan (start coordinates
    into the end frame); each point gets the constant-twist fraction
    (t_k - t_j) / (t_k - t_prev) of it, sandwiched through the LiDAR-IMU
    extrinsic. Point count is preserved. Precondition: every time lies in
    [t_prev, t_k] (to 1e-9 s); Coprocessor.observe checks the raw scan.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.asarray(times, dtype=float)
    if len(points) == 0:
        return points.copy()
    span = t_k - t_prev
    if span <= 0.0:
        raise ValueError("scan window must have positive duration")

    rho, theta = se3_log(*scan_delta)
    if np.linalg.norm(rho) < 1e-15 and np.linalg.norm(theta) < 1e-15:
        return points.copy()

    r_il, t_il = extrinsic
    # Columns of a scan share timestamps: one pose per distinct fraction,
    # gathered per point.
    fractions, inverse = np.unique((t_k - times) / span, return_inverse=True)
    rots, trans = se3_exp(fractions[:, None] * rho, fractions[:, None] * theta)
    imu_pts = points @ r_il.T + t_il
    moved = np.einsum("nij,nj->ni", rots[inverse], imu_pts) + trans[inverse]
    return (moved - t_il) @ r_il


def voxel_downsample(points, edge: float) -> np.ndarray:
    """Ascending indices of each occupied voxel's first point in input
    order."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        return np.empty(0, dtype=np.int64)
    return _first_per_voxel(points, edge, np.zeros(len(points), dtype=np.int64))


def _first_per_voxel(points: np.ndarray, edges, groups: np.ndarray) -> np.ndarray:
    """Ascending indices of the first point in input order of each (group,
    voxel) pair, voxels of side edges (a scalar or one per point). The pair
    is folded into one key over the occupied span of cells."""
    cells = np.floor(points / edges).astype(np.int64)
    # Column by column: an axis-0 reduction over (n, 3) rows is many times
    # slower.
    key, size = groups, int(groups.max()) + 1
    for col in cells.T:
        low = col.min()
        span = int(col.max() - low) + 1
        key, size = key * span + (col - low), size * span
    if size > 1 << 63:
        raise ValueError("points span too many voxels for an int64 key")
    key = key.astype(np.min_scalar_type(size - 1))
    return np.sort(np.unique(key, return_index=True)[1])


def associate(world_points, lidar_points, vmap: VoxelMap, cb: Codebook):
    """Point-plane association against the map.

    For each world point: 5 nearest map points, a plane fit, then the signed
    plane distance folded nonnegative (the normal flips with it). Points
    whose residual reaches r_thr are dropped. Returns (observations in input
    order, skipped count).
    """
    world_points = np.atleast_2d(np.asarray(world_points, dtype=float))
    lidar_points = np.atleast_2d(np.asarray(lidar_points, dtype=float))
    if len(world_points) != len(lidar_points):
        raise ValueError("world and LiDAR point counts differ")
    if len(world_points) == 0:
        return PlaneObservations.empty(), 0

    nb = vmap.knn_batch(world_points, 5)
    rows = np.flatnonzero(nb.counts == 5)
    if len(rows) == 0:
        return PlaneObservations.empty(), len(world_points)
    stacks = nb.points[rows]
    normals, offsets, _, fit_ok = plane_fit_batch(stacks)

    signed = np.einsum("mj,mj->m", world_points[rows], normals) + offsets
    sign = np.where(signed < 0.0, -1.0, 1.0)
    z = sign * signed
    keep = fit_ok & (z < cb.r_thr)
    rows = rows[keep]
    observations = PlaneObservations(point_lidar=lidar_points[rows], residual=z[keep],
                                     normal=sign[keep, None] * normals[keep])
    return observations, len(world_points) - len(rows)


def rq_resample(observations: PlaneObservations, keys: np.ndarray, ds_0: float,
                alpha: float) -> np.ndarray:
    """Adaptive per-bucket downsampling keyed by each row's rq key (keys).

    Observations are partitioned by rq key; each bucket gets a voxel size
    ds_0 + alpha * mean sensor range of its members and keeps each voxel's
    first member in input order. Bucket counts never grow and a nonempty
    bucket keeps at least one member. Returns the kept rows, ascending.
    """
    if len(observations) == 0:
        return np.empty(0, dtype=np.int64)
    pts = observations.point_lidar
    ranges = np.linalg.norm(pts, axis=1)

    _, bucket = np.unique(keys, return_inverse=True)
    means = np.bincount(bucket, ranges) / np.bincount(bucket)
    edges = (ds_0 + alpha * means)[bucket][:, None]
    return _first_per_voxel(pts, edges, bucket)


def build_groups(observations: PlaneObservations, keys: np.ndarray,
                 cb: Codebook) -> ObservationGroups:
    """Quantize observations and group them under their rq keys.

    Groups are ordered by ascending key; members within a group by ascending
    point indices (then z index), so the encoding is deterministic.
    """
    p_idx = quantize_points(observations.point_lidar, cb)
    z_idx = quantize_zs(observations.residual, cb)

    order = np.lexsort((z_idx, p_idx[:, 2], p_idx[:, 1], p_idx[:, 0], keys))
    uniq, counts = np.unique(keys[order], return_counts=True)
    return ObservationGroups(uniq, counts, np.column_stack([z_idx, p_idx])[order])


class Coprocessor:
    """Owns the map and turns raw scans into observations, one scan at a time.

    observe() runs the stages every mode shares: voxel downsampling of the
    raw points, undistortion of the kept ones, the codebook range gate and
    association; baseline-float sends its observations as they are, and the
    OBS_FLOAT encoding rounds them to float32.
    process_scan() is the qlio modes' path: observe, the rq keys (quantized
    once), then rq resampling (qlio only) and grouping. Either keeps the
    scan's points until integrate_posterior() inserts them into the map.

    Transport-agnostic: the caller feeds it the pose response data and the
    posterior pose, and ships what it returns itself.
    """

    def __init__(self, cb: Codebook, extrinsic, ds_0: float = 0.5, alpha: float = 0.01,
                 mode: str = "qlio"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.cb = cb
        self.extrinsic = extrinsic
        self.ds_0 = ds_0
        self.alpha = alpha
        self.mode = mode
        self.vmap = VoxelMap()
        self._pending_lidar_points = None

    def observe(self, points, times, t_prev: float, t_k: float, scan_delta, pose_prev):
        """Check, downsample, undistort the kept points and associate one scan.

        A non-finite point or timestamp, or a timestamp outside the scan
        window, raises ValueError.
        pose_prev is the world-from-IMU pose at the previous scan end;
        combined with scan_delta it yields the end-of-scan world pose used
        to place points for association. Returns (observations, stats dict).
        """
        points, times = np.atleast_2d(np.asarray(points, dtype=float)), np.asarray(times)
        in_window = (times >= t_prev - 1e-9) & (times <= t_k + 1e-9)
        if not (np.all(np.isfinite(points)) and np.all(in_window)):
            raise ValueError("scan points must be finite, with timestamps in the scan window")
        kept = voxel_downsample(points, self.ds_0)
        lidar_end = undistort(points[kept], times[kept], t_prev, t_k, scan_delta, self.extrinsic)
        # Codebook range gate: whatever the quantizer cannot represent is
        # dropped before association.
        in_range = np.all(np.abs(lidar_end) < self.cb.r_max, axis=1)
        lidar_end = lidar_end[in_range]

        pose_k = compose(pose_prev, invert(scan_delta))
        world = apply_transform(compose(pose_k, self.extrinsic), lidar_end)
        observations, skipped = associate(world, lidar_end, self.vmap, self.cb)
        self._pending_lidar_points = lidar_end
        stats = {
            "points_in": len(points),
            "points_assoc_input": int(np.count_nonzero(in_range)),
            "observations_raw": len(observations),
            "observations_sent": len(observations),
            "skipped": skipped,
        }
        return observations, stats

    def process_scan(self, points, times, t_prev: float, t_k: float,
                     scan_delta, pose_prev):
        """observe(), then rq resampling (qlio mode) and grouping. Returns
        (groups, observations sent, stats dict)."""
        observations, stats = self.observe(points, times, t_prev, t_k, scan_delta, pose_prev)
        keys = quantize_residual_vectors(observations.residual_vector, self.cb)
        if self.mode == "qlio":
            kept = rq_resample(observations, keys, self.ds_0, self.alpha)
            observations, keys = observations[kept], keys[kept]
        stats["observations_sent"] = len(observations)
        return build_groups(observations, keys, self.cb), observations, stats

    def integrate_posterior(self, pose_k) -> None:
        """Insert the pending scan into the map at the posterior pose."""
        if self._pending_lidar_points is None:
            return
        world_from_lidar = compose(pose_k, self.extrinsic)
        self.vmap.insert(apply_transform(world_from_lidar, self._pending_lidar_points))
        self._pending_lidar_points = None
