"""LiDAR-side processing: undistortion, point-plane association, residual
vector resampling and observation-group assembly.

Pose convention used throughout: a rigid transform (R, t) maps coordinates
with p' = R @ p + t. The scan delta handed over by the host is the transform
taking scan-start IMU coordinates into the scan-end IMU frame, so applying
the interpolated fraction of its twist to a point captured mid-scan moves it
into the end-of-scan frame.

A scan stays in arrays from start to end: one batched pose per column
timestamp, gathered per point (within 1e-12 m of a per-column loop, not bit
for bit), then one PlaneObservations record that resampling and grouping
filter and quantize whole, selecting exactly what per-row loops would, and
last one wire.ObservationGroups record, which pack_groups encodes.

Voxel selection, in voxel_downsample and per rq bucket in rq_resample,
keeps the member nearest each voxel's center, ties broken by coordinates and
then by input order. One stable integer sort on a folded (group, voxel) key
gathers each voxel's members, and only rows tied at a voxel's nearest
distance are sorted by coordinates; the result is the same indices as one
float lexsort over every point.

Association fits its planes with voxelmap.plane_fit_batch, in closed form:
the 3x3 normal equations of each 5-point set, solved by adjugate and
determinant and refined twice, for every set whose Gram matrix G satisfies
tr(G)^3 <= 4e12 det(G), a bound that proves cond <= 1e6. Those sets' normals
and offsets agree with an SVD solve to about 1e-10 and the accept decisions
are the SVD's; the sets the bound cannot certify go through the SVD solve
itself. The float baselines therefore move by rounding only. The qlio modes
quantize what association returns, so they send the same bits unless a
rounding difference crosses a quantizer bin edge.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .manifold import rodrigues_terms, skew, so3_log
from .quantizer import (
    Codebook, int8_minmax_quantize, int8_minmax_reconstruct, quantize_points,
    quantize_residual_vectors, quantize_zs,
)
from .voxelmap import VoxelMap, plane_fit_batch
# ObservationGroup is unused here; bench/tests/test_bench.py imports it from this module.
from .wire import ObservationGroup, ObservationGroups  # noqa: F401

MODES = ("qlio", "baseline-float", "baseline-int8", "qlio-no-rqrs")


def se3_log(rot, trans):
    """Twist (rho, theta) with exp recovering (rot, trans)."""
    theta = so3_log(rot)
    angle = np.linalg.norm(theta)
    w = skew(theta)
    if angle < 1e-8:
        v_inv = np.eye(3) - 0.5 * w + (w @ w) / 12.0
    else:
        a2 = angle * angle
        coeff = (1.0 - 0.5 * angle * np.sin(angle) / (1.0 - np.cos(angle))) / a2
        v_inv = np.eye(3) - 0.5 * w + coeff * (w @ w)
    return v_inv @ np.asarray(trans, dtype=float), theta


def se3_exp(rho, theta):
    """Rigid transforms (R (..., 3, 3), t (..., 3)) from twists (..., 3):
    Rodrigues and the V matrix, truncated series below 1e-8 rad."""
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
    extrinsic. Point count is preserved.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.asarray(times, dtype=float)
    if len(points) == 0:
        return points.copy()
    if np.any(times < t_prev - 1e-9) or np.any(times > t_k + 1e-9):
        raise ValueError("point timestamps fall outside the scan window")
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
    """Indices of one representative per occupied voxel: the member nearest
    the voxel center, ties broken by lexicographic coordinates, then by
    input order."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        return np.empty(0, dtype=np.int64)
    return _voxel_representatives(points, edge, np.zeros(len(points), dtype=np.int64))


def _voxel_representatives(points: np.ndarray, edges, groups: np.ndarray) -> np.ndarray:
    """Ascending indices of one point per (group, voxel) pair, voxels of side
    edges (a scalar or one per point): the member nearest the voxel center,
    ties broken by lexicographic coordinates, then by input order.

    The pair is folded into one int64 key over the occupied span of cells,
    so one stable integer sort groups the members of each voxel in input
    order; each voxel's nearest distance is a segment minimum, and only the
    rows tied at it are sorted by coordinates.
    """
    cells = np.floor(points / edges).astype(np.int64)
    diff = points - (cells + 0.5) * edges
    dist = np.einsum("ij,ij->i", diff, diff)
    # Column by column: an axis-0 reduction over (n, 3) rows is many times
    # slower.
    key, size = groups, int(groups.max()) + 1
    for col in cells.T:
        low = col.min()
        span = int(col.max() - low) + 1
        key, size = key * span + (col - low), size * span
    if size > 1 << 63:
        raise ValueError("points span too many voxels for an int64 key")
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    boundary = np.diff(sorted_key, prepend=sorted_key[0] - 1) != 0
    voxel = np.cumsum(boundary) - 1
    dist = dist[order]
    tied = dist == np.minimum.reduceat(dist, np.flatnonzero(boundary))[voxel]
    rows, voxel = order[tied], voxel[tied]
    # A voxel with one row at its minimum distance keeps it; the rows of the
    # others are ranked by coordinates, and lexsort is stable, so rows tied
    # on every key stay in input order.
    shared = np.bincount(voxel)[voxel] > 1
    rows_shared, voxel = rows[shared], voxel[shared]
    pts = points[rows_shared]
    ranked = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], voxel))
    first = ranked[np.flatnonzero(np.diff(voxel[ranked], prepend=-1))]
    return np.sort(np.concatenate([rows[~shared], rows_shared[first]]))


@dataclass(frozen=True)
class PlaneObservations:
    """Associated point-to-plane measurements, one row per observation.

    point_world, point_lidar and normal are (n, 3); plane_offset and the
    folded, nonnegative residual are (n,). Indexing selects rows.
    """

    point_world: np.ndarray
    point_lidar: np.ndarray
    normal: np.ndarray
    plane_offset: np.ndarray
    residual: np.ndarray

    @classmethod
    def empty(cls) -> "PlaneObservations":
        return cls(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)),
                   np.empty(0), np.empty(0))

    def __len__(self) -> int:
        return len(self.residual)

    def __getitem__(self, rows) -> "PlaneObservations":
        return PlaneObservations(*(getattr(self, f.name)[rows] for f in fields(self)))

    @property
    def residual_vector(self) -> np.ndarray:
        """z * u per row: the vector the rq key quantizes."""
        return self.residual[:, None] * self.normal


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
    observations = PlaneObservations(
        point_world=world_points[rows],
        point_lidar=lidar_points[rows],
        normal=sign[keep, None] * normals[keep],
        plane_offset=sign[keep] * offsets[keep],
        residual=z[keep],
    )
    return observations, len(world_points) - len(rows)


def rq_resample(observations: PlaneObservations, cb: Codebook, ds_0: float,
                alpha: float) -> PlaneObservations:
    """Adaptive per-bucket downsampling keyed by quantized residual vectors.

    Observations are partitioned by rq key; each bucket gets a voxel size
    ds_0 + alpha * mean sensor range of its members and keeps one member per
    voxel: the one nearest the voxel center, ties broken by lexicographic
    coordinates, then by input order. Bucket counts never grow and a
    nonempty bucket keeps at least one member. Kept rows stay in input
    order.
    """
    if len(observations) == 0:
        return observations
    keys, _ = quantize_residual_vectors(observations.residual_vector, cb)
    pts = observations.point_lidar
    ranges = np.linalg.norm(pts, axis=1)

    # Each bucket's mean range sums its members in input order with the
    # reduction np.mean uses, so it equals ranges[keys == key].mean().
    _, bucket = np.unique(keys, return_inverse=True)
    sizes = np.bincount(bucket)
    segments = np.split(ranges[np.argsort(bucket, kind="stable")], np.cumsum(sizes)[:-1])
    means = np.array([np.add.reduce(seg) for seg in segments]) / sizes
    edges = (ds_0 + alpha * means)[bucket][:, None]

    return observations[_voxel_representatives(pts, edges, bucket)]


def build_groups(observations: PlaneObservations, cb: Codebook) -> ObservationGroups:
    """Quantize observations and group them under shared rq keys.

    Groups are ordered by ascending key; members within a group by ascending
    point indices (then z index), so the encoding is deterministic.
    """
    keys, _ = quantize_residual_vectors(observations.residual_vector, cb)
    p_idx, _ = quantize_points(observations.point_lidar, cb)
    z_idx, _, _, _ = quantize_zs(observations.residual, cb)

    order = np.lexsort((z_idx, p_idx[:, 2], p_idx[:, 1], p_idx[:, 0], keys))
    uniq, counts = np.unique(keys[order], return_counts=True)
    return ObservationGroups(uniq, counts, np.column_stack([z_idx, p_idx])[order])


class Coprocessor:
    """Owns the map and turns raw scans into observations, one scan at a time.

    observe() runs the stages every mode shares: the int8 min-max round trip
    (baseline-int8 only), undistortion, voxel downsampling, the codebook
    range gate, float32 rounding of the kept points (both baselines, which
    send float32) and association; the float baselines hand its observations
    to the host as they are. process_scan() is the qlio modes' path: observe,
    then rq resampling (qlio only) and grouping. Either keeps the scan's
    points until integrate_posterior() inserts them into the map.

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
        """Undistort, downsample and associate one scan.

        pose_prev is the world-from-IMU pose at the previous scan end;
        combined with scan_delta it yields the end-of-scan world pose used
        to place points for association. Returns (observations, stats dict).
        """
        if self.mode == "baseline-int8" and len(points):
            points = int8_minmax_reconstruct(*int8_minmax_quantize(points))
        lidar_end = undistort(points, times, t_prev, t_k, scan_delta, self.extrinsic)
        lidar_end = lidar_end[voxel_downsample(lidar_end, self.ds_0)]
        # Codebook range gate: whatever the quantizer cannot represent is
        # dropped before association.
        in_range = np.all(np.abs(lidar_end) < self.cb.r_max, axis=1)
        lidar_end = lidar_end[in_range]
        if self.mode.startswith("baseline"):  # the baselines send float32 points
            lidar_end = lidar_end.astype(np.float32).astype(np.float64)

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
        if self.mode == "qlio":
            observations = rq_resample(observations, self.cb, self.ds_0, self.alpha)
        stats["observations_sent"] = len(observations)
        return build_groups(observations, self.cb), observations, stats

    def integrate_posterior(self, pose_k) -> None:
        """Insert the pending scan into the map at the posterior pose."""
        if self._pending_lidar_points is None:
            return
        world_from_lidar = compose(pose_k, self.extrinsic)
        self.vmap.insert(apply_transform(world_from_lidar, self._pending_lidar_points))
        self._pending_lidar_points = None
