"""Output checks that hold for any correct run, independent of stored output.

Nothing here reads `RunMetrics` accuracy fields or `pipeline.ate`: the
trajectory error is recomputed from the trajectory rows and the simulator's
ground truth with the benchmark's own rigid alignment.
"""

from __future__ import annotations

import numpy as np

from quantlio.simworld import synth_trajectory
from quantlio.wire import WireError, unpack_groups

# A scan fails when its posterior position is farther than this from ground
# truth. Healthy rounds stay below 16 mm in the box room and below 57 mm in
# the open yard on every seed tried.
POSITION_BOUND_M = 0.15
# A round fails its accuracy check when the aligned trajectory error exceeds
# this share of the ground-truth path length (healthy rounds: under 0.1%).
ATE_PATH_SHARE = 0.005
FLOAT_OBS_BITS = 224


def quat_to_rot(q) -> np.ndarray:
    """Rotation matrices from (w, x, y, z) unit quaternions, shape (n, 3, 3)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def rotation_angles(rots) -> np.ndarray:
    """Rotation angle of each matrix in (n, 3, 3)."""
    cos = (np.trace(rots, axis1=1, axis2=2) - 1.0) / 2.0
    return np.arccos(np.clip(cos, -1.0, 1.0))


def ate(est_p, est_rot, gt_p, gt_rot) -> tuple[float, float]:
    """Translational and rotational RMSE after a rigid (no-scale) alignment
    of the estimated positions onto the ground-truth positions.

    Poses are paired by index. Returns (meters, radians).
    """
    a = np.asarray(est_p, dtype=float)
    b = np.asarray(gt_p, dtype=float)
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    u, _, vt = np.linalg.svd((b - mu_b).T @ (a - mu_a))
    fix = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt)) or 1.0])
    align = u @ fix @ vt
    resid = (a - mu_a) @ align.T + mu_b - b
    trans = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))
    err = np.einsum("ij,njk,nlk->nil", align, np.asarray(est_rot), np.asarray(gt_rot))
    rot = float(np.sqrt(np.mean(rotation_angles(err) ** 2)))
    return trans, rot


class RoundCheck:
    """Accuracy of one round's trajectory rows against simulator truth."""

    def __init__(self, cfg, rows):
        gt = synth_trajectory(cfg.trajectory, cfg.duration, **cfg.trajectory_params)
        self.path_m = float(np.sum(np.linalg.norm(np.diff(gt.positions, axis=0), axis=1)))
        t = rows[:, 0]
        poses = [gt.pose_at(ti) for ti in t]
        gt_p = np.array([p for _, p in poses])
        gt_rot = np.array([r for r, _ in poses])
        self.position_err = np.linalg.norm(rows[:, 1:4] - gt_p, axis=1)
        self.ate_trans, self.ate_rot = ate(rows[:, 1:4], quat_to_rot(rows[:, 4:8]),
                                           gt_p, gt_rot)

    @property
    def scans_off_track(self) -> int:
        return int(np.count_nonzero(~(self.position_err <= POSITION_BOUND_M)))

    @property
    def ate_within_bound(self) -> bool:
        return self.ate_trans <= ATE_PATH_SHARE * self.path_m


def obs_groups_bits(groups, cb) -> int:
    """OBS_GROUPS payload length in bits per the wire module docstring: a u16
    group count, then per group the key and a 16-bit member count, then the
    members, zero-padded once to a byte boundary."""
    stream = sum(3 * cb.l_n + 16 + len(g.members) * (cb.l_z + 3 * cb.l_p) for g in groups)
    return 16 + 8 * -(-stream // 8)


def payload_problems(packed, obs_sent, cb) -> list[str]:
    """Problems with a round's OBS_GROUPS payloads; empty when all are sound.

    packed holds (groups, payload) per scan in send order; obs_sent the
    coprocessor's per-scan count of observations it sent.
    """
    problems = []
    if len(packed) != len(obs_sent):
        problems.append(f"{len(packed)} payloads for {len(obs_sent)} scans")
    for scan, ((groups, payload), sent) in enumerate(zip(packed, obs_sent)):
        try:
            decoded = unpack_groups(payload, cb)
        except WireError as exc:
            problems.append(f"scan {scan}: payload does not decode: {exc}")
            decoded = []
        if [(g.rq_key, g.members) for g in decoded] != \
                [(g.rq_key, [(int(z), tuple(map(int, p))) for z, p in g.members])
                 for g in groups]:
            problems.append(f"scan {scan}: payload does not decode to the packed groups")
        if 8 * len(payload) != obs_groups_bits(groups, cb):
            problems.append(f"scan {scan}: {8 * len(payload)} payload bits, layout "
                            f"gives {obs_groups_bits(groups, cb)}")
        members = sum(len(g.members) for g in groups)
        if members != sent:
            problems.append(f"scan {scan}: {members} members, {sent} observations sent")
    return problems


def brute_force_knn(points, query, k: int, radius: float) -> np.ndarray:
    """Exact k nearest points within radius, ascending distance, ties broken
    by lexicographic coordinates (the VoxelMap.knn contract)."""
    diff = points - query
    d2 = np.einsum("ij,ij->i", diff, diff)
    keep = d2 <= radius ** 2
    pts, d2 = points[keep], d2[keep]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], d2))[:k]
    return pts[order]
