"""Synthetic ground truth: planar scenes, smooth trajectories, IMU streams
and per-point-timestamped LiDAR scans.

Scenes are finite rectangular patches. Each trajectory preset is one
closed-form motion function (at least C2 in time) giving exact position,
velocity, acceleration, yaw and yaw rate at any time from scalar math. The
ground truth samples it once on a 200 Hz grid, which the IMU reads, and scan
rays query it off the grid, so neither interpolates. Everything is
deterministic given (descriptor, seed).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .manifold import ImuStream, NoiseParams, rot_to_quat

GRAVITY_W = np.array([0.0, 0.0, -9.81])

GT_RATE_HZ = 200.0  # ground-truth grid and IMU sample rate

# Vertical offset of the world origin above preset floors. Keeping plane
# offsets away from zero matters: the q.n = -1 fit convention degrades for
# planes through the origin.
SENSOR_HEIGHT = 1.3


@dataclass
class ScenePatch:
    """Finite rectangle: center, unit normal, two in-plane half extents."""

    center: np.ndarray
    normal: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    half_u: float
    half_v: float

    @property
    def offset(self) -> float:
        """Plane offset d with normal.q + d == 0 for on-patch q."""
        return -float(np.dot(self.normal, self.center))


@dataclass
class Scene:
    preset: str
    patches: list[ScenePatch] = field(default_factory=list)
    # Free space between the walls: lower and upper corner of a box, with
    # infinite bounds where the scene is open.
    interior: tuple = ((-np.inf,) * 3, (np.inf,) * 3)

    def clearance(self, points) -> np.ndarray:
        """Distance from each point to the nearest wall of the interior;
        negative outside it."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lower, upper = self.interior
        return np.minimum(points - lower, upper - points).min(axis=1)

    def point_to_patch_distances(self, points) -> np.ndarray:
        """Distance from each point to the nearest patch (bounded rectangle)."""
        points = np.atleast_2d(points)
        best = np.full(len(points), np.inf)
        for patch in self.patches:
            rel = points - patch.center
            du = np.clip(rel @ patch.axis_u, -patch.half_u, patch.half_u)
            dv = np.clip(rel @ patch.axis_v, -patch.half_v, patch.half_v)
            closest = patch.center + du[:, None] * patch.axis_u + dv[:, None] * patch.axis_v
            best = np.minimum(best, np.linalg.norm(points - closest, axis=1))
        return best


def _rect(center, normal, axis_u, half_u, half_v) -> ScenePatch:
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    axis_u = np.asarray(axis_u, dtype=float)
    axis_u = axis_u - np.dot(axis_u, normal) * normal
    axis_u = axis_u / np.linalg.norm(axis_u)
    axis_v = np.cross(normal, axis_u)
    return ScenePatch(np.asarray(center, dtype=float), normal, axis_u, axis_v,
                      float(half_u), float(half_v))


def _scene_size(preset: str, size, names: tuple, default: tuple) -> tuple:
    """A preset's size as floats, default when None; refuses a size of the
    wrong length or with an extent that is not finite and positive."""
    if size is None:
        return default
    size = tuple(float(v) for v in size)
    if len(size) != len(names) or not all(0.0 < v < math.inf for v in size):
        raise ValueError(f"a {preset} scene size is {len(names)} finite positive "
                         f"extents ({', '.join(names)}) in m, not {size}")
    return size


def build_scene(preset: str, size=None, seed: int = 0) -> Scene:
    """Construct a preset scene; normals face the trajectory region.

    Presets: "box-room" (size = width, depth, height), "corridor"
    (size = length, width, height), "open-yard" (size = yard half-width).
    """
    if preset == "box-room":
        w, d, h = _scene_size(preset, size, ("width", "depth", "height"), (10.0, 10.0, 3.0))
        zf, zc = -SENSOR_HEIGHT, h - SENSOR_HEIGHT
        zm = 0.5 * (zf + zc)
        patches = [
            _rect((0, 0, zf), (0, 0, 1), (1, 0, 0), w / 2, d / 2),
            _rect((0, 0, zc), (0, 0, -1), (1, 0, 0), w / 2, d / 2),
            _rect((w / 2, 0, zm), (-1, 0, 0), (0, 1, 0), d / 2, h / 2),
            _rect((-w / 2, 0, zm), (1, 0, 0), (0, 1, 0), d / 2, h / 2),
            _rect((0, d / 2, zm), (0, -1, 0), (1, 0, 0), w / 2, h / 2),
            _rect((0, -d / 2, zm), (0, 1, 0), (1, 0, 0), w / 2, h / 2),
        ]
        return Scene(preset, patches, ((-w / 2, -d / 2, zf), (w / 2, d / 2, zc)))
    if preset == "corridor":
        length, w, h = _scene_size(preset, size, ("length", "width", "height"), (40.0, 3.0, 2.5))
        x0, x1 = -5.0, length - 5.0
        xm = 0.5 * (x0 + x1)
        zf, zc = -SENSOR_HEIGHT, h - SENSOR_HEIGHT
        zm = 0.5 * (zf + zc)
        patches = [
            _rect((xm, 0, zf), (0, 0, 1), (1, 0, 0), length / 2, w / 2),
            _rect((xm, 0, zc), (0, 0, -1), (1, 0, 0), length / 2, w / 2),
            _rect((xm, w / 2, zm), (0, -1, 0), (1, 0, 0), length / 2, h / 2),
            _rect((xm, -w / 2, zm), (0, 1, 0), (1, 0, 0), length / 2, h / 2),
            # End caps: short patches that keep the long axis observable.
            _rect((x0, 0, zm), (1, 0, 0), (0, 1, 0), w / 2, h / 2),
            _rect((x1, 0, zm), (-1, 0, 0), (0, 1, 0), w / 2, h / 2),
        ]
        return Scene(preset, patches, ((x0, -w / 2, zf), (x1, w / 2, zc)))
    if preset == "open-yard":
        (half,) = _scene_size(preset, size, ("half-width",), (15.0,))
        zf = -SENSOR_HEIGHT
        patches = [_rect((0, 0, zf), (0, 0, 1), (1, 0, 0), half, half)]
        rng = np.random.default_rng(seed)
        yaws = np.array([0.0, 0.8, 1.6, 2.4, 3.4, 4.6]) + rng.uniform(-0.1, 0.1, 6)
        radii = np.array([8.0, 10.0, 9.0, 11.0, 8.5, 10.5])
        for yaw, radius in zip(yaws, radii):
            direction = np.array([math.cos(yaw), math.sin(yaw), 0.0])
            center = direction * radius + np.array([0.0, 0.0, 0.2])
            patches.append(_rect(center, -direction, (0, 0, 1), 1.5, 3.0))
        return Scene(preset, patches, ((-half, -half, zf), (half, half, np.inf)))
    raise ValueError(f"unknown scene preset: {preset!r}")


# A trajectory's exact state at one time: world-frame (x, y, z) tuples, yaw, yaw rate.
Motion = namedtuple("Motion", "position velocity acceleration yaw yaw_rate")


def _yaw_rotations(yaws) -> np.ndarray:
    """(n, 3, 3) rotations about z, from scalar math.cos/math.sin."""
    cos = [math.cos(yaw) for yaw in yaws]
    sin = [math.sin(yaw) for yaw in yaws]
    rots = np.zeros((len(cos), 3, 3))
    rots[:, 0, 0] = rots[:, 1, 1] = cos
    rots[:, 0, 1] = np.negative(sin)
    rots[:, 1, 0] = sin
    rots[:, 2, 2] = 1.0
    return rots


class GroundTruth:
    """A trajectory's motion function, sampled once per `times` (GT_RATE_HZ)
    a row at a time into one grid, whose column views are positions,
    velocities, accelerations (n, 3), yaws and yaw_rates (n,). Off-grid
    times (scan rays) call the function itself."""

    def __init__(self, motion, duration: float):
        self.motion = motion
        self.duration = float(duration)
        self.times = np.arange(0.0, self.duration + 0.5 / GT_RATE_HZ, 1.0 / GT_RATE_HZ)
        grid = np.fromiter((m.position + m.velocity + m.acceleration + (m.yaw, m.yaw_rate)
                            for m in map(motion, self.times.tolist())),
                           dtype=(float, 11), count=len(self.times))
        self.positions, self.velocities = grid[:, 0:3], grid[:, 3:6]
        self.accelerations, self.yaws, self.yaw_rates = grid[:, 6:9], grid[:, 9], grid[:, 10]

    def pose_at(self, t: float):
        rots, positions = self.poses_at([t])
        return rots[0], positions[0]

    def poses_at(self, times):
        """World-from-body rotations (n, 3, 3) and positions (n, 3) at
        off-grid times, one motion-function call per time."""
        motions = [self.motion(t) for t in np.asarray(times, dtype=float).tolist()]
        return (_yaw_rotations([m.yaw for m in motions]),
                np.array([m.position for m in motions]).reshape(-1, 3))

    def to_csv(self, path) -> None:
        quats = [rot_to_quat(rot) for rot in _yaw_rotations(self.yaws.tolist())]
        np.savetxt(path, np.column_stack([self.times, self.positions, quats]), delimiter=",",
                   header="t,px,py,pz,qw,qx,qy,qz", comments="")


def _smoothstep(u: float) -> tuple[float, float, float]:
    """Quintic 0->1 ramp with zero end velocity/acceleration; returns
    (value, first, second derivative with respect to u)."""
    u = min(max(u, 0.0), 1.0)
    val = u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
    d1 = 30.0 * u * u * (1.0 - u) ** 2
    d2 = 60.0 * u * (1.0 - 3.0 * u + 2.0 * u * u)
    return val, d1, d2


def synth_trajectory(preset: str, duration_s: float, **params) -> GroundTruth:
    """Build a smooth trajectory preset sampled at GT_RATE_HZ.

    Presets and their parameters (any other key raises ValueError): "static"
    (position, yaw), "line" (length, direction, position), "circle" (radius,
    laps, height), "figure-eight" (span, cycles, z_amplitude); one lap or
    cycle per 30 s by default. Peaks grow linearly with the pace w = 2 pi
    laps (or cycles) / duration: the circle runs at radius * w m/s and
    w rad/s, the figure-eight peaks at w sqrt(2 span^2 + z_amplitude^2) m/s
    and 3.17 w rad/s (0.89 m/s, 0.66 rad/s at the default 3 m span and 30 s
    per cycle; 2.67 m/s, 1.99 rad/s at 10 s; 13.3 m/s, 9.96 rad/s at 2 s),
    the line at 1.875 length / duration m/s.
    """
    if duration_s > 300.0:
        raise ValueError("duration must not exceed 300 s")
    T = float(duration_s)

    if preset == "static":
        p0 = tuple(float(v) for v in params.pop("position", (0.0, 0.0, 0.0)))
        yaw0 = float(params.pop("yaw", 0.0))
        motion = lambda t: Motion(p0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), yaw0, 0.0)
    elif preset == "line":
        length = float(params.pop("length", 8.0))
        direction = np.asarray(params.pop("direction", (1.0, 0.0, 0.0)), dtype=float)
        dx, dy, dz = (direction / np.linalg.norm(direction)).tolist()
        px, py, pz = (float(v) for v in params.pop("position", (0.0, 0.0, 0.0)))

        def motion(t):
            s, d1, d2 = _smoothstep(t / T)
            ls, lv, la = length * s, length * d1 / T, length * d2 / (T * T)
            return Motion((px + ls * dx, py + ls * dy, pz + ls * dz),
                          (lv * dx, lv * dy, lv * dz), (la * dx, la * dy, la * dz),
                          0.0, 0.0)
    elif preset == "circle":
        r = float(params.pop("radius", 3.0))
        laps = int(params.pop("laps", max(1, round(duration_s / 30.0))))
        rate = 2.0 * math.pi * laps / T
        z0 = float(params.pop("height", 0.0))

        def motion(t):
            a = rate * t
            cos, sin = math.cos(a), math.sin(a)
            return Motion((r * cos, r * sin, z0),
                          (-r * rate * sin, r * rate * cos, 0.0),
                          (-r * rate * rate * cos, -r * rate * rate * sin, 0.0),
                          a + math.pi / 2.0, rate)
    elif preset == "figure-eight":
        span = float(params.pop("span", 3.0))
        cycles = int(params.pop("cycles", max(1, round(duration_s / 30.0))))
        w = 2.0 * math.pi * cycles / T
        z_amp = float(params.pop("z_amplitude", 0.1))

        def motion(t):
            sin1, cos1 = math.sin(w * t), math.cos(w * t)
            sin2, cos2 = math.sin(2.0 * w * t), math.cos(2.0 * w * t)
            vx, vy = span * w * cos1, span * w * cos2
            ax, ay = -span * w * w * sin1, -2.0 * span * w * w * sin2
            return Motion((span * sin1, 0.5 * span * sin2, z_amp * sin1),
                          (vx, vy, z_amp * w * cos1),
                          (ax, ay, -z_amp * w * w * sin1),
                          math.atan2(vy, vx), (vx * ay - vy * ax) / (vx * vx + vy * vy))
    else:
        raise ValueError(f"unknown trajectory preset: {preset!r}")
    if params:
        raise ValueError(f"unknown {preset} trajectory parameter(s): "
                         f"{', '.join(map(repr, sorted(params)))}")
    return GroundTruth(motion, duration_s)


def synth_imu(gt: GroundTruth, noise: NoiseParams, seed: int = 0) -> ImuStream:
    """Bias-free IMU stream on the ground truth's time grid, read from its
    sampled arrays: body rate and specific force plus white noise, whose
    spectral densities are scaled by sqrt(GT_RATE_HZ)."""
    n = len(gt.times)
    omega = np.zeros((n, 3))
    omega[:, 2] = gt.yaw_rates
    rots = _yaw_rotations(gt.yaws.tolist())
    spec_force = (rots.transpose(0, 2, 1) @ (gt.accelerations - GRAVITY_W)[:, :, None])[..., 0]
    draws = np.random.default_rng(seed).standard_normal((n, 2, 3))
    sigma_g = noise.gyro_density * math.sqrt(GT_RATE_HZ)
    sigma_a = noise.accel_density * math.sqrt(GT_RATE_HZ)
    return ImuStream(t_us=np.round(gt.times * 1e6).astype(np.int64),
                     gyro=omega + sigma_g * draws[:, 0],
                     accel=spec_force + sigma_a * draws[:, 1])


@dataclass
class LidarModel:
    """Spinning scan pattern and noise model for the simulated sensor."""

    rate_hz: float = 10.0
    n_azimuth: int = 48
    n_elevation: int = 16
    elevation_span: tuple = (-0.45, 0.35)
    range_noise: float = 0.02
    max_range: float = 35.0
    min_range: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.range_noise < math.inf:
            raise ValueError("range noise must be nonnegative and finite")

    @property
    def period(self) -> float:
        return 1.0 / self.rate_hz

    def ray_table(self):
        """(directions (N, 3) sensor frame, time offsets (N,) in [0, period))."""
        el = np.linspace(self.elevation_span[0], self.elevation_span[1], self.n_elevation)
        az = np.arange(self.n_azimuth) / self.n_azimuth * 2.0 * math.pi
        offsets_col = np.arange(self.n_azimuth) / self.n_azimuth * self.period
        azg, elg = np.meshgrid(az, el, indexing="ij")
        dirs = np.stack([np.cos(elg) * np.cos(azg),
                         np.cos(elg) * np.sin(azg),
                         np.sin(elg)], axis=-1).reshape(-1, 3)
        offsets = np.repeat(offsets_col, self.n_elevation)
        return dirs, offsets


def synth_scan(scene: Scene, gt: GroundTruth, lidar: LidarModel, t_k: float,
               seed: int = 0, extrinsic=None):
    """Ray-cast one scan ending at t_k.

    Each ray fires from the sensor pose at its own timestamp; the first
    patch hit within range gets Gaussian range noise; misses are dropped.
    Returns (points (M, 3) in the sensor frame, timestamps (M,) seconds).
    """
    if not (gt.times[0] + lidar.period - 1e-9 <= t_k <= gt.times[-1] + 1e-9):
        raise ValueError("scan end time outside the ground-truth span")
    rng = np.random.default_rng(seed)
    dirs, offsets = lidar.ray_table()
    times = t_k - lidar.period + offsets

    if extrinsic is None:
        r_il, t_il = np.eye(3), np.zeros(3)
    else:
        r_il, t_il = extrinsic

    # One sensor pose per distinct firing time (columns share a timestamp).
    uniq, inverse = np.unique(times, return_inverse=True)
    rots_wi, pos_wi = gt.poses_at(uniq)
    origins = (rots_wi @ t_il + pos_wi)[inverse]
    dirs_w = np.einsum("nij,nj->ni", (rots_wi @ r_il)[inverse], dirs)

    best_t = np.full(len(dirs), np.inf)
    for patch in scene.patches:
        denom = dirs_w @ patch.normal
        safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
        t_hit = ((patch.center - origins) @ patch.normal) / safe
        hit = origins + t_hit[:, None] * dirs_w
        rel = hit - patch.center
        valid = (np.abs(denom) > 1e-12) & (t_hit > lidar.min_range) & (t_hit <= lidar.max_range)
        valid &= np.abs(rel @ patch.axis_u) <= patch.half_u
        valid &= np.abs(rel @ patch.axis_v) <= patch.half_v
        best_t = np.where(valid & (t_hit < best_t), t_hit, best_t)

    mask = np.isfinite(best_t)
    ranges = best_t[mask]
    if lidar.range_noise > 0.0:
        ranges = ranges + lidar.range_noise * rng.standard_normal(len(ranges))
    points_sensor = dirs[mask] * ranges[:, None]
    return points_sensor, times[mask]


def load_descriptor(path) -> dict:
    """Parse a plain-text key-value config ('key = value', '#' comments)."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
