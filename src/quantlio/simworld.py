"""Synthetic ground truth: planar scenes, smooth trajectories, IMU streams
and per-point-timestamped LiDAR scans.

Scenes are finite rectangular patches. Trajectories are closed-form analytic
profiles (at least C2 in time), so pose, velocity, acceleration and body
rate are exact at any query time; that keeps scan simulation and IMU
synthesis free of interpolation error. Everything is deterministic given
(descriptor, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manifold import ImuStream, NoiseParams

GRAVITY_W = np.array([0.0, 0.0, -9.81])

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


def build_scene(preset: str, size=None, seed: int = 0) -> Scene:
    """Construct a preset scene; normals face the trajectory region.

    Presets: "box-room" (size = width, depth, height), "corridor"
    (size = length, width, height), "open-yard" (size = yard half-width).
    """
    if preset == "box-room":
        w, d, h = size if size is not None else (10.0, 10.0, 3.0)
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
        length, w, h = size if size is not None else (40.0, 3.0, 2.5)
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
        half = float(size[0]) if size is not None else 15.0
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


class TrajectoryProfile:
    """Closed-form pose/derivative callbacks for one motion preset."""

    def __init__(self, position, velocity, accel, yaw, yaw_rate):
        self.position = position
        self.velocity = velocity
        self.accel = accel
        self.yaw = yaw
        self.yaw_rate = yaw_rate

    def rotation(self, t: float) -> np.ndarray:
        c, s = math.cos(self.yaw(t)), math.sin(self.yaw(t))
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def omega_body(self, t: float) -> np.ndarray:
        return np.array([0.0, 0.0, self.yaw_rate(t)])


class GroundTruth:
    """Time-indexed true poses plus exact continuous-time queries."""

    def __init__(self, profile: TrajectoryProfile, duration: float, rate_hz: float):
        self.profile = profile
        self.duration = float(duration)
        self.rate_hz = float(rate_hz)
        self.times = np.arange(0.0, self.duration + 0.5 / rate_hz, 1.0 / rate_hz)
        self.positions = np.array([profile.position(t) for t in self.times])

    def pose_at(self, t: float):
        return self.profile.rotation(t), self.profile.position(t)

    def to_csv(self, path) -> None:
        from .manifold import rot_to_quat
        rows = []
        for t, pos in zip(self.times, self.positions):
            rows.append((t, *pos, *rot_to_quat(self.profile.rotation(t))))
        header = "t,px,py,pz,qw,qx,qy,qz"
        np.savetxt(path, np.array(rows), delimiter=",", header=header, comments="")


def _smoothstep(u: float) -> tuple[float, float, float]:
    """Quintic 0->1 ramp with zero end velocity/acceleration; returns
    (value, first, second derivative with respect to u)."""
    u = min(max(u, 0.0), 1.0)
    val = u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
    d1 = 30.0 * u * u * (1.0 - u) ** 2
    d2 = 60.0 * u * (1.0 - 3.0 * u + 2.0 * u * u)
    return val, d1, d2


def synth_trajectory(preset: str, duration_s: float, rate_hz: float = 200.0,
                     **params) -> GroundTruth:
    """Build a smooth trajectory preset sampled at rate_hz.

    Presets: "static", "line" (length), "circle" (radius, laps),
    "figure-eight" (span, cycles). Speeds stay within 3 m/s and 1.5 rad/s
    for the default parameters.
    """
    if duration_s > 300.0:
        raise ValueError("duration must not exceed 300 s")
    if rate_hz < 100.0:
        raise ValueError("ground-truth rate below 100 Hz is too coarse for IMU synthesis")
    T = float(duration_s)

    if preset == "static":
        p0 = np.asarray(params.get("position", (0.0, 0.0, 0.0)), dtype=float)
        yaw0 = float(params.get("yaw", 0.0))
        profile = TrajectoryProfile(
            position=lambda t: p0.copy(),
            velocity=lambda t: np.zeros(3),
            accel=lambda t: np.zeros(3),
            yaw=lambda t: yaw0,
            yaw_rate=lambda t: 0.0,
        )
    elif preset == "line":
        length = float(params.get("length", 8.0))
        direction = np.asarray(params.get("direction", (1.0, 0.0, 0.0)), dtype=float)
        direction = direction / np.linalg.norm(direction)
        p0 = np.asarray(params.get("position", (0.0, 0.0, 0.0)), dtype=float)

        def position(t, p0=p0, d=direction):
            s, _, _ = _smoothstep(t / T)
            return p0 + length * s * d

        def velocity(t, d=direction):
            _, d1, _ = _smoothstep(t / T)
            return length * d1 / T * d

        def accel(t, d=direction):
            _, _, d2 = _smoothstep(t / T)
            return length * d2 / (T * T) * d

        profile = TrajectoryProfile(position, velocity, accel,
                                    yaw=lambda t: 0.0, yaw_rate=lambda t: 0.0)
    elif preset == "circle":
        radius = float(params.get("radius", 3.0))
        laps = int(params.get("laps", max(1, round(duration_s / 30.0))))
        rate = 2.0 * math.pi * laps / T
        z0 = float(params.get("height", 0.0))

        def position(t, r=radius):
            a = rate * t
            return np.array([r * math.cos(a), r * math.sin(a), z0])

        def velocity(t, r=radius):
            a = rate * t
            return np.array([-r * rate * math.sin(a), r * rate * math.cos(a), 0.0])

        def accel(t, r=radius):
            a = rate * t
            return np.array([-r * rate * rate * math.cos(a), -r * rate * rate * math.sin(a), 0.0])

        profile = TrajectoryProfile(position, velocity, accel,
                                    yaw=lambda t: rate * t + math.pi / 2.0,
                                    yaw_rate=lambda t: rate)
    elif preset == "figure-eight":
        span = float(params.get("span", 3.0))
        cycles = int(params.get("cycles", max(1, round(duration_s / 30.0))))
        w = 2.0 * math.pi * cycles / T
        z_amp = float(params.get("z_amplitude", 0.1))

        def position(t):
            return np.array([span * math.sin(w * t),
                             0.5 * span * math.sin(2.0 * w * t),
                             z_amp * math.sin(w * t)])

        def velocity(t):
            return np.array([span * w * math.cos(w * t),
                             span * w * math.cos(2.0 * w * t),
                             z_amp * w * math.cos(w * t)])

        def accel(t):
            return np.array([-span * w * w * math.sin(w * t),
                             -2.0 * span * w * w * math.sin(2.0 * w * t),
                             -z_amp * w * w * math.sin(w * t)])

        def yaw(t):
            return math.atan2(span * w * math.cos(2.0 * w * t),
                              span * w * math.cos(w * t))

        def yaw_rate(t):
            vx = span * w * math.cos(w * t)
            vy = span * w * math.cos(2.0 * w * t)
            ax = -span * w * w * math.sin(w * t)
            ay = -2.0 * span * w * w * math.sin(2.0 * w * t)
            return (vx * ay - vy * ax) / (vx * vx + vy * vy)

        profile = TrajectoryProfile(position, velocity, accel, yaw, yaw_rate)
    else:
        raise ValueError(f"unknown trajectory preset: {preset!r}")
    return GroundTruth(profile, duration_s, rate_hz)


def synth_imu(gt: GroundTruth, noise: NoiseParams, seed: int = 0) -> ImuStream:
    """Bias-free IMU stream on the ground truth's time grid: body rate and
    specific force plus white noise, whose spectral densities are scaled by
    sqrt(rate). The profiles are scalar, evaluated once per sample."""
    times = gt.times.tolist()
    rots = np.array([gt.profile.rotation(t) for t in times])
    omega = np.array([gt.profile.omega_body(t) for t in times])
    lin_accel = np.array([gt.profile.accel(t) for t in times]) - GRAVITY_W
    spec_force = (rots.transpose(0, 2, 1) @ lin_accel[:, :, None])[..., 0]
    draws = np.random.default_rng(seed).standard_normal((len(times), 2, 3))
    sigma_g = noise.gyro_density * math.sqrt(gt.rate_hz)
    sigma_a = noise.accel_density * math.sqrt(gt.rate_hz)
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
        if self.range_noise < 0.0:
            raise ValueError("range noise must be nonnegative")

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
    origins_u = np.empty((len(uniq), 3))
    rots_u = np.empty((len(uniq), 3, 3))
    for i, t in enumerate(uniq):
        rot_wi, pos_wi = gt.pose_at(t)
        rots_u[i] = rot_wi @ r_il
        origins_u[i] = rot_wi @ t_il + pos_wi
    origins = origins_u[inverse]
    dirs_w = np.einsum("nij,nj->ni", rots_u[inverse], dirs)

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
