"""Estimator state manifold and IMU propagation.

The navigation state lives on a product manifold: a rotation matrix plus five
plain 3-vectors (position, velocity, gyro bias, accel bias, gravity). Error
vectors are 18-dimensional tangent perturbations ordered
(dtheta, dpos, dvel, dbias_gyro, dbias_accel, dgravity), with the rotation
perturbed on the right (body frame): R <- R @ so3_exp(dtheta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ERROR_DIM = 18

# Error-state block layout, shared by every module that builds Jacobians.
THETA = slice(0, 3)
POS = slice(3, 6)
VEL = slice(6, 9)
BG = slice(9, 12)
BA = slice(12, 15)
GRAV = slice(15, 18)

MAX_IMU_DT = 0.05  # seconds, per-step integration bound


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(omega) -> np.ndarray:
    """Rodrigues rotation from a rotation vector (radians).

    Falls back to the truncated series below 1e-8 rad where sin/angle
    loses precision.
    """
    omega = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(omega))
    w = skew(omega)
    if angle < 1e-8:
        return np.eye(3) + w + 0.5 * (w @ w)
    s = np.sin(angle) / angle
    c = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + s * w + c * (w @ w)


def so3_log(rot) -> np.ndarray:
    """Principal-branch rotation vector of an orthonormal matrix.

    Raises ValueError when the input deviates from orthonormality by more
    than 1e-6 in Frobenius norm.
    """
    rot = np.asarray(rot, dtype=float)
    if np.linalg.norm(rot @ rot.T - np.eye(3)) > 1e-6 or np.linalg.det(rot) < 0.0:
        raise ValueError("so3_log expects an orthonormal matrix with det +1")
    cos_angle = np.clip(0.5 * (np.trace(rot) - 1.0), -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    if angle < 1e-8:
        return 0.5 * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    if np.pi - angle < 1e-6:
        # Near the branch cut sin(angle) ~ 0; recover the axis from R + I.
        m = 0.5 * (rot + np.eye(3))
        axis_sq = np.clip(np.diag(m), 0.0, None)
        k = int(np.argmax(axis_sq))
        axis = np.zeros(3)
        axis[k] = np.sqrt(axis_sq[k])
        for j in range(3):
            if j != k:
                axis[j] = m[k, j] / axis[k]
        axis /= np.linalg.norm(axis)
        # Fix the sign so exp(angle * axis) reproduces the off-diagonal part.
        sin_part = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
        if np.dot(axis, sin_part) < 0.0:
            axis = -axis
        return angle * axis
    scale = 0.5 * angle / np.sin(angle)
    return scale * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])


def so3_right_jacobian(omega) -> np.ndarray:
    """Right Jacobian of so3_exp: exp(w + dw) ~ exp(w) exp(Jr(w) dw)."""
    omega = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(omega))
    w = skew(omega)
    if angle < 1e-6:
        return np.eye(3) - 0.5 * w + (w @ w) / 6.0
    a2 = angle * angle
    c1 = (1.0 - np.cos(angle)) / a2
    c2 = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) - c1 * w + c2 * (w @ w)


def rot_to_quat(rot) -> np.ndarray:
    """Unit quaternion (w, x, y, z) from a rotation matrix."""
    rot = np.asarray(rot, dtype=float)
    t = np.trace(rot)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (rot[2, 1] - rot[1, 2]) / s,
                      (rot[0, 2] - rot[2, 0]) / s, (rot[1, 0] - rot[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(rot)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(rot[i, i] - rot[j, j] - rot[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (rot[k, j] - rot[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (rot[j, i] + rot[i, j]) / s
        q[1 + k] = (rot[k, i] + rot[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_rot(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass
class NavState:
    """Full estimator state: world-from-body rotation plus vector blocks."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))

    def copy(self) -> "NavState":
        return NavState(self.rotation.copy(), self.position.copy(), self.velocity.copy(),
                        self.bias_gyro.copy(), self.bias_accel.copy(), self.gravity.copy())


@dataclass
class ImuSample:
    """One IMU reading: gyro in rad/s, accel (specific force) in m/s^2."""

    t_us: int
    gyro: np.ndarray
    accel: np.ndarray


@dataclass
class NoiseParams:
    """Continuous-time IMU noise spectral densities (all nonnegative).

    gyro_density / accel_density drive the white measurement noise;
    gyro_rw / accel_rw drive the bias random walks.
    """

    gyro_density: float = 1e-3
    accel_density: float = 1e-2
    gyro_rw: float = 1e-5
    accel_rw: float = 1e-5

    def __post_init__(self):
        for name in ("gyro_density", "accel_density", "gyro_rw", "accel_rw"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    def diffusion(self) -> np.ndarray:
        """Diagonal of the 12x12 spectral density (gyro, accel, bias walks)."""
        return np.repeat([self.gyro_density ** 2, self.accel_density ** 2,
                          self.gyro_rw ** 2, self.accel_rw ** 2], 3)


def boxplus(state: NavState, dx) -> NavState:
    """Retract an 18-vector perturbation onto the state."""
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (ERROR_DIM,):
        raise ValueError(f"perturbation must have shape ({ERROR_DIM},)")
    out = state.copy()
    out.rotation = state.rotation @ so3_exp(dx[THETA])
    out.position = state.position + dx[POS]
    out.velocity = state.velocity + dx[VEL]
    out.bias_gyro = state.bias_gyro + dx[BG]
    out.bias_accel = state.bias_accel + dx[BA]
    out.gravity = state.gravity + dx[GRAV]
    return out


def boxminus(x1: NavState, x0: NavState) -> np.ndarray:
    """Inverse retraction: boxplus(x0, boxminus(x1, x0)) == x1."""
    dx = np.empty(ERROR_DIM)
    dx[THETA] = so3_log(x0.rotation.T @ x1.rotation)
    dx[POS] = x1.position - x0.position
    dx[VEL] = x1.velocity - x0.velocity
    dx[BG] = x1.bias_gyro - x0.bias_gyro
    dx[BA] = x1.bias_accel - x0.bias_accel
    dx[GRAV] = x1.gravity - x0.gravity
    return dx


def _mean_step(state: NavState, gyro, accel, dt: float) -> NavState:
    """One Euler step of the zero-noise kinematics with held inputs."""
    omega = gyro - state.bias_gyro
    acc = accel - state.bias_accel
    out = state.copy()
    out.rotation = state.rotation @ so3_exp(omega * dt)
    out.position = state.position + state.velocity * dt
    out.velocity = state.velocity + (state.rotation @ acc + state.gravity) * dt
    return out


def step_jacobians(state: NavState, gyro, accel, dt: float):
    """Discrete Jacobians of the mean step wrt error state and noise input."""
    omega = (gyro - state.bias_gyro) * dt
    acc = accel - state.bias_accel
    jr_dt = so3_right_jacobian(omega) * dt

    fx = np.eye(ERROR_DIM)
    fx[THETA, THETA] = so3_exp(-omega)
    fx[THETA, BG] = -jr_dt
    fx[POS, VEL] = np.eye(3) * dt
    fx[VEL, THETA] = -(state.rotation @ skew(acc)) * dt
    fx[VEL, BA] = -state.rotation * dt
    fx[VEL, GRAV] = np.eye(3) * dt

    fw = np.zeros((ERROR_DIM, 12))
    fw[THETA, 0:3] = -jr_dt
    fw[VEL, 3:6] = -state.rotation * dt
    fw[BG, 6:9] = np.eye(3) * dt
    fw[BA, 9:12] = np.eye(3) * dt
    return fx, fw


def propagate(state: NavState, cov: np.ndarray, samples, noise: NoiseParams,
              t_start: float | None = None, t_end: float | None = None):
    """Advance mean and covariance through an IMU segment.

    Inputs are zero-order held: sample i applies over [t_i, t_{i+1}). When
    t_start / t_end are given (seconds), integration is clipped to that
    window, holding the latest sample at or before each sub-interval.
    Per-step dt must stay at or below MAX_IMU_DT.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("propagate needs at least one IMU sample")
    times = np.array([s.t_us for s in samples], dtype=np.int64) * 1e-6
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("IMU timestamps must strictly increase")

    if t_start is None:
        t_start = times[0]
    if t_end is None:
        t_end = times[-1]
    if t_end < t_start:
        raise ValueError("t_end must not precede t_start")
    if times[0] > t_start + 1e-9:
        raise ValueError("IMU segment does not cover the requested start time")
    if times[-1] < t_end - MAX_IMU_DT - 1e-9:
        raise ValueError("IMU segment does not cover the requested end time")

    inner = times[(times > t_start) & (times < t_end)]
    breaks = np.concatenate(([t_start], inner, [t_end]))

    q_diag = noise.diffusion()
    x = state.copy()
    p = np.array(cov, dtype=float, copy=True)
    for a, b in zip(breaks[:-1], breaks[1:]):
        dt = b - a
        if dt <= 0.0:
            continue
        if dt > MAX_IMU_DT + 1e-9:
            raise ValueError(f"IMU step {dt:.4f}s exceeds {MAX_IMU_DT}s")
        idx = int(np.searchsorted(times, a + 1e-12) - 1)
        idx = max(idx, 0)
        s = samples[idx]
        fx, fw = step_jacobians(x, s.gyro, s.accel, dt)
        x = _mean_step(x, s.gyro, s.accel, dt)
        # Continuous densities scaled by 1/dt because fw already carries dt.
        p = fx @ p @ fx.T + fw @ np.diag(q_diag / dt) @ fw.T
        p = 0.5 * (p + p.T)
    return x, p
