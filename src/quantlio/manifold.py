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
    """Rodrigues rotation I + b1 W + b2 W^2 from a rotation vector (radians),
    with rodrigues_terms' coefficients and series threshold."""
    w, ww, b1, b2, _ = rodrigues_terms(omega)
    return np.eye(3) + b1 * w + b2 * ww


def _skews(v) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of vectors (..., 3)."""
    w = np.zeros(v.shape + (3,))
    w[..., 0, 1], w[..., 0, 2], w[..., 1, 2] = -v[..., 2], v[..., 1], -v[..., 0]
    w[..., 1, 0], w[..., 2, 0], w[..., 2, 1] = v[..., 2], -v[..., 1], v[..., 0]
    return w


def rodrigues_terms(theta):
    """Batched Rodrigues terms of rotation vectors theta (..., 3).

    Returns the cross-product matrices W (..., 3, 3), W @ W and the
    coefficients of the angle a = |theta|, each shaped (..., 1, 1):
    b1 = sin(a)/a, b2 = (1 - cos a)/a^2 and b3 = (a - sin a)/a^3, with
    their series limits 1, 1/2 and 1/6 below 1e-6 rad. They give

        Exp(theta) = I + b1 W + b2 W^2
        V(theta)   = I + b2 W + b3 W^2   (SE(3) translation Jacobian)
        Jr(theta)  = I - b2 W + b3 W^2   (right Jacobian, V(-theta))

    The closed form of b2 loses about 1e-16 / a^2 to cancellation, which
    the first-order b2 W term of Jr and V carries; 1e-6 rad bounds that
    error by 1e-10.
    """
    theta = np.asarray(theta, dtype=float)
    angle = np.linalg.norm(theta, axis=-1)[..., None, None]
    w = _skews(theta)
    small = angle < 1e-6
    a = np.where(small, 1.0, angle)
    b1 = np.where(small, 1.0, np.sin(a) / a)
    b2 = np.where(small, 0.5, (1.0 - np.cos(a)) / (a * a))
    b3 = np.where(small, 1.0 / 6.0, (a - np.sin(a)) / (a * a * a))
    return w, w @ w, b1, b2, b3


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


@dataclass(frozen=True, eq=False)
class ImuStream:
    """IMU readings as rows: stamps t_us (n,) int64 and t (n,) in seconds,
    gyro (n, 3) in rad/s, accel (n, 3) specific force in m/s^2. The stamps
    are checked once, here; a window is a slice of the checked arrays."""

    t_us: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray
    t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t_us = np.asarray(self.t_us, dtype=np.int64)
        gyro, accel = np.asarray(self.gyro, dtype=float), np.asarray(self.accel, dtype=float)
        if t_us.ndim != 1 or gyro.shape != (len(t_us), 3) or accel.shape != gyro.shape:
            raise ValueError("IMU stream needs t_us (n,), gyro (n, 3) and accel (n, 3)")
        if np.any(np.diff(t_us) <= 0):
            raise ValueError("IMU timestamps must strictly increase")
        vars(self).update(t_us=t_us, gyro=gyro, accel=accel, t=t_us * 1e-6)

    def __len__(self) -> int:
        return len(self.t_us)

    def window(self, t_start: float, t_end: float) -> "ImuStream":
        """Samples from the last at or before t_start through the first at
        or after t_end (as far as the stream reaches): all that propagate
        reads for that window."""
        lo = max(int(np.searchsorted(self.t, t_start, side="right")) - 1, 0)
        hi = int(np.searchsorted(self.t, t_end, side="left")) + 1
        rows = object.__new__(ImuStream)
        vars(rows).update((name, value[lo:hi]) for name, value in vars(self).items())
        return rows


@dataclass
class NoiseParams:
    """Continuous-time IMU noise spectral densities (all nonnegative and finite).

    gyro_density / accel_density drive the white measurement noise;
    gyro_rw / accel_rw drive the bias random walks.
    """

    gyro_density: float = 1e-3
    accel_density: float = 1e-2
    gyro_rw: float = 1e-5
    accel_rw: float = 1e-5

    def __post_init__(self):
        for name in ("gyro_density", "accel_density", "gyro_rw", "accel_rw"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite")

    def diffusion(self) -> np.ndarray:
        """Diagonal of the 12x12 spectral density (gyro, accel, bias walks)."""
        return np.repeat([self.gyro_density ** 2, self.accel_density ** 2,
                          self.gyro_rw ** 2, self.accel_rw ** 2], 3)


def boxplus(state: NavState, dx) -> NavState:
    """Retract an 18-vector perturbation onto the state."""
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (ERROR_DIM,):
        raise ValueError(f"perturbation must have shape ({ERROR_DIM},)")
    return NavState(state.rotation @ so3_exp(dx[THETA]), state.position + dx[POS],
                    state.velocity + dx[VEL], state.bias_gyro + dx[BG],
                    state.bias_accel + dx[BA], state.gravity + dx[GRAV])


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


def imu_steps(state: NavState, gyro, accel, dt):
    """Euler steps of the zero-noise kinematics with held inputs, batched.

    gyro and accel (n, 3) are the readings held over each step and dt (n,)
    the step lengths. Biases and gravity stay constant. Returns the end state
    and the discrete Jacobians of every step, fx (n, 18, 18) wrt the error
    state and fw (n, 18, 12) wrt the noise input, each evaluated at the
    state that step starts from.
    """
    gyro = np.asarray(gyro, dtype=float)
    acc = np.asarray(accel, dtype=float) - state.bias_accel
    dt = np.asarray(dt, dtype=float)
    n = len(dt)
    dt3 = dt[:, None, None]
    w, ww, b1, b2, b3 = rodrigues_terms((gyro - state.bias_gyro) * dt[:, None])
    exp_w = np.eye(3) + b1 * w + b2 * ww
    jr_dt = (np.eye(3) - b2 * w + b3 * ww) * dt3

    # R_{k+1} = R_k Exp(w_k dt_k) is the only sequential product of the mean.
    rots = [state.rotation]
    for e in exp_w:
        rots.append(rots[-1] @ e)
    r = np.array(rots[:-1])
    # cumsum adds the increments in step order, as a step loop would.
    dv = ((r @ acc[:, :, None])[..., 0] + state.gravity) * dt[:, None]
    vel = np.cumsum(np.vstack((state.velocity, dv)), axis=0)
    pos = np.cumsum(np.vstack((state.position, vel[:-1] * dt[:, None])), axis=0)

    eye_dt = np.eye(3) * dt3
    r_dt = r * dt3
    fx = np.empty((n, ERROR_DIM, ERROR_DIM))
    fx[:] = np.eye(ERROR_DIM)
    # Exp(-w) is the transpose of Exp(w).
    fx[:, THETA, THETA] = exp_w.swapaxes(1, 2)
    fx[:, THETA, BG] = -jr_dt
    fx[:, POS, VEL] = eye_dt
    fx[:, VEL, THETA] = -(r @ _skews(acc)) * dt3
    fx[:, VEL, BA] = -r_dt
    fx[:, VEL, GRAV] = eye_dt

    fw = np.zeros((n, ERROR_DIM, 12))
    fw[:, THETA, 0:3] = -jr_dt
    fw[:, VEL, 3:6] = -r_dt
    fw[:, BG, 6:9] = eye_dt
    fw[:, BA, 9:12] = eye_dt

    out = state.copy()
    out.rotation, out.position, out.velocity = rots[-1], pos[-1], vel[-1]
    return out, fx, fw


def propagate(state: NavState, cov: np.ndarray, imu: ImuStream, noise: NoiseParams,
              t_start: float | None = None, t_end: float | None = None):
    """Advance mean and covariance through an IMU stream.

    Inputs are zero-order held: sample i applies over [t_i, t_{i+1}). When
    t_start / t_end are given (seconds), integration is clipped to that
    window, holding the latest sample at or before each sub-interval.
    Per-step dt must stay at or below MAX_IMU_DT.

    The window is one array pass: the step breaks, lengths and held rows
    come from one searchsorted over imu.t, and imu_steps computes every mean
    step and Jacobian F_k = fx[k] at once. The n covariance steps
    P <- F_k P F_k^T + G_k G_k^T, G_k = fw[k] diag(sqrt(q / dt_k)), are one
    closed form, symmetrized once: P_n = Phi P_0 Phi^T + W W^T, Phi = Psi_0 F_0
    and W = [Psi_0 G_0 ... Psi_{n-1} G_{n-1}], from the suffix products
    Psi_k = F_{n-1} ... F_{k+1}, Psi_{n-1} = I.
    """
    if not len(imu):
        raise ValueError("propagate needs at least one IMU sample")
    times = imu.t
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

    p = np.array(cov, dtype=float, copy=True)
    if t_end == t_start:
        return state.copy(), p
    inner = times[(times > t_start) & (times < t_end)]
    breaks = np.concatenate(([t_start], inner, [t_end]))
    dt = np.diff(breaks)
    too_long = np.flatnonzero(dt > MAX_IMU_DT + 1e-9)
    if len(too_long):
        raise ValueError(f"IMU step {dt[too_long[0]]:.4f}s exceeds {MAX_IMU_DT}s")

    held = np.maximum(np.searchsorted(times, breaks[:-1] + 1e-12) - 1, 0)
    x, fx, fw = imu_steps(state, imu.gyro[held], imu.accel[held], dt)
    # psi[k] = F_{n-1} ... F_{k+1}, with psi[n-1] = I.
    psi = np.empty_like(fx)
    psi[-1] = np.eye(ERROR_DIM)
    for k in range(len(dt) - 2, -1, -1):
        np.matmul(psi[k + 1], fx[k + 1], out=psi[k])
    # The densities are scaled by 1/dt because fw already carries dt.
    g = fw * np.sqrt(noise.diffusion() / dt[:, None])[:, None, :]
    w = (psi @ g).swapaxes(0, 1).reshape(ERROR_DIM, -1)
    phi = psi[0] @ fx[0]
    p = phi @ p @ phi.T + w @ w.T
    return x, 0.5 * (p + p.T)
