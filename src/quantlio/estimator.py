"""Host-side quantized-MAP update.

Each transmitted measurement tells the host only that a nonnegative scalar
residual fell inside a known quantization interval. The exact per-interval
negative log-likelihood under Gaussian noise is replaced by the quadratic
surrogate whose gradient and curvature at the linearization point match it;
the surrogate's effective residual z' and variance R' then feed a standard
information-form Kalman update, executed in a single pass.

For a standardized interval [alpha, beta] (alpha = -hi/sigma,
beta = -lo/sigma) with mass P = Phi(beta) - Phi(alpha):

    lambda = (phi(alpha) - phi(beta)) / P
    omega  = lambda^2 + (beta phi(beta) - alpha phi(alpha)) / P
    R'     = sigma^2 / omega
    z'     = -sigma * lambda / omega

omega equals one minus the truncated-normal variance, so it stays in (0, 1]
for every interval with positive mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from .manifold import (
    BG, ERROR_DIM, POS, THETA,
    NavState, NoiseParams, boxplus, propagate, rot_to_quat,
)
from .quantizer import Codebook, dequantize_point, dequantize_residual_key
from .wire import (
    FrameType, ObservationGroups, ProtocolOrderError, SessionConfig, WireFrame,
    decode_pose_req, encode_config, encode_frame, encode_pose_resp,
    encode_state_update, unpack_groups,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_VACUOUS = math.log(1e-300)


def _log_phi(x):
    return -0.5 * x * x - _LOG_SQRT_2PI


def interval_moments(alpha, beta):
    """(lambda, omega, log mass) for standardized intervals, vectorized.

    Bounds may be infinite. The mass is evaluated in whichever tail keeps
    the log-domain difference well conditioned.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(alpha >= beta):
        raise ValueError("interval requires alpha < beta")

    log_lo = log_ndtr(alpha)   # log Phi(alpha)
    log_hi = log_ndtr(beta)
    log_qlo = log_ndtr(-alpha)  # log Q(alpha)
    log_qhi = log_ndtr(-beta)

    # Phi-difference is stable when the interval sits left of the mode,
    # Q-difference when it sits right; either works in between.
    use_upper = alpha + beta > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_low = np.exp(np.minimum(log_lo - log_hi, 0.0))
        ratio_up = np.exp(np.minimum(log_qhi - log_qlo, 0.0))
        log_p = np.where(use_upper,
                         log_qlo + np.log1p(-ratio_up),
                         log_hi + np.log1p(-ratio_low))

    with np.errstate(over="ignore", invalid="ignore"):
        haz_a = np.where(np.isfinite(alpha), np.exp(_log_phi(alpha) - log_p), 0.0)
        haz_b = np.where(np.isfinite(beta), np.exp(_log_phi(beta) - log_p), 0.0)
        a_term = np.where(np.isfinite(alpha), alpha * haz_a, 0.0)
        b_term = np.where(np.isfinite(beta), beta * haz_b, 0.0)
    lam = haz_a - haz_b
    omega = lam * lam + b_term - a_term
    return lam, omega, log_p


def interval_surrogate(lo, hi, sigma: float):
    """Effective residual z', variance R' and validity per interval [lo, hi]
    of residuals in meters, vectorized.

    An interval is vacuous (valid False, z' and R' meaningless) when its mass
    under N(0, sigma^2) is below 1e-300 or not finite, or omega is not
    positive.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lam, omega, log_p = interval_moments(-hi / sigma, -lo / sigma)
    valid = np.isfinite(log_p) & (log_p >= _LOG_VACUOUS) & (omega > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -sigma * lam / omega, sigma ** 2 / omega, valid


def point_plane_rows(state: NavState, lidar_points, normals, extrinsic) -> np.ndarray:
    """Measurement Jacobian rows over the error state, one per observation.

    Only the attitude and position blocks are nonzero: the position block is
    the plane normal, the attitude block reflects the lever arm of the
    IMU-frame point under a right (body-frame) rotation perturbation.
    """
    lidar_points = np.atleast_2d(np.asarray(lidar_points, dtype=float))
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    r_il, t_il = extrinsic
    imu_pts = lidar_points @ r_il.T + t_il
    rows = np.zeros((len(lidar_points), ERROR_DIM))
    rows[:, POS] = normals
    # -u^T R [q]x, written as cross(q, R^T u) per row.
    rt_u = normals @ state.rotation
    rows[:, THETA] = np.cross(imu_pts, rt_u)
    return rows


def _information_update(state: NavState, cov: np.ndarray, rows: np.ndarray,
                        z: np.ndarray, r_diag: np.ndarray):
    """Information-form Kalman step shared by both update flavors."""
    p_inv = np.linalg.inv(cov)
    ht_rinv = rows.T / r_diag
    s = ht_rinv @ rows + p_inv
    s = 0.5 * (s + s.T)
    post_cov = np.linalg.inv(s)
    post_cov = 0.5 * (post_cov + post_cov.T)
    delta = -post_cov @ (ht_rinv @ z)
    return boxplus(state, delta), post_cov


def qmap_update(state: NavState, cov: np.ndarray, groups: ObservationGroups,
                cb: Codebook, sigma: float, extrinsic):
    """Single-pass quantized-MAP update from a decoded observation group set.

    Per member the z interval comes from its z index, the direction from the
    group's dequantized residual-vector center (normalized), and the point
    from its reconstructed indices. Returns (state, covariance, info dict).
    """
    eig_min = float(np.linalg.eigvalsh(cov).min())
    if eig_min < -1e-9:
        raise ValueError(f"prior covariance is not PSD (min eigenvalue {eig_min:.2e})")

    keys, counts, members = groups.keys, groups.counts, groups.members
    # One surrogate per z index present (l_z may be 16).
    cells, cell_of = np.unique(members[:, 0], return_inverse=True)
    lo = cells * cb.z_step
    z_cell, r_cell, valid_cell = interval_surrogate(lo, lo + cb.z_step, sigma)
    keep = valid_cell[cell_of]
    centers = dequantize_residual_key(keys, cb).reshape(-1, 3)
    # Row-by-row dot products, the kernel a per-key np.linalg.norm runs.
    units = centers / np.sqrt(centers[:, None, :] @ centers[:, :, None])[:, 0]
    us = units[np.repeat(np.arange(len(keys)), counts)[keep]]
    z_eff, r_eff = z_cell[cell_of[keep]], r_cell[cell_of[keep]]
    vacuous = len(members) - len(z_eff)

    info = {"measurements": len(z_eff), "vacuous": vacuous, "updated": len(z_eff) > 0}
    if len(z_eff) == 0:
        return state.copy(), np.array(cov, copy=True), info

    pts = dequantize_point(members[keep, 1:], cb)
    rows = point_plane_rows(state, pts, us, extrinsic)
    out_state, out_cov = _information_update(state, cov, rows, z_eff, r_eff)
    return out_state, out_cov, info


def standard_update(state: NavState, cov: np.ndarray, observations,
                    sigma: float, extrinsic):
    """Unquantized point-to-plane update used by the float baseline.

    observations (a coprocessor PlaneObservations record) carry exact
    residuals z_i and normals; every measurement weighs in with variance
    sigma^2.
    """
    if len(observations) == 0:
        return state.copy(), np.array(cov, copy=True)
    rows = point_plane_rows(state, observations.point_lidar, observations.normal, extrinsic)
    r_diag = np.full(len(observations), sigma ** 2)
    return _information_update(state, cov, rows, observations.residual, r_diag)


@dataclass
class HostLog:
    """Per-scan record emitted by the host."""

    t: float
    position: np.ndarray
    quaternion: np.ndarray
    trace_cov: float
    contraction_ok: bool
    psd_ok: bool


@dataclass
class Host:
    """Owns the filter state and answers coprocessor frames in order."""

    state: NavState
    cov: np.ndarray
    config: SessionConfig
    noise: NoiseParams
    imu: list
    time: float = 0.0
    logs: list = field(default_factory=list)
    awaiting_obs: bool = False
    pending_t: float = 0.0
    skipped_scans: int = 0
    _imu_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Sample times, built once: each scan hands propagate only its window.
        self._imu_t = np.array([s.t_us for s in self.imu], dtype=np.int64) * 1e-6
        if np.any(np.diff(self._imu_t) <= 0.0):
            raise ValueError("IMU timestamps must strictly increase")

    def _imu_window(self, t_start: float, t_end: float) -> list:
        """Samples from the last at or before t_start through the first at
        or after t_end: all that propagate reads for that window."""
        lo = max(int(np.searchsorted(self._imu_t, t_start, side="right")) - 1, 0)
        hi = int(np.searchsorted(self._imu_t, t_end, side="left")) + 1
        return self.imu[lo:hi]

    def config_frame(self) -> bytes:
        return encode_frame(FrameType.CONFIG, int(self.time * 1e6),
                            encode_config(self.config))

    def handle_frame(self, frame: WireFrame) -> bytes:
        if frame.frame_type == FrameType.POSE_REQ:
            return self._on_pose_req(frame)
        if frame.frame_type == FrameType.OBS_GROUPS:
            return self._on_obs_groups(frame)
        raise ProtocolOrderError(f"host cannot accept {FrameType(frame.frame_type).name}")

    def _on_pose_req(self, frame: WireFrame) -> bytes:
        t_prev_us, t_k_us = decode_pose_req(frame.payload)
        t_prev, t_k = t_prev_us * 1e-6, t_k_us * 1e-6
        if self.awaiting_obs:
            if t_k <= self.pending_t:
                raise ProtocolOrderError("pose request repeats or precedes the pending scan")
            # The coprocessor dropped the scan; continue dead reckoning.
            self.skipped_scans += 1
            self.awaiting_obs = False
        if t_k <= self.time:
            raise ProtocolOrderError("pose request timestamp does not advance")
        if abs(t_prev - self.time) > 1e-6:
            raise ProtocolOrderError(
                f"pose request window starts at {t_prev:.6f}, host is at {self.time:.6f}")

        pose_prev = (self.state.rotation.copy(), self.state.position.copy())
        self.state, self.cov = propagate(self.state, self.cov,
                                         self._imu_window(self.time, t_k), self.noise,
                                         t_start=self.time, t_end=t_k)
        pose_k = (self.state.rotation, self.state.position)
        # Transform taking scan-start IMU coordinates into the end frame.
        delta_rot = pose_k[0].T @ pose_prev[0]
        delta_trans = pose_k[0].T @ (pose_prev[1] - pose_k[1])
        self.time = t_k
        self.awaiting_obs = True
        self.pending_t = t_k
        return encode_frame(FrameType.POSE_RESP, t_k_us,
                            encode_pose_resp((delta_rot, delta_trans), pose_prev))

    def _on_obs_groups(self, frame: WireFrame) -> bytes:
        if not self.awaiting_obs:
            raise ProtocolOrderError("observation groups arrived with no pending scan")
        groups = unpack_groups(frame.payload, self.config.codebook)
        extrinsic = (self.config.extrinsic_rotation, self.config.extrinsic_translation)
        prior_cov = self.cov
        self.state, self.cov, _ = qmap_update(
            self.state, self.cov, groups, self.config.codebook,
            self.config.sigma, extrinsic)
        self._log_scan(prior_cov)
        self.awaiting_obs = False
        return encode_frame(FrameType.STATE_UPDATE, frame.timestamp_us,
                            encode_state_update((self.state.rotation, self.state.position)))

    def apply_float_observations(self, t_k: float, observations) -> None:
        """Baseline path: exact residuals, no wire codec in between."""
        if not self.awaiting_obs:
            raise ProtocolOrderError("observations arrived with no pending scan")
        extrinsic = (self.config.extrinsic_rotation, self.config.extrinsic_translation)
        prior_cov = self.cov
        self.state, self.cov = standard_update(self.state, self.cov, observations,
                                               self.config.sigma, extrinsic)
        self._log_scan(prior_cov)
        self.awaiting_obs = False

    def _log_scan(self, prior_cov: np.ndarray) -> None:
        gap_eigs = np.linalg.eigvalsh(prior_cov - self.cov)
        post_eigs = np.linalg.eigvalsh(self.cov)
        self.logs.append(HostLog(
            t=self.time,
            position=self.state.position.copy(),
            quaternion=rot_to_quat(self.state.rotation),
            trace_cov=float(np.trace(self.cov)),
            contraction_ok=bool(gap_eigs.min() >= -1e-9),
            psd_ok=bool(post_eigs.min() >= -1e-9),
        ))
