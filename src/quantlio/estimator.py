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
for every interval with positive mass; interval_surrogate clamps the rounded
value at 1, so R' >= sigma^2.

The host forms only intervals with alpha < beta <= 0, both finite: the
coprocessor folds each residual, so every z cell [lo, hi) is nonnegative,
and sigma is at least sqrt of the smallest normal float
(wire.check_scan_settings), so -hi/sigma is finite. There P is the
Phi-difference, taken in logs as log Phi(beta) + log1p(-Phi(alpha)/Phi(beta)).

log Phi(x) is log(e/2) with e = erfc(-x/sqrt 2), one math.erfc per element.
Below x = -37, where Phi(x) would leave the normal floating-point range, no
erfc is taken: log Phi(x) is the asymptotic series of Abramowitz & Stegun
26.2.12, -x^2/2 - log|x| - log sqrt(2 pi) + log(1 - 1/x^2 + 3/x^4 - ...),
cut after seven terms (the first omitted term, 13!!/x^14, is below 2e-17
there).

On 8e6 grid points over [-1e4, 0] and [-40, 0] log Phi agrees with
scipy.special.log_ndtr to 6.7e-16 relative (5 ULP); against 60-digit mpmath
its largest error is 4.2e-16 relative, scipy's 4.8e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .manifold import (
    ERROR_DIM, POS, ImuStream, NavState, NoiseParams, boxplus, propagate, rot_to_quat,
)
from .quantizer import Codebook, dequantize_point, dequantize_residual_key
from .wire import (
    FrameType, ObservationGroups, ProtocolOrderError, SessionConfig, WireFrame,
    decode_obs_float, decode_pose_req, encode_config, encode_frame,
    encode_pose_resp, encode_state_update, unpack_groups,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_VACUOUS = math.log(1e-300)
_SQRT_HALF = math.sqrt(0.5)
_TAIL = 37.0
# (2n-1)!! (-1)^n for n = 6 .. 1, the Horner order of the tail series in 1/x^2.
_TAIL_COEFFS = (10395.0, -945.0, 105.0, -15.0, 3.0, -1.0)


def _log_phi(x):
    return -0.5 * x * x - _LOG_SQRT_2PI


def log_norm_cdf(x):
    """log Phi(x) elementwise, from at most one erfc per element."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    tail = x < -_TAIL
    near = ~tail
    out[near] = np.log(0.5 * np.fromiter(map(math.erfc, (x[near] * -_SQRT_HALF).tolist()),
                                         dtype=float))
    t = -x[tail]
    with np.errstate(over="ignore"):
        u = 1.0 / (t * t)
        series = 0.0
        for c in _TAIL_COEFFS:
            series = u * (c + series)
        out[tail] = _log_phi(t) - np.log(t) + np.log1p(series)
    return out


def interval_moments(alpha, beta):
    """(lambda, omega, log mass) for standardized finite intervals, vectorized.
    Accuracy is stated for alpha < beta <= 0: right of the mode the
    Phi-difference holds only absolute accuracy."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all() and np.all(alpha < beta)):
        raise ValueError("interval requires finite bounds with alpha < beta")
    log_lo, log_hi = log_norm_cdf(np.array(np.broadcast_arrays(alpha, beta)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_p = log_hi + np.log1p(-np.exp(np.minimum(log_lo - log_hi, 0.0)))
        haz_a = np.exp(_log_phi(alpha) - log_p)
        haz_b = np.exp(_log_phi(beta) - log_p)
    lam = haz_a - haz_b
    omega = lam * lam + beta * haz_b - alpha * haz_a
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
    # On narrow cells rounding lifts omega past 1, its narrow-cell limit.
    omega = np.minimum(omega, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -sigma * lam / omega, sigma ** 2 / omega, valid


@lru_cache(maxsize=8)
def _surrogate_table(l_z: int, z_step: float, sigma: float):
    """interval_surrogate of every z cell [i z_step, (i + 1) z_step), i < 2^l_z,
    as read-only arrays indexed by the z index. A session's codebook and
    sigma are fixed, so qmap_update builds them once per session."""
    lo = np.arange(2 ** l_z) * z_step
    table = interval_surrogate(lo, lo + z_step, sigma)
    for column in table:
        column.setflags(write=False)
    return table


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
    # -u^T R [q]x, written as cross(q, R^T u) per row, in np.cross's order.
    (q0, q1, q2), (v0, v1, v2) = imu_pts.T, (normals @ state.rotation).T
    rows[:, 0], rows[:, 1], rows[:, 2] = q1 * v2 - q2 * v1, q2 * v0 - q0 * v2, q0 * v1 - q1 * v0
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
    z_cell, r_cell, valid_cell = _surrogate_table(cb.l_z, cb.z_step, sigma)
    z_idx = members[:, 0]
    keep = valid_cell[z_idx]
    centers = dequantize_residual_key(keys, cb).reshape(-1, 3)
    # Row-by-row dot products, the kernel a per-key np.linalg.norm runs.
    units = centers / np.sqrt(centers[:, None, :] @ centers[:, :, None])[:, 0]
    us = units[np.repeat(np.arange(len(keys)), counts)[keep]]
    z_eff, r_eff = z_cell[z_idx[keep]], r_cell[z_idx[keep]]
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
    """Unquantized point-to-plane update used by baseline-float.

    observations (a wire.PlaneObservations record) carry exact residuals z_i
    and normals; every measurement weighs in with variance sigma^2.
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
    """Owns the filter state and answers coprocessor frames in order; each
    pose request propagates over its window of the run's IMU stream."""

    state: NavState
    cov: np.ndarray
    config: SessionConfig
    noise: NoiseParams
    imu: ImuStream
    time: float = 0.0
    logs: list = field(default_factory=list)
    awaiting_obs: bool = False
    skipped_scans: int = 0

    def config_frame(self) -> bytes:
        return encode_frame(FrameType.CONFIG, int(self.time * 1e6),
                            encode_config(self.config))

    @property
    def extrinsic(self):
        return self.config.extrinsic_rotation, self.config.extrinsic_translation

    def handle_frame(self, frame: WireFrame) -> bytes:
        """Answer a POSE_REQ with POSE_RESP, and an observation frame (OBS_GROUPS
        or OBS_FLOAT) for the pending scan with STATE_UPDATE."""
        kind = FrameType(frame.frame_type)
        if kind == FrameType.POSE_REQ:
            return self._on_pose_req(frame)
        if kind not in (FrameType.OBS_GROUPS, FrameType.OBS_FLOAT):
            raise ProtocolOrderError(f"host cannot accept {kind.name}")
        if not self.awaiting_obs:
            raise ProtocolOrderError(f"{kind.name} arrived with no pending scan")
        prior_cov = self.cov
        if kind == FrameType.OBS_GROUPS:
            cb = self.config.codebook
            self.state, self.cov, _ = qmap_update(
                self.state, self.cov, unpack_groups(frame.payload, cb), cb,
                self.config.sigma, self.extrinsic)
        else:
            self.apply_float_observations(self.time, decode_obs_float(frame.payload))
        self._log_scan(prior_cov)
        self.awaiting_obs = False
        return encode_frame(FrameType.STATE_UPDATE, frame.timestamp_us,
                            encode_state_update((self.state.rotation, self.state.position)))

    def _on_pose_req(self, frame: WireFrame) -> bytes:
        t_prev_us, t_k_us = decode_pose_req(frame.payload)
        t_prev, t_k = t_prev_us * 1e-6, t_k_us * 1e-6
        if self.awaiting_obs:
            if t_k <= self.time:
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
                                         self.imu.window(self.time, t_k), self.noise,
                                         t_start=self.time, t_end=t_k)
        pose_k = (self.state.rotation, self.state.position)
        # Transform taking scan-start IMU coordinates into the end frame.
        delta_rot = pose_k[0].T @ pose_prev[0]
        delta_trans = pose_k[0].T @ (pose_prev[1] - pose_k[1])
        self.time = t_k
        self.awaiting_obs = True
        return encode_frame(FrameType.POSE_RESP, t_k_us,
                            encode_pose_resp((delta_rot, delta_trans), pose_prev))

    def apply_float_observations(self, t_k: float, observations) -> None:
        """The OBS_FLOAT update of the scan ending at t_k, by standard_update."""
        self.state, self.cov = standard_update(self.state, self.cov, observations,
                                               self.config.sigma, self.extrinsic)

    def _log_scan(self, prior_cov: np.ndarray) -> None:
        gap_eigs, post_eigs = np.linalg.eigvalsh(np.array((prior_cov - self.cov, self.cov)))
        self.logs.append(HostLog(
            t=self.time,
            position=self.state.position.copy(),
            quaternion=rot_to_quat(self.state.rotation),
            trace_cov=float(np.trace(self.cov)),
            contraction_ok=bool(gap_eigs.min() >= -1e-9),
            psd_ok=bool(post_eigs.min() >= -1e-9),
        ))
