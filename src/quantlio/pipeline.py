"""Experiment runner: synthetic world in, trajectories and metrics out.

One run wires the simulated sensors, the coprocessor stage and the host
estimator together in the selected mode:

    qlio            quantized groups over the wire, rq resampling on
    qlio-no-rqrs    quantized groups over the wire, resampling off
    baseline-float  exact float observations, no codec (224 bits each)
    baseline-int8   per-scan min-max int8 points, then the float pipeline

All four run the same scan loop. Transports: "inproc" pumps encoded frames
synchronously through the codec; "socket:PORT" runs the host behind a
localhost TCP socket. The float baselines have no wire encoding of their
observations, so they run in-process whatever the transport says.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .coprocessor import MODES, Coprocessor
from .estimator import Host
from .manifold import NavState, NoiseParams, quat_to_rot, so3_log
from .quantizer import Codebook, bits_per_measurement
from .simworld import (
    GRAVITY_W, LidarModel, build_scene, synth_imu, synth_scan, synth_trajectory,
)
from .wire import (
    FrameType, PeerClosed, SessionConfig, StreamTransport, WireFrame,
    decode_config, decode_frame, decode_pose_resp, decode_state_update,
    encode_frame, encode_pose_req, pack_groups, payload_bits,
    tcp_connect, tcp_listen,
)

FLOAT_OBS_BITS = 224  # 28-byte float32 observation: residual + vector + point
POINT_OBS_BITS = 96   # bare float32 point triple

DIVERGENCE_TRACE = 1e6
DIVERGENCE_POSITION = 1e4
SWEEP_DIVERGENCE_FACTOR = 10.0
# LiDAR-to-IMU extrinsic (rotation, translation) of every run; the CONFIG
# frame carries it to the coprocessor.
EXTRINSIC = (np.eye(3), np.array([0.05, 0.0, 0.08]))


@dataclass
class RunConfig:
    """Everything one experiment needs; deterministic given the seed."""

    scene: str = "box-room"
    scene_size: tuple | None = None
    trajectory: str = "figure-eight"
    duration: float = 30.0
    seed: int = 0
    codebook: Codebook = field(default_factory=Codebook)
    ds_0: float = 0.5
    alpha: float = 0.01
    sigma: float = 0.02
    mode: str = "qlio"
    transport: str = "inproc"
    out_dir: str | None = None
    imu_rate: float = 200.0
    noise: NoiseParams = field(default_factory=NoiseParams)
    lidar: LidarModel = field(default_factory=LidarModel)
    trajectory_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (self.transport == "inproc" or self.transport.startswith("socket:")):
            raise ValueError("transport must be 'inproc' or 'socket:PORT'")
        if not 0.0 < self.duration <= 300.0:
            raise ValueError("duration must be in (0, 300] s")
        if self.out_dir == "":
            raise ValueError("out_dir must not be empty")
        if not self.ds_0 > 0.0:
            raise ValueError("ds_0 must be positive")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.alpha >= 0.0:
            raise ValueError("alpha must be nonnegative")


@dataclass
class RunMetrics:
    """Aggregated outcomes of one run.

    Both reductions divide a float observation's size by bits_per_meas_assoc,
    the bits sent per associated measurement: reduction_vs_float_obs uses
    224 bits (a float32 residual, residual vector and point),
    reduction_vs_float_point 96 bits (a float32 point). The paper's abstract
    reports a 14.1x reduction in "per-observation residual data" without
    naming the float size it divides, so which ratio matches it is unsettled.
    """

    ate_trans: float
    ate_rot: float
    scans: int
    measurements_total: int
    measurements_assoc_total: int
    meas_per_scan: float
    assoc_success_rate: float
    bits_total: int
    bits_per_meas_sent: float
    bits_per_meas_assoc: float
    reduction_vs_float_obs: float
    reduction_vs_float_point: float
    diverged: bool
    cov_psd_ok: bool
    cov_contraction_ok: bool
    skipped_scans: int
    timings: dict = field(default_factory=dict)

    def deterministic_fields(self) -> tuple:
        """Everything except wall-clock timings, for reproducibility checks."""
        return (self.ate_trans, self.ate_rot, self.scans, self.measurements_total,
                self.measurements_assoc_total, self.meas_per_scan,
                self.assoc_success_rate, self.bits_total, self.bits_per_meas_sent,
                self.bits_per_meas_assoc, self.diverged, self.cov_psd_ok,
                self.cov_contraction_ok, self.skipped_scans)


def default_init_cov() -> np.ndarray:
    diag = np.concatenate([
        np.full(3, 1e-3 ** 2),   # attitude
        np.full(3, 1e-3 ** 2),   # position
        np.full(3, 1e-2 ** 2),   # velocity
        np.full(3, 1e-3 ** 2),   # gyro bias
        np.full(3, 1e-2 ** 2),   # accel bias
        np.full(3, 1e-4 ** 2),   # gravity
    ])
    return np.diag(diag)


class _SyncChannel:
    """Synchronous frame pump: every request produces its reply in place."""

    def __init__(self, host: Host):
        self.host = host

    def request(self, frame_bytes: bytes) -> WireFrame:
        return decode_frame(self.host.handle_frame(decode_frame(frame_bytes)))


class _SocketChannel:
    """Frame pump over a live transport; the host serves on its own thread."""

    def __init__(self, transport: StreamTransport):
        self.transport = transport

    def request(self, frame_bytes: bytes) -> WireFrame:
        self.transport.send_frame(frame_bytes)
        return self.transport.recv_frame()


def _host_serve(transport: StreamTransport, host: Host, errors: list) -> None:
    """Answer frames until the coprocessor closes the link between frames.

    Any other failure is recorded for the driving thread, and the link is
    closed so that its pending request fails at once instead of timing out.
    """
    try:
        transport.send_frame(host.config_frame())
        while True:
            transport.send_frame(host.handle_frame(transport.recv_frame()))
    except PeerClosed:
        pass
    except Exception as exc:  # surfaced to the driving thread
        errors.append(exc)
    finally:
        transport.close()


@contextmanager
def _open_channel(cfg: RunConfig, host: Host):
    """Yield (channel, decoded CONFIG frame) for the run's transport.

    The float baselines have no wire encoding of their observations and
    always run in-process. On a socket, an error the host thread recorded
    is raised when the channel closes.
    """
    if cfg.transport == "inproc" or not cfg.mode.startswith("qlio"):
        yield _SyncChannel(host), decode_frame(host.config_frame())
        return
    server = tcp_listen(int(cfg.transport.split(":", 1)[1]))
    errors: list = []

    def accept_and_serve():
        conn, _ = server.accept()
        _host_serve(StreamTransport(conn), host, errors)

    thread = threading.Thread(target=accept_and_serve, daemon=True)
    thread.start()
    client = tcp_connect(server.getsockname()[1])
    try:
        yield _SocketChannel(client), client.recv_frame()
    finally:
        client.close()
        thread.join(timeout=10)
        server.close()
        if errors:
            raise errors[0]


def _make_host(cfg: RunConfig, gt) -> Host:
    state = NavState()
    state.rotation, state.position = gt.pose_at(0.0)
    state.velocity = gt.profile.velocity(0.0)
    state.gravity = GRAVITY_W.copy()
    session = SessionConfig(
        codebook=cfg.codebook, ds_0=cfg.ds_0, alpha=cfg.alpha, sigma=cfg.sigma,
        extrinsic_rotation=EXTRINSIC[0], extrinsic_translation=EXTRINSIC[1])
    imu_seed = int(np.random.SeedSequence(cfg.seed).generate_state(1)[0])
    stream = synth_imu(gt, cfg.noise, rate_hz=cfg.imu_rate, seed=imu_seed)
    return Host(state=state, cov=default_init_cov(), config=session,
                noise=cfg.noise, imu=stream)


def _scan_schedule(cfg: RunConfig):
    period = cfg.lidar.period
    count = int(np.floor(cfg.duration / period + 1e-9))
    return [(k * period) for k in range(1, count + 1)]


def _diverged(host: Host) -> bool:
    pos = host.state.position
    return (not np.all(np.isfinite(pos))
            or np.linalg.norm(pos) > DIVERGENCE_POSITION
            or not np.isfinite(np.trace(host.cov))
            or np.trace(host.cov) > DIVERGENCE_TRACE)


def run(cfg: RunConfig):
    """Execute one configuration; returns (RunMetrics, trajectory rows).

    Trajectory rows are (t, px, py, pz, qw, qx, qy, qz, trace_cov) per scan.
    Outputs are written under cfg.out_dir when set.
    """
    t0 = _time.perf_counter()
    seeds = np.random.SeedSequence(cfg.seed)
    scan_seed = int(seeds.generate_state(2)[1])

    scene = build_scene(cfg.scene, cfg.scene_size, seed=cfg.seed)
    gt = synth_trajectory(cfg.trajectory, cfg.duration, **cfg.trajectory_params)
    clearance = float(scene.clearance(gt.positions).min())
    if clearance < cfg.lidar.min_range:
        raise ValueError(
            f"the {cfg.trajectory} trajectory comes {clearance:.2f} m from the {cfg.scene} "
            f"walls (negative: outside), under the LiDAR minimum range {cfg.lidar.min_range} m")
    host = _make_host(cfg, gt)
    sim_time = _time.perf_counter() - t0

    stats = _run_scans(cfg, scene, gt, host, scan_seed)
    rows = _trajectory_rows(host)
    metrics = _finalize(gt, host, rows, stats, sim_time, t0)
    if cfg.out_dir is not None:
        _write_outputs(cfg, gt, metrics, rows, stats)
    return metrics, rows


def _run_scans(cfg: RunConfig, scene, gt, host: Host, scan_seed):
    """The scan loop of every mode.

    Per scan the coprocessor requests the prior pose, turns the scan into
    observations, and inserts its points into the map at the posterior pose.
    The qlio modes send groups in an OBS_GROUPS frame; the float baselines
    hand their observations straight to the host.
    """
    totals = {"bits": 0, "sent": 0, "assoc": 0, "assoc_input": 0,
              "coproc_time": 0.0, "host_time": 0.0, "scan_bits": [],
              "scan_members": []}
    with _open_channel(cfg, host) as (channel, config_frame):
        session = decode_config(config_frame.payload)
        coproc = Coprocessor(
            cb=session.codebook,
            extrinsic=(session.extrinsic_rotation, session.extrinsic_translation),
            ds_0=session.ds_0, alpha=session.alpha, mode=cfg.mode)
        t_prev = 0.0
        for t_k in _scan_schedule(cfg):
            pts, times = synth_scan(scene, gt, cfg.lidar, t_k,
                                    seed=scan_seed ^ int(t_k * 1e6),
                                    extrinsic=EXTRINSIC)
            tw = _time.perf_counter()
            req = encode_frame(FrameType.POSE_REQ, int(t_k * 1e6),
                               encode_pose_req(int(t_prev * 1e6), int(t_k * 1e6)))
            resp = channel.request(req)
            totals["host_time"] += _time.perf_counter() - tw

            tc = _time.perf_counter()
            scan_delta, pose_prev = decode_pose_resp(resp.payload)
            if cfg.mode.startswith("qlio"):
                groups, _, stats = coproc.process_scan(
                    pts, times, t_prev, t_k, scan_delta, pose_prev)
                payload = pack_groups(groups, session.codebook)
                obs_frame = encode_frame(FrameType.OBS_GROUPS, int(t_k * 1e6), payload)
                totals["coproc_time"] += _time.perf_counter() - tc
                tw = _time.perf_counter()
                update = channel.request(obs_frame)
                totals["host_time"] += _time.perf_counter() - tw
                pose_post = decode_state_update(update.payload)
                bits = 16 + payload_bits(groups, session.codebook)
            else:
                observations, stats = coproc.observe(
                    pts, times, t_prev, t_k, scan_delta, pose_prev)
                totals["coproc_time"] += _time.perf_counter() - tc
                tw = _time.perf_counter()
                host.apply_float_observations(t_k, observations)
                totals["host_time"] += _time.perf_counter() - tw
                pose_post = (host.state.rotation.copy(), host.state.position.copy())
                if cfg.mode == "baseline-float":
                    bits = FLOAT_OBS_BITS * len(observations)
                else:  # int8 levels plus min/max side data; an empty scan sends none
                    bits = 24 * stats["points_in"] + 6 * 32 if stats["points_in"] else 0
            coproc.integrate_posterior(pose_post)

            totals["bits"] += bits
            totals["scan_bits"].append(bits)
            totals["scan_members"].append(stats["observations_sent"])
            totals["sent"] += stats["observations_sent"]
            totals["assoc"] += stats["observations_raw"]
            totals["assoc_input"] += stats["points_assoc_input"]
            t_prev = t_k
            if _diverged(host):
                break
    return totals


def _trajectory_rows(host: Host) -> np.ndarray:
    rows = []
    for log in host.logs:
        rows.append((log.t, *log.position, *log.quaternion, log.trace_cov))
    return np.array(rows) if rows else np.empty((0, 9))


def _finalize(gt, host: Host, rows, stats, sim_time, t0) -> RunMetrics:
    diverged = _diverged(host)
    if len(rows) >= 2 and not diverged:
        gt_poses = [gt.pose_at(t) for t in rows[:, 0]]
        ate_trans, ate_rot = ate(rows[:, 1:4], rows[:, 4:8],
                                 np.array([p for _, p in gt_poses]),
                                 [r for r, _ in gt_poses])
    else:
        ate_trans, ate_rot = float("inf"), float("inf")
        diverged = True

    sent = stats["sent"]
    scans = len(stats["scan_bits"])
    bits_sent = stats["bits"] / sent if sent else float("inf")
    bits_assoc = stats["bits"] / stats["assoc"] if stats["assoc"] else float("inf")
    return RunMetrics(
        ate_trans=float(ate_trans),
        ate_rot=float(ate_rot),
        scans=scans,
        measurements_total=sent,
        measurements_assoc_total=stats["assoc"],
        meas_per_scan=sent / scans if scans else 0.0,
        assoc_success_rate=(stats["assoc"] / stats["assoc_input"]
                            if stats["assoc_input"] else 0.0),
        bits_total=stats["bits"],
        bits_per_meas_sent=bits_sent,
        bits_per_meas_assoc=bits_assoc,
        reduction_vs_float_obs=FLOAT_OBS_BITS / bits_assoc if sent else 0.0,
        reduction_vs_float_point=POINT_OBS_BITS / bits_assoc if sent else 0.0,
        diverged=diverged,
        cov_psd_ok=all(log.psd_ok for log in host.logs),
        cov_contraction_ok=all(log.contraction_ok for log in host.logs),
        skipped_scans=host.skipped_scans,
        timings={"sim_setup": sim_time,
                 "coprocessor": stats["coproc_time"],
                 "host": stats["host_time"],
                 "total": _time.perf_counter() - t0},
    )


def ate(est_p, est_q, gt_p, gt_rot):
    """Absolute trajectory error after rigid (no-scale) alignment.

    Pose i of the estimate (position, unit quaternion w, x, y, z) pairs with
    pose i of the truth (position, rotation matrix). Returns (translational
    RMSE in meters, rotational RMSE in radians).
    """
    a = np.asarray(est_p, dtype=float)
    b = np.asarray(gt_p, dtype=float)
    if not len(a) == len(est_q) == len(b) == len(gt_rot):
        raise ValueError("estimate and truth differ in pose count")
    if len(a) < 2:
        raise ValueError("fewer than two poses")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov = (b - mu_b).T @ (a - mu_a) / len(a)
    u, _, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        s[2, 2] = -1.0
    rot_align = u @ s @ vt
    t_align = mu_b - rot_align @ mu_a

    resid = (a @ rot_align.T + t_align) - b
    trans_rmse = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))

    angles = []
    for q, r_gt in zip(est_q, gt_rot):
        r_err = (rot_align @ quat_to_rot(np.asarray(q))) @ np.asarray(r_gt).T
        angles.append(np.linalg.norm(so3_log(r_err)))
    rot_rmse = float(np.sqrt(np.mean(np.square(angles))))
    return trans_rmse, rot_rmse


def parse_sweep_expr(expr: str) -> dict:
    """Parse 'lp=3..12,ln=3,lz=2' into {lp: range-list, ...}.

    Raises ValueError for an unknown or repeated field, for a range whose
    end lies below its start, and for a bit count a Codebook refuses.
    """
    out = {}
    for part in expr.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("lp", "ln", "lz"):
            raise ValueError(f"unknown sweep field {key!r}")
        if key in out:
            raise ValueError(f"sweep field {key!r} given twice")
        value = value.strip()
        if ".." in value:
            lo, hi = (int(v) for v in value.split("..", 1))
            if hi < lo:
                raise ValueError(f"sweep range {key}={value} is empty")
            out[key] = list(range(lo, hi + 1))
        else:
            out[key] = [int(value)]
    for key in ("lp", "ln", "lz"):
        out.setdefault(key, [getattr(Codebook(), f"l_{key[1]}")])
        for value in out[key]:
            Codebook(**{f"l_{key[1]}": value})
    return out


def sweep(base: RunConfig, lp_values, ln_values, lz_values):
    """Paired runs (resampling on and off) per codebook combination.

    A shared baseline-float run anchors the divergence flag: a combination
    is marked diverged when its error exceeds SWEEP_DIVERGENCE_FACTOR times
    the baseline or the estimator blew up. Returns a list of row dicts.
    """
    # The runs write no reports; they would overwrite one another.
    base = replace(base, out_dir=None)
    rows = []
    baseline = replace(base, mode="baseline-float")
    base_metrics, _ = run(baseline)
    for lp in lp_values:
        for ln in ln_values:
            for lz in lz_values:
                cb = replace(base.codebook, l_p=lp, l_n=ln, l_z=lz)
                row = {"l_p": lp, "l_n": ln, "l_z": lz,
                       "bits_formula": bits_per_measurement(cb),
                       "ate_baseline": base_metrics.ate_trans}
                for label, mode in (("rqrs", "qlio"), ("norqrs", "qlio-no-rqrs")):
                    m, _ = run(replace(base, mode=mode, codebook=cb))
                    flagged = (m.diverged or not np.isfinite(m.ate_trans)
                               or m.ate_trans > SWEEP_DIVERGENCE_FACTOR * base_metrics.ate_trans)
                    row[f"ate_{label}"] = m.ate_trans
                    row[f"ate_rot_{label}"] = m.ate_rot
                    row[f"bits_per_meas_sent_{label}"] = m.bits_per_meas_sent
                    row[f"bits_per_meas_assoc_{label}"] = m.bits_per_meas_assoc
                    row[f"diverged_{label}"] = flagged
                rows.append(row)
    return rows


def _write_outputs(cfg: RunConfig, gt, metrics: RunMetrics, rows, stats) -> None:
    import os

    os.makedirs(cfg.out_dir, exist_ok=True)
    header = "t,px,py,pz,qw,qx,qy,qz,trace_cov"
    np.savetxt(os.path.join(cfg.out_dir, "trajectory.csv"), rows,
               delimiter=",", header=header, comments="")
    gt.to_csv(os.path.join(cfg.out_dir, "ground_truth.csv"))

    scan_rows = np.column_stack([
        np.arange(1, len(stats["scan_bits"]) + 1),
        stats["scan_bits"], stats["scan_members"]])
    np.savetxt(os.path.join(cfg.out_dir, "scan_bits.csv"), scan_rows,
               delimiter=",", header="scan,payload_bits,measurements",
               comments="", fmt="%d")

    with open(os.path.join(cfg.out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        names, values = [], []
        for name, value in vars(metrics).items():
            if name == "timings":
                for key, sec in value.items():
                    names.append(f"time_{key}_s")
                    values.append(f"{sec:.3f}")
            else:
                names.append(name)
                values.append(str(value))
        fh.write(",".join(names) + "\n")
        fh.write(",".join(values) + "\n")


def write_sweep_csv(rows, path) -> None:
    if not rows:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("")
        return
    keys = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in keys) + "\n")
