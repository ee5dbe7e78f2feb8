"""Experiment runner: synthetic world in, trajectories and metrics out.

One run wires the simulated sensors, the coprocessor stage and the host
estimator together in the selected mode:

    qlio            quantized groups in OBS_GROUPS, rq resampling on
    qlio-no-rqrs    quantized groups in OBS_GROUPS, resampling off
    baseline-float  float32 observations in OBS_FLOAT (224 bits each)

All three run the same scan loop and send their observations to the host
in a frame. Transports: "inproc" pumps encoded frames synchronously
through the codec; "socket:PORT" runs the host behind a localhost TCP
socket.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .coprocessor import MODES, Coprocessor
from .estimator import Host
from .manifold import NavState, NoiseParams, quat_to_rot
from .quantizer import Codebook, bits_per_measurement
from .simworld import (
    GRAVITY_W, LidarModel, build_scene, synth_imu, synth_scan, synth_trajectory,
)
from .wire import (
    OBS_FLOAT_ROW_BYTES, FrameType, PeerClosed, SessionConfig, StreamTransport,
    WireFrame, check_scan_settings, decode_config, decode_frame, decode_pose_resp,
    decode_state_update, encode_frame, encode_obs_float, encode_pose_req, pack_groups,
    payload_bits, tcp_connect, tcp_listen,
)

FLOAT_OBS_BITS = 8 * OBS_FLOAT_ROW_BYTES  # an OBS_FLOAT row: residual, normal, point
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
    noise: NoiseParams = field(default_factory=NoiseParams)
    lidar: LidarModel = field(default_factory=LidarModel)
    trajectory_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        kind, _, port = self.transport.partition(":")
        if not (self.transport == "inproc" or kind == "socket" and port.isascii()
                and port.isdigit() and int(port) <= 65535):
            raise ValueError("transport must be 'inproc' or 'socket:PORT' with a "
                             "decimal PORT in [0, 65535]")
        # Under one LiDAR period the schedule holds no scan.
        if not (0.0 < self.duration <= 300.0 and _scan_schedule(self)):
            raise ValueError(f"duration must be in (0, 300] s and span at least one "
                             f"LiDAR period ({self.lidar.period:g} s)")
        if self.out_dir == "":
            raise ValueError("out_dir must not be empty")
        check_scan_settings(self.ds_0, self.alpha, self.sigma)


@dataclass
class RunMetrics:
    """Aggregated outcomes of one run. ate_trans (m) and ate_rot (rad) are
    ate's RMS errors in the ground-truth frame, with no alignment.

    In every mode bits_total is the bits of the observation payloads the
    host decoded: 16 + payload_bits per OBS_GROUPS frame, 8 per OBS_FLOAT
    payload byte.

    Both reductions divide a float observation's size by bits_per_meas_assoc,
    the bits sent per associated measurement: reduction_vs_float_obs uses
    224 bits (a float32 residual, residual vector and point),
    reduction_vs_float_point 96 bits (a float32 point). The paper's abstract
    reports a 14.1x reduction in "per-observation residual data" without
    naming the float size it divides, so which ratio matches it is unsettled.

    timings holds wall seconds (sim_setup, coprocessor, host: the scan
    loop's waits on channel requests, total) and host_cpu, the CPU seconds
    the serving thread spent in Host.handle_frame; host minus host_cpu is
    what the link and the frame codec added to the host's share.
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
        """Everything except wall-clock timings, for reproducibility checks,
        in the order DETERMINISTIC_FIELDS names them."""
        return tuple(getattr(self, name) for name in DETERMINISTIC_FIELDS)


DETERMINISTIC_FIELDS = (
    "ate_trans", "ate_rot", "scans", "measurements_total",
    "measurements_assoc_total", "meas_per_scan", "assoc_success_rate",
    "bits_total", "bits_per_meas_sent", "bits_per_meas_assoc", "diverged",
    "cov_psd_ok", "cov_contraction_ok", "skipped_scans",
)


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


def _answer(host: Host, frame: WireFrame, clock) -> bytes:
    """host.handle_frame(frame), adding the CPU seconds it took on the calling
    thread to clock.host_cpu."""
    start = _time.thread_time()
    reply = host.handle_frame(frame)
    clock.host_cpu += _time.thread_time() - start
    return reply


class _SyncChannel:
    """Synchronous frame pump: the host answers each frame of a request in
    place, in order."""

    def __init__(self, host: Host):
        self.host = host
        self.host_cpu = 0.0

    def request(self, *frames: bytes) -> list[WireFrame]:
        """One decoded reply per frame, in the frames' order."""
        return [decode_frame(_answer(self.host, decode_frame(frame), self))
                for frame in frames]


class _SocketChannel:
    """Frame pump over a live transport; the host serves on its own thread
    and adds its CPU time to host_cpu before each of its writes."""

    def __init__(self, transport: StreamTransport):
        self.transport = transport
        self.host_cpu = 0.0

    def request(self, *frames: bytes) -> list[WireFrame]:
        """Send the frames in one write; one reply per frame, in their order."""
        self.transport.send_frame(b"".join(frames))
        return [self.transport.recv_frame() for _ in frames]


def _host_serve(transport: StreamTransport, host: Host, channel: _SocketChannel,
                errors: list) -> None:
    """Answer frames until the coprocessor closes the link between frames.

    The host handles every frame already received before it writes, so a
    request's frames sent in one write are answered in one write; a request
    that arrives split is answered in two, with the same replies.

    Any other failure is recorded for the driving thread, and the link is
    closed so that its pending request fails at once instead of timing out.
    """
    try:
        transport.send_frame(host.config_frame())
        while True:
            replies = [_answer(host, transport.recv_frame(), channel)]
            while transport.frame_pending():
                replies.append(_answer(host, transport.recv_frame(), channel))
            transport.send_frame(b"".join(replies))
    except PeerClosed:
        pass
    except Exception as exc:  # surfaced to the driving thread
        errors.append(exc)
    finally:
        transport.close()


@contextmanager
def _open_channel(cfg: RunConfig, host: Host):
    """Yield (channel, decoded CONFIG frame) for the run's transport, in
    every mode. On a socket, an error the host thread recorded is raised
    when the channel closes.
    """
    if cfg.transport == "inproc":
        yield _SyncChannel(host), decode_frame(host.config_frame())
        return
    server = tcp_listen(int(cfg.transport.split(":", 1)[1]))
    errors: list = []
    # The listening socket completes the connection before it is accepted,
    # so the channel exists before the host thread that adds to it.
    client = tcp_connect(server.getsockname()[1])
    channel = _SocketChannel(client)

    def accept_and_serve():
        conn, _ = server.accept()
        _host_serve(StreamTransport(conn), host, channel, errors)

    thread = threading.Thread(target=accept_and_serve, daemon=True)
    thread.start()
    try:
        yield channel, client.recv_frame()
    finally:
        client.close()
        thread.join(timeout=10)
        server.close()
        if errors:
            raise errors[0]


def _make_host(cfg: RunConfig, gt) -> Host:
    state = NavState()
    state.rotation, state.position = gt.pose_at(0.0)
    state.velocity = gt.velocities[0].copy()
    state.gravity = GRAVITY_W.copy()
    session = SessionConfig(
        codebook=cfg.codebook, ds_0=cfg.ds_0, alpha=cfg.alpha, sigma=cfg.sigma,
        extrinsic_rotation=EXTRINSIC[0], extrinsic_translation=EXTRINSIC[1])
    imu_seed = int(np.random.SeedSequence(cfg.seed).generate_state(1)[0])
    return Host(state=state, cov=default_init_cov(), config=session,
                noise=cfg.noise, imu=synth_imu(gt, cfg.noise, seed=imu_seed))


def _scan_schedule(cfg: RunConfig):
    period = cfg.lidar.period
    count = int(np.floor(cfg.duration / period + 1e-9))
    return [(k * period) for k in range(1, count + 1)]


def _diverged(position, cov_trace: float = 0.0) -> bool:
    """Past a DIVERGENCE_ bound or not finite, as a NumPy bool like RunMetrics'."""
    return np.logical_not(np.linalg.norm(position) <= DIVERGENCE_POSITION
                          and cov_trace <= DIVERGENCE_TRACE)


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
    if not clearance >= cfg.lidar.min_range:
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


def _pose_req(t_prev: float, t_k: float) -> bytes:
    """The POSE_REQ frame of the scan window (t_prev, t_k]."""
    return encode_frame(FrameType.POSE_REQ, int(t_k * 1e6),
                        encode_pose_req(int(t_prev * 1e6), int(t_k * 1e6)))


def _run_scans(cfg: RunConfig, scene, gt, host: Host, scan_seed):
    """The scan loop of every mode; the host is only reached through frames.

    Per scan k the coprocessor turns the scan into observations at the prior
    pose of its POSE_RESP and sends them in one frame (OBS_GROUPS in the qlio
    modes, OBS_FLOAT in baseline-float), followed in the same request by the
    POSE_REQ of scan k + 1, whose window ends at the next time of
    _scan_schedule. The replies are the STATE_UPDATE of scan k, at whose
    posterior pose the coprocessor inserts its points into the map, and the
    POSE_RESP of scan k + 1: one exchange per scan. Only the first POSE_REQ
    and the last observation frame travel alone. A diverged posterior
    position ends the loop early; the host then holds the prior of a scan
    that is never observed.
    """
    totals = {"bits": 0, "sent": 0, "assoc": 0, "assoc_input": 0,
              "coproc_time": 0.0, "host_time": 0.0, "scan_bits": [],
              "scan_members": []}
    schedule = _scan_schedule(cfg)
    with _open_channel(cfg, host) as (channel, config_frame):
        session = decode_config(config_frame.payload)
        coproc = Coprocessor(
            cb=session.codebook,
            extrinsic=(session.extrinsic_rotation, session.extrinsic_translation),
            ds_0=session.ds_0, alpha=session.alpha, mode=cfg.mode)
        t_prev, pose_resp = 0.0, []
        for k, t_k in enumerate(schedule):
            pts, times = synth_scan(scene, gt, cfg.lidar, t_k,
                                    seed=scan_seed ^ int(t_k * 1e6),
                                    extrinsic=EXTRINSIC)
            if k == 0:  # the first POSE_REQ travels alone
                tw = _time.perf_counter()
                pose_resp = channel.request(_pose_req(t_prev, t_k))
                totals["host_time"] += _time.perf_counter() - tw

            tc = _time.perf_counter()
            scan_delta, pose_prev = decode_pose_resp(pose_resp[0].payload)
            if cfg.mode.startswith("qlio"):
                groups, _, stats = coproc.process_scan(
                    pts, times, t_prev, t_k, scan_delta, pose_prev)
                obs_type, payload = FrameType.OBS_GROUPS, pack_groups(groups, session.codebook)
                bits = 16 + payload_bits(groups, session.codebook)
            else:
                observations, stats = coproc.observe(
                    pts, times, t_prev, t_k, scan_delta, pose_prev)
                obs_type, payload = FrameType.OBS_FLOAT, encode_obs_float(observations)
                bits = 8 * len(payload)
            frames = [encode_frame(obs_type, int(t_k * 1e6), payload)]
            frames += [_pose_req(t_k, t_next) for t_next in schedule[k + 1:k + 2]]
            totals["coproc_time"] += _time.perf_counter() - tc
            tw = _time.perf_counter()
            update, *pose_resp = channel.request(*frames)
            totals["host_time"] += _time.perf_counter() - tw
            pose_post = decode_state_update(update.payload)
            coproc.integrate_posterior(pose_post)

            totals["bits"] += bits
            totals["scan_bits"].append(bits)
            totals["scan_members"].append(stats["observations_sent"])
            totals["sent"] += stats["observations_sent"]
            totals["assoc"] += stats["observations_raw"]
            totals["assoc_input"] += stats["points_assoc_input"]
            t_prev = t_k
            if _diverged(pose_post[1]):
                break
        totals["host_cpu"] = channel.host_cpu
    return totals


def _trajectory_rows(host: Host) -> np.ndarray:
    rows = []
    for log in host.logs:
        rows.append((log.t, *log.position, *log.quaternion, log.trace_cov))
    return np.array(rows) if rows else np.empty((0, 9))


def _finalize(gt, host: Host, rows, stats, sim_time, t0) -> RunMetrics:
    # Read from the last posterior: after a divergence break the host's own
    # state is the prior of the next scan, which no observation reached.
    diverged = not len(rows) or _diverged(rows[-1, 1:4], rows[-1, 8])
    if not diverged:
        gt_rots, gt_positions = gt.poses_at(rows[:, 0])
        ate_trans, ate_rot = ate(rows[:, 1:4], rows[:, 4:8], gt_positions, gt_rots)
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
                 "host_cpu": stats["host_cpu"],
                 "total": _time.perf_counter() - t0},
    )


def ate(est_p, est_q, gt_p, gt_rot):
    """Absolute trajectory error in the ground-truth frame, with no alignment:
    the filter starts at the true pose, so an alignment would only hide error.
    Pose i of the estimate (position, unit quaternion w, x, y, z) pairs with
    pose i of the truth (position, rotation matrix). Returns (RMS of
    est_p - gt_p in meters, RMS of the angle of R_gt^T R_est in radians).
    """
    est_p, gt_p = np.asarray(est_p, dtype=float), np.asarray(gt_p, dtype=float)
    if not len(est_p) == len(est_q) == len(gt_p) == len(gt_rot):
        raise ValueError("estimate and truth differ in pose count")
    if len(est_p) == 0:
        raise ValueError("no poses")
    err = np.swapaxes(np.asarray(gt_rot, dtype=float), 1, 2) @ [quat_to_rot(q) for q in est_q]
    # Angle from its sine (the skew part) and cosine (the trace): exact near
    # zero, where an arccos of the trace reads 0 below about 1e-8 rad.
    sin2 = np.linalg.norm(err - np.swapaxes(err, 1, 2), axis=(1, 2)) / np.sqrt(2.0)
    angles = np.arctan2(sin2, np.trace(err, axis1=1, axis2=2) - 1.0)
    return (float(np.sqrt(np.mean(np.sum((est_p - gt_p) ** 2, axis=1)))),
            float(np.sqrt(np.mean(angles ** 2))))


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
