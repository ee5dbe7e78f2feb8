import threading
import time

import numpy as np
import pytest

from quantlio import estimator, pipeline, wire
from quantlio.manifold import rot_to_quat, so3_exp
from quantlio.simworld import synth_trajectory
from quantlio.voxelmap import VoxelMap
from quantlio.wire import HEADER, BadCrc, FrameType, ObservationGroups, TruncatedFrame
from test_manifold import loop_propagate


def short_run():
    return pipeline.run(pipeline.RunConfig(duration=2.0, mode="baseline-float",
                                           transport="inproc", seed=3))


def record_knn_calls(monkeypatch):
    """Wrap VoxelMap.knn_batch; the returned list collects (map, queries)
    per call."""
    calls = []
    batch = VoxelMap.knn_batch

    def recording(vmap, queries, k):
        calls.append((vmap, np.array(queries)))
        return batch(vmap, queries, k)

    monkeypatch.setattr(VoxelMap, "knn_batch", recording)
    return calls


def test_run_is_deterministic_and_real_map_knn_is_exact(monkeypatch):
    # Record the map and the queries of every kNN pass of a short run.
    calls = record_knn_calls(monkeypatch)
    metrics, rows = short_run()
    monkeypatch.undo()

    assert metrics.scans == 20 and len(rows) == 20
    assert metrics.measurements_total > 0
    vmap = calls[-1][0]
    queries = np.concatenate([q for _, q in calls[-3:]])
    got = vmap.knn_batch(queries, 5)
    assert all(len(g) == 5 for g in got)
    # Brute-force 5-NN within the search radius: einsum distances, ties
    # broken by lexicographic coordinates.
    stored = vmap.points
    for q, g in zip(queries, got):
        diff = stored - q
        d2 = np.einsum("ij,ij->i", diff, diff)
        keep = d2 <= vmap.search_radius ** 2
        near = stored[keep]
        order = np.lexsort((near[:, 2], near[:, 1], near[:, 0], d2[keep]))[:5]
        np.testing.assert_array_equal(g, near[order])

    again, rows_again = short_run()
    assert again.deterministic_fields() == metrics.deterministic_fields()
    assert rows_again.tobytes() == rows.tobytes()


def test_batched_propagation_tracks_the_step_loop_end_to_end(monkeypatch):
    # room-qlio's scene, path and mode, 2 s in-process: the host's batched
    # propagation against the per-step loop it replaced.
    cfg = pipeline.RunConfig(scene="box-room", trajectory="figure-eight", duration=2.0,
                             seed=9, mode="qlio", transport="inproc",
                             trajectory_params={"cycles": 1})
    metrics, rows = pipeline.run(cfg)
    monkeypatch.setattr(estimator, "propagate", loop_propagate)
    loop_metrics, loop_rows = pipeline.run(cfg)
    assert metrics.scans == loop_metrics.scans == 20
    assert rows.shape == loop_rows.shape
    assert np.abs(rows - loop_rows).max() <= 1e-9
    assert metrics.bits_total == loop_metrics.bits_total

def test_socket_transport_matches_inproc():
    # Both channels hand back decoded reply frames; in every mode the session
    # over a localhost TCP link must end exactly where the in-process pump
    # does.
    for mode in pipeline.MODES:
        runs = [pipeline.run(pipeline.RunConfig(duration=0.5, mode=mode, transport=t, seed=4))
                for t in ("inproc", "socket:0")]
        (inproc, rows), (socket, rows_socket) = runs
        assert inproc.scans == 5 and inproc.bits_total > 0
        assert socket.deterministic_fields() == inproc.deterministic_fields()
        assert rows_socket.tobytes() == rows.tobytes()


def recorded_run(monkeypatch, cfg):
    """run(cfg), plus the point count of every simulated scan, the (groups,
    payload) of every OBS_GROUPS payload packed and the (row count, payload)
    of every OBS_FLOAT payload encoded."""
    points, packed, floats = [], [], []
    synth, pack, encode = pipeline.synth_scan, pipeline.pack_groups, pipeline.encode_obs_float

    def synth_scan(*args, **kwargs):
        pts, times = synth(*args, **kwargs)
        points.append(len(pts))
        return pts, times

    def pack_groups(groups, cb):
        payload = pack(groups, cb)
        packed.append((groups, payload))
        return payload

    def encode_obs_float(observations):
        payload = encode(observations)
        floats.append((len(observations), payload))
        return payload

    monkeypatch.setattr(pipeline, "synth_scan", synth_scan)
    monkeypatch.setattr(pipeline, "pack_groups", pack_groups)
    monkeypatch.setattr(pipeline, "encode_obs_float", encode_obs_float)
    metrics, rows = pipeline.run(cfg)
    monkeypatch.undo()
    return metrics, rows, points, packed, floats


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_every_mode_is_deterministic_and_counts_its_bits(monkeypatch, mode):
    cfg = pipeline.RunConfig(duration=1.0, mode=mode, seed=5)
    metrics, rows, points, packed, floats = recorded_run(monkeypatch, cfg)
    again, rows_again = pipeline.run(cfg)
    assert again.deterministic_fields() == metrics.deterministic_fields()
    assert rows_again.tobytes() == rows.tobytes()
    assert metrics.scans == len(points) == 10 and metrics.measurements_total > 0

    cb = cfg.codebook
    assert len(packed) == (metrics.scans if mode.startswith("qlio") else 0)
    assert len(floats) == (0 if mode.startswith("qlio") else metrics.scans)
    if mode == "baseline-float":
        # baseline-float bills its OBS_FLOAT payloads: seven float32 per
        # measurement and nothing else.
        assert pipeline.FLOAT_OBS_BITS == 224
        assert metrics.bits_total == pipeline.FLOAT_OBS_BITS * metrics.measurements_total
        assert all(len(payload) == 28 * n for n, payload in floats)
        assert sum(n for n, _ in floats) == metrics.measurements_total
    else:
        # A 16-bit group count, then per group the key and a 16-bit member
        # count, then the members; the payload pads to whole bytes.
        bits = 0
        for groups, payload in packed:
            stream = sum(3 * cb.l_n + 16 + len(g.members) * (cb.l_z + 3 * cb.l_p)
                         for g in groups)
            assert len(payload) == 2 + -(-stream // 8)
            bits += 16 + stream
        assert metrics.bits_total == bits
        assert sum(len(g.members) for groups, _ in packed for g in groups) \
            == metrics.measurements_total
    if mode == "qlio":
        assert metrics.measurements_total < metrics.measurements_assoc_total
    else:  # every associated observation is sent
        assert metrics.measurements_total == metrics.measurements_assoc_total


@pytest.mark.parametrize("transport", ["inproc", "socket:0"])
def test_scan_path_builds_no_group_list(monkeypatch, transport):
    # Iterating a group set is the only way to a list of its groups; neither
    # processor takes it, so a run that refuses it ends the same.
    cfg = pipeline.RunConfig(duration=1.0, mode="qlio", transport=transport, seed=5)
    want, rows_want = pipeline.run(cfg)

    def no_list(groups):
        raise AssertionError("a list of groups was built")

    monkeypatch.setattr(ObservationGroups, "__iter__", no_list)
    got, rows = pipeline.run(cfg)
    assert got.deterministic_fields() == want.deterministic_fields()
    assert rows.tobytes() == rows_want.tobytes()


@pytest.mark.parametrize("transport", ["inproc", "socket:0"])
def test_corrupted_frame_raises_bad_crc_at_once(monkeypatch, transport):
    encode = pipeline.encode_frame

    def flip_a_bit_in_obs_groups(frame_type, timestamp_us, payload):
        frame = bytearray(encode(frame_type, timestamp_us, payload))
        if frame_type == FrameType.OBS_GROUPS:
            frame[HEADER.size] ^= 0x10
        return bytes(frame)

    monkeypatch.setattr(pipeline, "encode_frame", flip_a_bit_in_obs_groups)
    start = time.perf_counter()
    with pytest.raises(BadCrc):
        pipeline.run(pipeline.RunConfig(duration=0.5, mode="qlio", transport=transport))
    assert time.perf_counter() - start < 2.0


def test_short_frame_over_a_socket_raises_truncated_frame_promptly(monkeypatch):
    # The host holds a POSE_REQ frame missing its last 3 bytes; a POSE_REQ
    # ends every coprocessor write, so nothing follows it. The host gives
    # up after FRAME_DEADLINE_S instead of waiting for the driver's timeout.
    encode = pipeline.encode_frame

    def cut_pose_req(frame_type, timestamp_us, payload):
        frame = encode(frame_type, timestamp_us, payload)
        return frame[:-3] if frame_type == FrameType.POSE_REQ else frame

    monkeypatch.setattr(pipeline, "encode_frame", cut_pose_req)
    start = time.perf_counter()
    with pytest.raises(TruncatedFrame):
        pipeline.run(pipeline.RunConfig(duration=0.5, mode="qlio", transport="socket:0"))
    assert time.perf_counter() - start < 2.0


def test_short_frame_followed_by_its_pose_request_raises_bad_crc_promptly(monkeypatch):
    # An OBS_GROUPS frame missing its last 3 bytes, then the next POSE_REQ
    # in the same write: the host reads the cut frame's length worth of
    # bytes, which end inside the POSE_REQ, so the checksum fails at once.
    encode = pipeline.encode_frame

    def cut_obs_groups(frame_type, timestamp_us, payload):
        frame = encode(frame_type, timestamp_us, payload)
        return frame[:-3] if frame_type == FrameType.OBS_GROUPS else frame

    monkeypatch.setattr(pipeline, "encode_frame", cut_obs_groups)
    start = time.perf_counter()
    with pytest.raises(BadCrc):
        pipeline.run(pipeline.RunConfig(duration=0.5, mode="qlio", transport="socket:0"))
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("transport", ["inproc", "socket:0"])
def test_one_exchange_per_scan(monkeypatch, transport):
    # Each scan's observation frame carries the next scan's POSE_REQ in the
    # same write; only the first POSE_REQ and the last observation frame
    # travel alone. Over a socket the coprocessor writes n + 1 times and the
    # host n + 2 times (CONFIG, then one write per coprocessor write).
    kinds, writes = [], {"coprocessor": 0, "host": 0}
    handle, send = estimator.Host.handle_frame, wire.StreamTransport.send_frame

    def recording_handle(host, frame):
        kinds.append(frame.frame_type)
        return handle(host, frame)

    def counting_send(transport, data):
        main = threading.current_thread() is threading.main_thread()
        writes["coprocessor" if main else "host"] += 1
        return send(transport, data)

    monkeypatch.setattr(estimator.Host, "handle_frame", recording_handle)
    monkeypatch.setattr(wire.StreamTransport, "send_frame", counting_send)
    metrics, _ = pipeline.run(pipeline.RunConfig(duration=0.5, mode="qlio",
                                                 transport=transport, seed=4))
    n = metrics.scans
    assert n == 5
    pose, obs = FrameType.POSE_REQ, FrameType.OBS_GROUPS
    assert kinds == [pose] + [obs, pose] * (n - 1) + [obs]
    if transport == "inproc":
        assert writes == {"coprocessor": 0, "host": 0}
    else:
        assert writes == {"coprocessor": n + 1, "host": n + 2}


@pytest.mark.parametrize("transport", ["inproc", "socket:0"])
def test_host_cpu_time_is_reported_within_its_wall_time(tmp_path, transport):
    cfg = pipeline.RunConfig(duration=0.5, mode="qlio", transport=transport, seed=4,
                             out_dir=str(tmp_path))
    metrics, _ = pipeline.run(cfg)
    assert 0.0 < metrics.timings["host_cpu"] <= metrics.timings["host"]
    header, values = (tmp_path / "metrics.csv").read_text().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["time_host_cpu_s"] == f"{metrics.timings['host_cpu']:.3f}"


@pytest.mark.parametrize("transport", ["inproc", "socket:0"])
def test_a_host_that_fails_mid_run_raises_its_error_promptly(monkeypatch, transport):
    # The host dies on its 5th propagation, in the middle of a session: the
    # run raises the host's own error and leaves no thread behind.
    calls = []
    propagate = estimator.propagate

    def fail_on_fifth(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise ValueError("host failed on its 5th propagation")
        return propagate(*args, **kwargs)

    monkeypatch.setattr(estimator, "propagate", fail_on_fifth)
    threads = set(threading.enumerate())
    start = time.perf_counter()
    with pytest.raises(ValueError, match="host failed on its 5th propagation"):
        pipeline.run(pipeline.RunConfig(duration=1.0, mode="qlio", transport=transport))
    assert time.perf_counter() - start < 2.0
    assert len(calls) == 5
    assert set(threading.enumerate()) == threads


@pytest.mark.parametrize("mode", ["qlio", "baseline-float"])
def test_slow_yard_circle_stays_on_track(mode):
    # One lap of the open yard in 30 s. A map that stacked a slow sensor's
    # repeat hits of one ray fitted planes along the rays, and qlio ended
    # 2.7 m off (baseline-float 42 mm). The bound is the share of the
    # benchmark's accuracy check, 0.5% of the path, but on the unaligned
    # error RunMetrics reports; the benchmark's check still aligns first.
    cfg = pipeline.RunConfig(scene="open-yard", trajectory="circle", duration=30.0, mode=mode)
    metrics, _ = pipeline.run(cfg)
    positions = synth_trajectory("circle", 30.0).positions
    path = np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1))
    assert path == pytest.approx(6 * np.pi)
    assert not metrics.diverged and metrics.ate_trans <= 0.005 * path


@pytest.mark.parametrize("scene, trajectory", [("corridor", "circle"), ("box-room", "line")])
def test_ground_truth_outside_the_scene_is_refused(monkeypatch, scene, trajectory):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan was simulated")

    monkeypatch.setattr(pipeline, "synth_scan", no_scan)
    with pytest.raises(ValueError, match=f"{trajectory} trajectory .* {scene} walls"):
        pipeline.run(pipeline.RunConfig(scene=scene, trajectory=trajectory, duration=10.0))


def test_parse_sweep_expr_is_strict():
    assert pipeline.parse_sweep_expr("lp=5,ln=2..3") == {"lp": [5], "ln": [2, 3], "lz": [2]}
    with pytest.raises(ValueError, match="empty"):
        pipeline.parse_sweep_expr("lp=12..3")
    with pytest.raises(ValueError, match="twice"):
        pipeline.parse_sweep_expr("lp=5,ln=2,lp=6")
    with pytest.raises(ValueError, match="unknown"):
        pipeline.parse_sweep_expr("lq=5")


def test_sweep_pairs_both_modes_per_configuration():
    rows = pipeline.sweep(pipeline.RunConfig(duration=1.0), [5], [2, 3], [2])
    assert [(r["l_p"], r["l_n"], r["l_z"]) for r in rows] == [(5, 2, 2), (5, 3, 2)]
    assert [r["bits_formula"] for r in rows] == [23, 26]
    for row in rows:
        for label in ("rqrs", "norqrs"):
            assert np.isfinite(row[f"ate_{label}"]) and not row[f"diverged_{label}"]
            assert row[f"bits_per_meas_sent_{label}"] > 0.0
    assert rows[0]["ate_baseline"] == rows[1]["ate_baseline"]


def ate_inputs(n=12, seed=6):
    """Positions and rotations of a non-collinear, non-planar path."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-3.0, 3.0, (n, 3))
    rotations = [so3_exp(rng.normal(0.0, 1.0, 3)) for _ in range(n)]
    return positions, rotations


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0])
def test_ate_reads_a_rigid_offset_as_its_size(eps):
    # No alignment absorbs the offset: a translation d reads |d| and a
    # rotation of eps about any axis, on either side, reads eps.
    positions, rotations = ate_inputs()
    exact_q = [rot_to_quat(r) for r in rotations]
    d = np.array([0.3, -1.2, 0.4]) * eps
    trans, rot = pipeline.ate(positions + d, exact_q, positions, rotations)
    assert trans == pytest.approx(np.linalg.norm(d), rel=1e-12) and rot < 1e-12
    rng = np.random.default_rng(7)
    for axis in (np.eye(3)[2], rng.normal(0.0, 1.0, 3)):
        turn = so3_exp(eps * axis / np.linalg.norm(axis))
        for est_q in ([rot_to_quat(r @ turn) for r in rotations],
                      [rot_to_quat(turn @ r) for r in rotations]):
            trans, rot = pipeline.ate(positions, est_q, positions, rotations)
            assert trans == 0.0
            assert rot == pytest.approx(eps, rel=1e-6)


def test_ate_takes_one_pose_and_pairs_poses_by_index():
    positions, rotations = ate_inputs(n=3)
    est_q = [rot_to_quat(r) for r in rotations]
    trans, rot = pipeline.ate(positions[:1] + [0.0, 0.0, 0.5], est_q[:1],
                              positions[:1], rotations[:1])
    assert trans == pytest.approx(0.5) and rot < 1e-12
    with pytest.raises(ValueError, match="no poses"):
        pipeline.ate(positions[:0], est_q[:0], positions[:0], rotations[:0])
    with pytest.raises(ValueError, match="pose count"):
        pipeline.ate(positions, est_q, positions[:2], rotations[:2])
    with pytest.raises(ValueError, match="pose count"):
        pipeline.ate(positions, est_q[:2], positions, rotations)


def test_ate_of_a_stationary_estimate_on_the_yard_line():
    # An estimate that never leaves the start but keeps the true attitude,
    # against the 30 s, 8 m yard line at the scan times, reads the RMS
    # distance from the start and no attitude error. A rigid alignment, ill
    # posed on a line, would turn the position error into rotation.
    gt = synth_trajectory("line", 30.0)
    rotations, positions = gt.poses_at(0.1 * np.arange(1, 301))
    start = gt.pose_at(0.0)[1]
    trans, rot = pipeline.ate(np.tile(start, (300, 1)), [rot_to_quat(r) for r in rotations],
                              positions, rotations)
    assert rot < 1e-12
    assert trans == pytest.approx(np.sqrt(np.mean(np.sum((positions - start) ** 2, axis=1))))
    assert trans == pytest.approx(5.018, abs=1e-3)


def test_a_one_scan_run_is_scored():
    # One healthy scan is a trajectory; it is not a divergence.
    metrics, rows = pipeline.run(pipeline.RunConfig(trajectory="static", duration=0.1))
    assert metrics.scans == 1 and len(rows) == 1
    assert not metrics.diverged
    assert metrics.ate_trans < 0.01 and metrics.ate_rot < 0.01


def test_a_position_past_its_bound_stops_the_scan_loop(monkeypatch):
    # The figure-eight runs 2.3-3.2 m from the origin in its first 0.4 s.
    monkeypatch.setattr(pipeline, "DIVERGENCE_POSITION", 3.0)
    metrics, rows = pipeline.run(pipeline.RunConfig(duration=1.0, seed=5))
    distances = np.linalg.norm(rows[:, 1:4], axis=1)
    assert metrics.scans == len(rows) < 10
    assert np.all(distances[:-1] <= 3.0) and distances[-1] > 3.0
    assert metrics.diverged and metrics.ate_trans == metrics.ate_rot == float("inf")


@pytest.mark.parametrize("transport", ["inproc", "socket:0"])
def test_divergence_is_read_from_the_last_posterior(monkeypatch, transport):
    # Past 3.2 m at scan 3 (3.24 m) ends the loop; the host has already
    # propagated to scan 4, whose prior is back at 2.65 m. The run reads
    # diverged from scan 3's posterior: 3 scans, diverged.
    monkeypatch.setattr(pipeline, "DIVERGENCE_POSITION", 3.2)
    finalized = []
    finalize = pipeline._finalize

    def recording_finalize(gt, host, *args):
        finalized.append(np.linalg.norm(host.state.position))
        return finalize(gt, host, *args)

    monkeypatch.setattr(pipeline, "_finalize", recording_finalize)
    metrics, rows = pipeline.run(pipeline.RunConfig(duration=1.0, seed=5, transport=transport))
    assert metrics.scans == len(rows) == 3 and metrics.skipped_scans == 0
    assert finalized[0] <= 3.2 < np.linalg.norm(rows[-1, 1:4])
    assert metrics.diverged is True
    assert metrics.ate_trans == metrics.ate_rot == float("inf")


def test_a_covariance_past_its_bound_is_flagged_after_the_last_scan(monkeypatch):
    # The scan loop reads the position alone, so all 10 scans run.
    bound = 0.1 * np.trace(pipeline.default_init_cov())
    monkeypatch.setattr(pipeline, "DIVERGENCE_TRACE", bound)
    metrics, rows = pipeline.run(pipeline.RunConfig(duration=1.0, seed=5))
    assert metrics.scans == len(rows) == 10 and np.all(rows[:, 8] > bound)
    assert metrics.diverged and metrics.ate_trans == metrics.ate_rot == float("inf")


def test_ate_rot_reads_a_constant_yaw_error():
    positions, rotations = ate_inputs()
    eps = 0.01
    est_q = [rot_to_quat(r @ so3_exp([0.0, 0.0, eps])) for r in rotations]
    trans, rot = pipeline.ate(positions, est_q, positions, rotations)
    assert trans < 1e-9
    assert abs(rot - eps) < 1e-9
