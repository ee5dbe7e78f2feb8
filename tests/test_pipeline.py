import time
from dataclasses import replace

import numpy as np
import pytest

from quantlio import estimator, pipeline
from quantlio.manifold import rot_to_quat, so3_exp
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
    # Both channels hand back decoded reply frames; the session over a
    # localhost TCP link must end exactly where the in-process pump does.
    for mode in ("qlio", "qlio-no-rqrs"):
        runs = [pipeline.run(pipeline.RunConfig(duration=0.5, mode=mode, transport=t, seed=4))
                for t in ("inproc", "socket:0")]
        (inproc, rows), (socket, rows_socket) = runs
        assert inproc.scans == 5 and inproc.bits_total > 0
        assert socket.deterministic_fields() == inproc.deterministic_fields()
        assert rows_socket.tobytes() == rows.tobytes()


def test_float_baselines_run_in_process_whatever_the_transport(monkeypatch):
    def no_socket(port):
        raise AssertionError("a float baseline opened a socket")

    monkeypatch.setattr(pipeline, "tcp_listen", no_socket)
    cfg = pipeline.RunConfig(duration=0.5, mode="baseline-float", seed=4)
    metrics, rows = pipeline.run(replace(cfg, transport="socket:0"))
    inproc, rows_inproc = pipeline.run(cfg)
    assert metrics.deterministic_fields() == inproc.deterministic_fields()
    assert rows.tobytes() == rows_inproc.tobytes()


def recorded_run(monkeypatch, cfg):
    """run(cfg), plus the point count of every simulated scan and the
    (groups, payload) of every OBS_GROUPS payload packed."""
    points, packed = [], []
    synth, pack = pipeline.synth_scan, pipeline.pack_groups

    def synth_scan(*args, **kwargs):
        pts, times = synth(*args, **kwargs)
        points.append(len(pts))
        return pts, times

    def pack_groups(groups, cb):
        payload = pack(groups, cb)
        packed.append((groups, payload))
        return payload

    monkeypatch.setattr(pipeline, "synth_scan", synth_scan)
    monkeypatch.setattr(pipeline, "pack_groups", pack_groups)
    metrics, rows = pipeline.run(cfg)
    monkeypatch.undo()
    return metrics, rows, points, packed


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_every_mode_is_deterministic_and_counts_its_bits(monkeypatch, mode):
    cfg = pipeline.RunConfig(duration=1.0, mode=mode, seed=5)
    metrics, rows, points, packed = recorded_run(monkeypatch, cfg)
    again, rows_again = pipeline.run(cfg)
    assert again.deterministic_fields() == metrics.deterministic_fields()
    assert rows_again.tobytes() == rows.tobytes()
    assert metrics.scans == len(points) == 10 and metrics.measurements_total > 0

    cb = cfg.codebook
    assert len(packed) == (metrics.scans if mode.startswith("qlio") else 0)
    if mode == "baseline-float":
        assert metrics.bits_total == pipeline.FLOAT_OBS_BITS * metrics.measurements_total
    elif mode == "baseline-int8":
        # 8 bits per coordinate plus the per-axis min and max as float32.
        assert metrics.bits_total == sum(24 * n + 192 for n in points)
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
    # The host holds an OBS_GROUPS frame missing its last 3 bytes; it gives
    # up after FRAME_DEADLINE_S instead of waiting for the driver's timeout.
    encode = pipeline.encode_frame

    def cut_obs_groups(frame_type, timestamp_us, payload):
        frame = encode(frame_type, timestamp_us, payload)
        return frame[:-3] if frame_type == FrameType.OBS_GROUPS else frame

    monkeypatch.setattr(pipeline, "encode_frame", cut_obs_groups)
    start = time.perf_counter()
    with pytest.raises(TruncatedFrame):
        pipeline.run(pipeline.RunConfig(duration=0.5, mode="qlio", transport="socket:0"))
    assert time.perf_counter() - start < 2.0


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


def test_ate_of_the_truth_under_a_rigid_motion_is_zero():
    positions, rotations = ate_inputs()
    move_r, move_t = so3_exp([0.3, -0.2, 1.1]), np.array([2.0, -1.0, 0.5])
    est_q = [rot_to_quat(move_r @ r) for r in rotations]
    trans, rot = pipeline.ate(positions @ move_r.T + move_t, est_q, positions, rotations)
    assert trans < 1e-9 and rot < 1e-9


def test_ate_rot_reads_a_constant_yaw_error():
    positions, rotations = ate_inputs()
    eps = 0.01
    est_q = [rot_to_quat(r @ so3_exp([0.0, 0.0, eps])) for r in rotations]
    trans, rot = pipeline.ate(positions, est_q, positions, rotations)
    assert trans < 1e-9
    assert abs(rot - eps) < 1e-9


def test_ate_needs_two_poses_paired_by_index():
    positions, rotations = ate_inputs(n=3)
    est_q = [rot_to_quat(r) for r in rotations]
    with pytest.raises(ValueError, match="two poses"):
        pipeline.ate(positions[:1], est_q[:1], positions[:1], rotations[:1])
    with pytest.raises(ValueError, match="pose count"):
        pipeline.ate(positions, est_q, positions[:2], rotations[:2])
    with pytest.raises(ValueError, match="pose count"):
        pipeline.ate(positions, est_q[:2], positions, rotations)
