import numpy as np
import pytest

from quantlio import pipeline
from quantlio.voxelmap import VoxelMap


def short_run():
    return pipeline.run(pipeline.RunConfig(duration=2.0, mode="baseline-float",
                                           transport="inproc", seed=3))


def test_run_is_deterministic_and_real_map_knn_is_exact(monkeypatch):
    # Record the map and the queries of every kNN pass of a short run.
    calls = []
    batch = VoxelMap.knn_batch

    def recording(vmap, queries, k):
        calls.append((vmap, np.array(queries)))
        return batch(vmap, queries, k)

    monkeypatch.setattr(VoxelMap, "knn_batch", recording)
    metrics, rows = short_run()
    monkeypatch.undo()

    assert metrics.scans == 20 and len(rows) == 20
    assert metrics.measurements_total > 0
    vmap = calls[-1][0]
    queries = np.concatenate([q for _, q in calls[-3:]])
    got = vmap.knn_batch(queries, 5)
    assert all(len(g) == 5 for g in got)
    for q, g in zip(queries, got):
        np.testing.assert_array_equal(g, vmap.knn(q, 5))

    again, rows_again = short_run()
    assert again.deterministic_fields() == metrics.deterministic_fields()
    assert rows_again.tobytes() == rows.tobytes()


def test_socket_transport_matches_inproc():
    # Both channels hand back decoded reply frames; the session over a
    # localhost TCP link must end exactly where the in-process pump does.
    runs = [pipeline.run(pipeline.RunConfig(duration=0.5, mode="qlio", transport=t, seed=4))
            for t in ("inproc", "socket:0")]
    (inproc, rows), (socket, rows_socket) = runs
    assert inproc.scans == 5 and inproc.bits_total > 0
    assert socket.deterministic_fields() == inproc.deterministic_fields()
    assert rows_socket.tobytes() == rows.tobytes()


@pytest.mark.parametrize("scene, trajectory", [("corridor", "circle"), ("box-room", "line")])
def test_ground_truth_outside_the_scene_is_refused(monkeypatch, scene, trajectory):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan was simulated")

    monkeypatch.setattr(pipeline, "synth_scan", no_scan)
    with pytest.raises(ValueError, match=f"{trajectory} trajectory .* {scene} walls"):
        pipeline.run(pipeline.RunConfig(scene=scene, trajectory=trajectory, duration=10.0))
