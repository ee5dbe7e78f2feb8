"""Per-layer metrics from a traced round's spans.

A span's self time is its duration minus the durations of its children on
the same thread. Every span opened during a scan belongs to exactly one
layer, so the layers' self times add up to the scan's wall time. On a socket
transport the host thread's spans run while the driving thread waits inside
the channel request; they are taken out of the request's self time, and
what remains of it is the link time.
"""

from __future__ import annotations

from bisect import bisect_right

# Span name -> per-layer metric that receives its self time.
SPAN_METRIC = {
    "undistort": "coprocessor.undistort_ms",
    "voxel_downsample": "coprocessor.downsample_ms",
    "associate": "coprocessor.associate_ms",
    "rq_resample": "coprocessor.rq_resample_ms",
    "build_groups": "coprocessor.build_groups_ms",
    "knn_batch": "voxelmap.knn_block_ms",
    "knn": "voxelmap.knn_fallback_ms",
    "plane_fit_batch": "voxelmap.plane_fit_ms",
    "insert": "voxelmap.insert_ms",
    "pack_groups": "wire.pack_ms",
    "unpack_groups": "wire.unpack_ms",
    "encode_frame": "wire.frame_ms",
    "decode_frame": "wire.frame_ms",
    "request": "wire.link_ms",
    "propagate": "estimator.propagate_ms",
    "qmap_update": "estimator.qmap_ms",
    "standard_update": "estimator.float_update_ms",
    "handle_frame": "estimator.host_other_ms",
    "apply_float_observations": "estimator.host_other_ms",
    "scan": "pipeline.loop_other_ms",
}
# Spans of the benchmark's own checks: left out of every layer and of the
# traced scan time.
CHECK_PREFIX = "bench."


def _owner_metric(spans, i: int) -> str:
    """Metric of span i. voxel_downsample calls made by rq_resample are part
    of rq resampling, and knn's shell expansion under knn_batch is its
    fallback."""
    name = spans[i][0]
    if name == "voxel_downsample":
        parent = spans[i][3]
        if parent >= 0 and spans[parent][0] == "rq_resample":
            return SPAN_METRIC["rq_resample"]
    return SPAN_METRIC[name]


def layer_seconds(spans, driver_thread: int, scan_weight) -> dict[str, float]:
    """Seconds per layer metric over all spans opened inside a scan, each
    span's self time multiplied by its scan's weight."""
    child = [0.0] * len(spans)
    for name, start, end, parent, scan, thread in spans:
        if parent >= 0:
            child[parent] += end - start
    # Host-thread root spans, to be taken out of the request they ran in.
    requests = sorted((s[1], s[2], i) for i, s in enumerate(spans)
                      if s[0] == "request" and s[5] == driver_thread)
    starts = [r[0] for r in requests]
    inside_request = [0.0] * len(spans)
    for name, start, end, parent, scan, thread in spans:
        if thread != driver_thread and parent < 0 and scan >= 0:
            j = bisect_right(starts, start) - 1
            if j < 0 or start > requests[j][1]:
                raise ValueError(f"host span {name} ran outside every channel request")
            inside_request[requests[j][2]] += end - start

    out: dict[str, float] = {}
    for i, (name, start, end, parent, scan, thread) in enumerate(spans):
        if scan < 0 or name.startswith(CHECK_PREFIX):
            continue
        metric = _owner_metric(spans, i)
        self_s = end - start - child[i] - inside_request[i]
        out[metric] = out.get(metric, 0.0) + self_s * scan_weight[scan]
    return out


def scan_seconds(spans, scan_weight) -> float:
    """Weighted time of all scans, without the benchmark's own checks."""
    total = 0.0
    for name, start, end, parent, scan, thread in spans:
        if name == "scan":
            total += (end - start) * scan_weight[scan]
        elif scan >= 0 and name.startswith(CHECK_PREFIX):
            total -= (end - start) * scan_weight[scan]
    return total
