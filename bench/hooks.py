"""Wrappers the benchmark installs around the program's public functions.

Timing hooks, installed for every round, mark where a round's set-up ends
and where each scan starts and ends, and keep what the output checks need.
Trace hooks, installed for traced rounds only, record one span per call into
a layer, with counts taken at the same boundaries. The program itself is
not changed; every wrapper is removed again when the round ends.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

import numpy as np

from quantlio import coprocessor, estimator, pipeline, voxelmap, wire

from checks import brute_force_knn

# Every KNN_CHECK_EVERY-th knn_batch call of a traced round has
# KNN_CHECKS_PER_BATCH sampled answers compared with a brute-force search.
# Checking fewer calls keeps the map copy it needs from evicting the
# pipeline's own data, which showed as tracing overhead.
KNN_CHECK_EVERY = 5
KNN_CHECKS_PER_BATCH = 8


def speed_gauge() -> float:
    """Fixed work of the same kind as the pipeline's (interpreted loops and
    small NumPy calls); timing it between scans tracks the machine's speed."""
    pts = np.arange(60, dtype=float).reshape(20, 3) * 0.1
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(120):
        d = pts - pts[i % 20]
        d2 = np.einsum("ij,ij->i", d, d)
        acc += float(d2[np.argpartition(d2, 4)[:5]].sum())
        table[i % 37] = table.get(i % 37, 0) + 1
    for i in range(10000):
        acc += i * i % 7
    return acc


class SetupDone(Exception):
    """Raised at the first scan of a set-up-only pass."""


class Tracer:
    """In-memory spans: [name, start, end, parent index, scan index, thread].

    Each thread keeps its own span stack, so host-thread spans on a socket
    transport are parented within the host thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.scan = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1,
                               self.scan, threading.get_ident()])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack().pop()


class RoundHooks:
    """Installs the wrappers for one round and holds what they record."""

    def __init__(self, traced: bool, seed: int, abort_at_first_scan: bool = False):
        self.traced = traced
        self.seed = seed
        self.abort_at_first_scan = abort_at_first_scan
        self.setup_end = None
        self.scan_start = None
        self.loop_start = None
        self.loop_end = None
        self.input_s = 0.0
        self.scan_s: list[float] = []
        self.gauge_s: list[float] = []
        self.packed: list = []
        self.obs_sent: list[int] = []
        self.coproc = None
        self.tracer = Tracer() if traced else None
        self.counts: dict[str, float] = {}
        self.knn_checked = 0
        self.knn_mismatches = 0
        self.unhooked: list[str] = []
        self._undo: list = []
        self._knn_calls = 0

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name: str, make, required: bool = True) -> None:
        if not hasattr(owner, name):
            if required:
                raise AttributeError(f"{owner.__name__}.{name} is gone; the benchmark "
                                     "needs it to time scans")
            self.unhooked.append(f"{owner.__name__}.{name}")
            return
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self):
        self._install_timing()
        if self.traced:
            self._install_trace()
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def _count(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- timing hooks ---------------------------------------------------------

    def _install_timing(self) -> None:
        def synth_scan(original):
            def wrapper(*args, **kwargs):
                now = perf_counter()
                if self.setup_end is None:
                    self.setup_end = now
                    if self.abort_at_first_scan:
                        raise SetupDone
                gauge_start = perf_counter()
                speed_gauge()
                self.gauge_s.append(perf_counter() - gauge_start)
                out = original(*args, **kwargs)
                self.scan_start = perf_counter()
                if self.loop_start is None:
                    self.loop_start = self.scan_start
                else:
                    self.input_s += self.scan_start - now
                if self.tracer is not None:
                    self.tracer.scan = len(self.scan_s)
                    self._scan_span = self.tracer.begin("scan")
                return out
            return wrapper

        def integrate_posterior(original):
            def wrapper(coproc, pose_k):
                original(coproc, pose_k)
                end = perf_counter()
                if self.tracer is not None:
                    self.tracer.end(self._scan_span)
                    self.tracer.scan = -1
                self.scan_s.append(end - self.scan_start)
                self.loop_end = end
                self.coproc = coproc
            return wrapper

        def process_scan(original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                self.obs_sent.append(out[2]["observations_sent"])
                return out
            return wrapper

        def pack_groups(original):
            def wrapper(groups, cb):
                payload = original(groups, cb)
                self.packed.append((groups, payload))
                return payload
            return wrapper

        def apply_float_observations(original):
            def wrapper(host, t_k, observations):
                self.obs_sent.append(len(observations))
                return original(host, t_k, observations)
            return wrapper

        self._patch(pipeline, "synth_scan", synth_scan)
        self._patch(coprocessor.Coprocessor, "integrate_posterior", integrate_posterior)
        self._patch(coprocessor.Coprocessor, "process_scan", process_scan)
        self._patch(pipeline, "pack_groups", pack_groups)
        self._patch(estimator.Host, "apply_float_observations", apply_float_observations)

    # -- trace hooks ----------------------------------------------------------

    def _span(self, owner, name: str, after=None) -> None:
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer.end(idx)
                if after is not None:
                    after(args, out)
                return out
            return wrapper

        self._patch(owner, name, make, required=False)

    def _install_trace(self) -> None:
        count = self._count
        cp, vm, es, pl = coprocessor, voxelmap.VoxelMap, estimator, pipeline

        def undistort(args, out):
            count("points_in", len(args[0]))

        def associate(args, out):
            count("points_kept", len(args[0]))
            count("obs_raw", len(out[0]))

        def plane_fit(args, out):
            count("plane_fits", len(out[3]))
            count("plane_accepted", int(np.count_nonzero(out[3])))

        def knn_batch(args, out):
            count("knn_queries", len(args[1]))
            self._check_knn(args[0], np.atleast_2d(args[1]), args[2], out)

        def pack(args, out):
            count("groups", len(args[0]))
            count("payload_bytes", len(out))

        for module in (cp, pl):
            self._span(module, "undistort", undistort)
            self._span(module, "voxel_downsample")
            self._span(module, "associate", associate)
        self._span(cp, "rq_resample")
        self._span(cp, "build_groups")
        self._span(cp, "plane_fit_batch", plane_fit)
        self._span(vm, "knn_batch", knn_batch)
        self._span(vm, "knn", lambda args, out: count("knn_fallbacks", 1))
        self._span(vm, "insert")
        self._span(pl, "pack_groups", pack)
        self._span(es, "unpack_groups")
        for module in (pl, es, wire):
            self._span(module, "encode_frame")
        for module in (pl, wire):
            self._span(module, "decode_frame")
        self._span(pl._SyncChannel, "request")
        self._span(pl._SocketChannel, "request")
        self._span(es, "propagate", lambda args, out: count("imu_samples", len(args[2])))
        self._span(es, "qmap_update", lambda args, out: count("vacuous", out[2]["vacuous"]))
        self._span(es, "standard_update")
        self._span(es.Host, "handle_frame")
        self._span(es.Host, "apply_float_observations")
        self._span(pl, "_finalize")
        if self.unhooked:
            print(f"trace: not found, reported as 0: {', '.join(self.unhooked)}",
                  file=sys.stderr)

    def _check_knn(self, vmap, queries, k: int, results) -> None:
        """Compare sampled knn_batch answers with a brute-force search over
        the map. Runs inside its own span, which the layer accounting leaves
        out."""
        self._knn_calls += 1
        if self._knn_calls % KNN_CHECK_EVERY:
            return
        idx = self.tracer.begin("bench.knn_check")
        rng = np.random.default_rng([self.seed, self._knn_calls])
        points = vmap.points
        picks = rng.choice(len(queries), size=min(KNN_CHECKS_PER_BATCH, len(queries)),
                           replace=False)
        for q in picks:
            want = brute_force_knn(points, queries[q], k, vmap.search_radius)
            self.knn_checked += 1
            if not np.array_equal(np.asarray(results[q]), want):
                self.knn_mismatches += 1
        self.tracer.end(idx)
