"""Per-scan latency, link bits and accuracy of quantlio on seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload room-qlio --seed 0 --seconds 55 --trace 0

The run repeats whole rounds (one `quantlio.pipeline.run` each, on a seed
derived from --seed and the round index) until --seconds is used up, checks
every round's output, and prints the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1). The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_PASSES = 3
# Times are reported at a reference machine speed: the one at which the
# speed gauge takes GAUGE_NOMINAL_MS (about its median on the 2-vCPU Xeon VM
# where the benchmark was defined). A scan's factor uses the gauge readings
# of the GAUGE_WINDOW scans around it.
GAUGE_NOMINAL_MS = 2.5
GAUGE_WINDOW = 11

if not (SRC / "quantlio" / "__init__.py").is_file():
    sys.exit(f"bench: no quantlio sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from quantlio import pipeline  # noqa: E402

import checks  # noqa: E402
from hooks import RoundHooks, SetupDone  # noqa: E402
from layers import layer_seconds, scan_seconds  # noqa: E402
from workloads import WORKLOADS, make_config, round_seed  # noqa: E402

E2E_UNITS = {
    "scan_ms_p50": "ms", "scan_ms_p90": "ms", "scans_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "ate_trans_mm": "mm", "ate_rot_mrad": "mrad",
    "bits_per_meas": "bit", "kbit_per_scan": "kbit",
}
LAYER_UNITS = {
    "coprocessor.undistort_ms": "ms", "coprocessor.downsample_ms": "ms",
    "coprocessor.associate_ms": "ms", "coprocessor.rq_resample_ms": "ms",
    "coprocessor.build_groups_ms": "ms", "coprocessor.points_in": "count",
    "coprocessor.points_kept": "count", "coprocessor.obs_raw": "count",
    "coprocessor.obs_sent": "count", "coprocessor.rqrs_keep_share": "share",
    "voxelmap.knn_block_ms": "ms", "voxelmap.knn_fallback_ms": "ms",
    "voxelmap.knn_queries": "count", "voxelmap.knn_fallbacks": "count",
    "voxelmap.knn_fallback_share": "share", "voxelmap.plane_fit_ms": "ms",
    "voxelmap.plane_accept_share": "share", "voxelmap.insert_ms": "ms",
    "voxelmap.map_points": "count", "wire.pack_ms": "ms", "wire.unpack_ms": "ms",
    "wire.frame_ms": "ms", "wire.payload_bytes": "bytes", "wire.groups": "count",
    "wire.link_ms": "ms", "estimator.propagate_ms": "ms",
    "estimator.imu_samples_passed": "count", "estimator.qmap_ms": "ms",
    "estimator.vacuous": "count", "estimator.float_update_ms": "ms",
    "estimator.host_other_ms": "ms", "pipeline.loop_other_ms": "ms",
    "pipeline.finalize_ms": "ms", "trace.scan_ms": "ms", "trace.untraced_scan_ms": "ms",
    "trace.overhead_ms": "ms", "trace.knn_checked": "count",
}


class Round:
    """One pipeline run with its timings, checks and failure count."""

    def __init__(self, cfg, traced: bool, setup_passes=()):
        self.cfg = cfg
        self.scheduled = int(np.floor(cfg.duration * cfg.lidar.rate_hz + 1e-9))
        self.problems: list[str] = []
        hooks = RoundHooks(traced, cfg.seed)
        t0 = perf_counter()
        try:
            with hooks:
                self.metrics, self.rows = pipeline.run(cfg)
        except Exception as exc:  # the round's scans all count as failed
            self.hooks, self.failed, self.metrics = hooks, self.scheduled, None
            print(f"bench: seed {cfg.seed}: run raised {exc!r}", file=sys.stderr)
            return
        self.hooks = hooks
        gauge_ms = 1e3 * np.asarray(hooks.gauge_s)
        half = GAUGE_WINDOW // 2
        self.scan_factor = GAUGE_NOMINAL_MS / np.array(
            [np.median(gauge_ms[max(0, i - half): i + half + 1]) for i in range(len(gauge_ms))])
        self.factor = GAUGE_NOMINAL_MS / float(np.median(gauge_ms))
        self.scan_ms = 1e3 * np.asarray(hooks.scan_s) * self.scan_factor
        self.setup_s = [hooks.setup_end - t0, *setup_passes]
        self.loop_s = hooks.loop_end - hooks.loop_start - hooks.input_s
        self._check()

    def _check(self) -> None:
        m, cb, hooks = self.metrics, self.cfg.codebook, self.hooks
        acc = checks.RoundCheck(self.cfg, self.rows)
        self.ate_trans, self.ate_rot = acc.ate_trans, acc.ate_rot
        self.max_position_err = float(acc.position_err.max())
        # A skipped scan leaves no trajectory row, so it is also missing.
        missing = max(self.scheduled - len(self.rows), m.skipped_scans)
        self.failed = missing + acc.scans_off_track
        problems = self.problems
        if len(hooks.scan_s) != len(self.rows):
            problems.append(f"{len(hooks.scan_s)} timed scans, {len(self.rows)} logged")
        if not (m.cov_psd_ok and m.cov_contraction_ok):
            problems.append(f"covariance checks: psd {m.cov_psd_ok}, "
                            f"contraction {m.cov_contraction_ok}")
        if not acc.ate_within_bound:
            problems.append(f"ATE {acc.ate_trans * 1e3:.1f} mm over "
                            f"{checks.ATE_PATH_SHARE:.1%} of a {acc.path_m:.1f} m path")
        if self.cfg.mode.startswith("qlio"):
            problems += checks.payload_problems(hooks.packed, hooks.obs_sent, cb)
            self.bits = sum(8 * len(payload) for _, payload in hooks.packed)
        else:
            self.bits = checks.FLOAT_OBS_BITS * sum(hooks.obs_sent)
            if m.bits_total != self.bits:
                problems.append(f"float run reports {m.bits_total} bits, "
                                f"{checks.FLOAT_OBS_BITS} per observation gives {self.bits}")
        self.obs_sent = sum(hooks.obs_sent)
        # Keep counts, not the map or the groups: peak memory must not grow
        # with the number of rounds a run fits in.
        self.map_points = len(hooks.coproc.vmap)
        self.payloads = [payload for _, payload in hooks.packed]
        hooks.coproc = hooks.packed = None
        if hooks.knn_mismatches:
            problems.append(f"{hooks.knn_mismatches} of {hooks.knn_checked} sampled "
                            "knn_batch answers differ from brute force")

    def signature(self):
        """What tracing must leave unchanged."""
        return self.metrics.deterministic_fields(), self.payloads


def setup_pass(cfg) -> float:
    """Seconds from run() entry to the first scan, stopping there."""
    hooks = RoundHooks(False, cfg.seed, abort_at_first_scan=True)
    t0 = perf_counter()
    try:
        with hooks:
            pipeline.run(cfg)
    except SetupDone:
        return hooks.setup_end - t0
    raise RuntimeError("set-up pass reached no scan")


def run_rounds(workload: str, seed: int, seconds: float, traced: bool):
    """Rounds until the time is used up (at least one). A traced run pairs an
    untraced and a traced round on the same inputs."""
    start = perf_counter()
    rounds = []
    index = 0
    while True:
        cfg = make_config(workload, round_seed(seed, index))
        setups = [setup_pass(cfg) for _ in range(SETUP_PASSES)]
        # Alternate which twin of a traced pair goes first, so drift in the
        # machine's speed does not bias the tracing overhead.
        for twin in ((False, True) if index % 2 == 0 else (True, False)) if traced else (False,):
            rounds.append(Round(cfg, traced=twin, setup_passes=setups))
        index += 1
        elapsed = perf_counter() - start
        per_round = elapsed / index
        if elapsed + 0.75 * per_round > seconds:
            break
    return rounds


def e2e_metrics(rounds, at_reference_speed: bool = True) -> dict:
    """End-to-end metrics over the run's rounds; times at the reference
    machine speed, or as measured when at_reference_speed is false."""
    ok = [r for r in rounds if r.metrics is not None]
    if at_reference_speed:
        scan_ms = np.concatenate([r.scan_ms for r in ok])
        factors = [r.factor for r in ok]
    else:
        scan_ms = 1e3 * np.concatenate([r.hooks.scan_s for r in ok])
        factors = [1.0] * len(ok)
    scans = len(scan_ms)
    return {
        "scan_ms_p50": float(np.percentile(scan_ms, 50)),
        "scan_ms_p90": float(np.percentile(scan_ms, 90)),
        "scans_per_s": scans / sum(r.loop_s * f for r, f in zip(ok, factors)),
        "setup_s": statistics.median(s * f for r, f in zip(ok, factors) for s in r.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ate_trans_mm": 1e3 * float(np.sqrt(np.mean([r.ate_trans ** 2 for r in ok]))),
        "ate_rot_mrad": 1e3 * float(np.sqrt(np.mean([r.ate_rot ** 2 for r in ok]))),
        "bits_per_meas": sum(r.bits for r in ok) / sum(r.obs_sent for r in ok),
        "kbit_per_scan": sum(r.bits for r in ok) / scans / 1e3,
    }


def layer_metrics(rounds, problems: list) -> tuple[dict, list]:
    """Per-scan means over the traced rounds, plus the tracing overhead
    against their untraced twins. Times are at the reference machine speed,
    one factor per scan, so the layers still add up to the scan time."""
    plain = [r for r in rounds if not r.hooks.traced and r.metrics is not None]
    traced = [r for r in rounds if r.hooks.traced and r.metrics is not None]
    if not plain or not traced:
        problems.append("no traced pair completed")
        return {name: 0.0 for name in LAYER_UNITS}, []
    twins = {r.cfg.seed: r for r in plain}
    for r in traced:
        if r.cfg.seed in twins and twins[r.cfg.seed].signature() != r.signature():
            problems.append(f"seed {r.cfg.seed}: tracing changed the run's output")
    scans = sum(len(r.hooks.scan_s) for r in traced)
    out = {name: 0.0 for name in LAYER_UNITS}
    counts: dict[str, float] = {}
    traced_s = 0.0
    span_rows = []
    for r in traced:
        hooks = r.hooks
        spans = hooks.tracer.spans
        for key, sec in layer_seconds(spans, threading.get_ident(), r.scan_factor).items():
            out[key] += 1e3 * sec / scans
        for key, value in hooks.counts.items():
            counts[key] = counts.get(key, 0) + value
        traced_s += scan_seconds(spans, r.scan_factor)
        out["voxelmap.map_points"] += r.map_points / len(traced)
        out["pipeline.finalize_ms"] += 1e3 * r.factor * sum(
            s[2] - s[1] for s in spans if s[0] == "_finalize") / len(traced)
        out["trace.knn_checked"] += hooks.knn_checked
        span_rows += [(r.cfg.seed, *s) for s in spans]

    def per_scan(key):
        return counts.get(key, 0) / scans

    out["coprocessor.points_in"] = per_scan("points_in")
    out["coprocessor.points_kept"] = per_scan("points_kept")
    out["coprocessor.obs_raw"] = per_scan("obs_raw")
    sent = sum(r.obs_sent for r in traced)
    out["coprocessor.obs_sent"] = sent / scans
    out["coprocessor.rqrs_keep_share"] = sent / counts["obs_raw"] if counts.get("obs_raw") else 0.0
    out["voxelmap.knn_queries"] = per_scan("knn_queries")
    out["voxelmap.knn_fallbacks"] = per_scan("knn_fallbacks")
    out["voxelmap.knn_fallback_share"] = (counts.get("knn_fallbacks", 0) / counts["knn_queries"]
                                          if counts.get("knn_queries") else 0.0)
    out["voxelmap.plane_accept_share"] = (counts.get("plane_accepted", 0) / counts["plane_fits"]
                                          if counts.get("plane_fits") else 0.0)
    out["wire.payload_bytes"] = per_scan("payload_bytes")
    out["wire.groups"] = per_scan("groups")
    out["estimator.imu_samples_passed"] = per_scan("imu_samples")
    out["estimator.vacuous"] = per_scan("vacuous")

    layer_sum = sum(v for k, v in out.items() if k.endswith("_ms") and
                    not k.startswith(("trace.", "pipeline.finalize")))
    out["trace.scan_ms"] = 1e3 * traced_s / scans
    out["trace.untraced_scan_ms"] = float(np.mean(np.concatenate([r.scan_ms for r in plain])))
    out["trace.overhead_ms"] = out["trace.scan_ms"] - out["trace.untraced_scan_ms"]
    if abs(layer_sum - out["trace.scan_ms"]) > 1e-6 * max(1.0, layer_sum):
        problems.append(f"layer self times sum to {layer_sum:.4f} ms, traced scans "
                        f"took {out['trace.scan_ms']:.4f} ms")
    return out, span_rows


def write_spans(path: Path, span_rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round_seed,name,start_s,end_s,parent,scan,thread\n")
        for seed, name, start, end, parent, scan, thread in span_rows:
            fh.write(f"{seed},{name},{start:.9f},{end:.9f},{parent},{scan},{thread}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = [f"seed {r.cfg.seed}: {p}" for r in rounds for p in r.problems]
    attempted = sum(r.scheduled for r in rounds)
    failed = sum(r.failed for r in rounds)
    if all(r.metrics is None for r in rounds):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, span_rows = layer_metrics(rounds, problems)
        units = LAYER_UNITS
        write_spans(OUT_DIR / f"{stem}.spans.csv", span_rows)
    else:
        values, units = e2e_metrics(rounds), E2E_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    measured = {} if args.trace else e2e_metrics(rounds, at_reference_speed=False)
    for k, v in metrics.items():
        as_measured = f"  (as measured: {measured[k]:.6g})" if k in measured and \
            measured[k] != v["value"] else ""
        print(f"{args.workload} {k} = {v['value']:.6g} {v['unit']}{as_measured}")
    print(f"{args.workload} rounds = {len(rounds)}, scans attempted = {attempted}, "
          f"failed = {failed}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=[{"seed": r.cfg.seed, "traced": r.hooks.traced, "failed": r.failed,
                           "scan_ms_measured": [1e3 * s for s in r.hooks.scan_s],
                           "gauge_ms": [1e3 * s for s in r.hooks.gauge_s],
                           "setup_s_measured": getattr(r, "setup_s", None),
                           "ate_trans_mm": 1e3 * getattr(r, "ate_trans", float("nan")),
                           "ate_rot_mrad": 1e3 * getattr(r, "ate_rot", float("nan")),
                           "max_position_err_mm": 1e3 * getattr(r, "max_position_err",
                                                                float("nan"))}
                          for r in rounds],
                  problems=problems)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
