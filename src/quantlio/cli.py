"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .pipeline import MODES, RunConfig, parse_sweep_expr, run, sweep, write_sweep_csv
from .quantizer import Codebook
from .simworld import load_descriptor

# Every key a --config file may set, with the parser of its value. The run
# flags set the same keys (argparse dest) and override the file.
CONFIG_KEYS = {
    "scene": str, "trajectory": str, "mode": str, "transport": str, "out_dir": str,
    "duration": float, "ds_0": float, "alpha": float, "sigma": float, "seed": int,
    "scene_size": lambda text: tuple(float(v) for v in text.split()),
    "l_p": int, "l_n": int, "l_z": int, "r_max": float, "r_thr": float,
}
CODEBOOK_KEYS = tuple(f.name for f in fields(Codebook))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantlio",
        description="Run the quantized LiDAR-inertial odometry pipeline on a "
                    "synthetic scene and report trajectory and bandwidth metrics.")
    parser.add_argument("--config", help="key-value config file")

    def key_flag(flag, key, **kwargs):
        parser.add_argument(flag, dest=key, type=CONFIG_KEYS[key], **kwargs)

    key_flag("--mode", "mode", choices=MODES)
    key_flag("--transport", "transport", help="'inproc' or 'socket:PORT'")
    key_flag("--seed", "seed")
    key_flag("--out", "out_dir", help="output directory for CSV reports")
    key_flag("--scene", "scene", help="scene preset")
    key_flag("--trajectory", "trajectory", help="trajectory preset")
    key_flag("--duration", "duration")
    key_flag("--lp", "l_p", help="point bits per axis")
    key_flag("--ln", "l_n", help="residual-vector bits per axis")
    key_flag("--lz", "l_z", help="scalar residual bits")
    key_flag("--ds0", "ds_0", help="edge of the raw-scan voxel filter, and the "
             "base edge of the rq-resampling voxel (m)")
    key_flag("--alpha", "alpha", help="growth of the rq-resampling voxel edge per "
             "metre of its bucket's mean range (m/m)")
    key_flag("--sigma", "sigma", help="measurement noise std (m)")
    parser.add_argument("--sweep", help="e.g. 'lp=3..12,ln=3,lz=2'")
    return parser


def config_from_args(args) -> RunConfig:
    """The run's configuration: the --config file's keys, then the flags
    given over them. A flag given as an empty string counts as not given."""
    values = {}
    if args.config:
        for key, text in load_descriptor(args.config).items():
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = CONFIG_KEYS[key](text)
    values.update((key, value) for key, value in vars(args).items()
                  if key in CONFIG_KEYS and value not in (None, ""))
    codebook = Codebook(**{key: values.pop(key) for key in CODEBOOK_KEYS if key in values})
    return RunConfig(codebook=codebook, **values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.sweep:
            ranges = parse_sweep_expr(args.sweep)
            rows = sweep(cfg, ranges["lp"], ranges["ln"], ranges["lz"])
            out_dir = cfg.out_dir or "."
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "sweep.csv")
            write_sweep_csv(rows, path)
            print(f"sweep: {len(rows)} configurations -> {path}")
            return 0
        metrics, _ = run(cfg)
        print(f"mode={cfg.mode} scans={metrics.scans} "
              f"ate={metrics.ate_trans:.4f} m / {metrics.ate_rot:.4f} rad "
              f"bits/meas={metrics.bits_per_meas_sent:.2f} "
              f"(per associated: {metrics.bits_per_meas_assoc:.2f}) "
              f"diverged={metrics.diverged}")
        if cfg.out_dir:
            print(f"reports written to {cfg.out_dir}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
