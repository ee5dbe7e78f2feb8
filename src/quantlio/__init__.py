"""Desk-scale quantized LiDAR-inertial odometry.

A coprocessor stage associates, quantizes, resamples and bit-packs
point-to-plane observations; a host stage propagates an IMU error-state
filter and applies a quantized-MAP Kalman update. The two halves talk only
through a CRC-protected binary wire protocol, and a synthetic world supplies
ground truth for every claim that can be checked.
"""

from .manifold import NavState, ImuStream, NoiseParams, boxplus, boxminus, propagate
from .quantizer import Codebook, bits_per_measurement
from .voxelmap import VoxelMap
from .pipeline import RunConfig, RunMetrics, ate, run, sweep

__all__ = [
    "NavState", "ImuStream", "NoiseParams", "boxplus", "boxminus", "propagate",
    "Codebook", "bits_per_measurement", "VoxelMap",
    "RunConfig", "RunMetrics", "ate", "run", "sweep",
]
