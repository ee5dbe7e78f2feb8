"""Fixed-point codebooks for points, residual vectors and scalar residuals.

All three grids are uniform with floor indexing, so a value landing exactly
on a cell edge takes the upper cell and the top edge clamps into the last
cell. Reconstructions (dequantize_point, dequantize_residual_key) sit at
cell centers, which makes quantization idempotent: re-quantizing any
reconstruction returns the same index.

Grids, for bit counts (l_p, l_n, l_z) and ranges (r_max, r_thr):

    point axis     2^l_p cells over [-r_max, +r_max), step 2^(1-l_p) * r_max
    residual axis  2^l_n cells over [-r_thr, +r_thr), step 2^(1-l_n) * r_thr
    scalar z       2^l_z cells over [0, r_thr),       step 2^(-l_z) * r_thr

A residual vector's three axis indices concatenate into one hash key:
key = (ix << 2*l_n) | (iy << l_n) | iz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Codebook:
    """Static quantization configuration shared by both components."""

    l_p: int = 9
    l_n: int = 3
    l_z: int = 2
    r_max: float = 50.0
    r_thr: float = 0.04

    def __post_init__(self):
        # 16 bits per field is the ceiling the fine-quantization regime uses.
        if not 1 <= self.l_p <= 16:
            raise ValueError("l_p must be in [1, 16]")
        if not 1 <= self.l_n <= 16:
            raise ValueError("l_n must be in [1, 16]")
        if not 1 <= self.l_z <= 16:
            raise ValueError("l_z must be in [1, 16]")
        if not 0.0 < self.r_max < np.inf:
            raise ValueError("r_max must be positive and finite")
        if not 0.0 < self.r_thr <= 1.0:
            raise ValueError("r_thr must be in (0, 1]")

    @property
    def point_step(self) -> float:
        return 2.0 ** (1 - self.l_p) * self.r_max

    @property
    def residual_step(self) -> float:
        return 2.0 ** (1 - self.l_n) * self.r_thr

    @property
    def z_step(self) -> float:
        return 2.0 ** (-self.l_z) * self.r_thr


def bits_per_measurement(cb: Codebook) -> int:
    """Raw encoded bits for one observation without group sharing."""
    return 3 * cb.l_p + 3 * cb.l_n + cb.l_z


def _grid_index(values, step: float, offset: float, n_cells: int):
    idx = np.floor((np.asarray(values, dtype=float) + offset) / step).astype(np.int64)
    return np.clip(idx, 0, n_cells - 1)


def quantize_points(points, cb: Codebook) -> np.ndarray:
    """Vectorized point quantization: (N, 3) -> (N, 3) indices."""
    points = np.asarray(points, dtype=float)
    if np.any(np.abs(points) > cb.r_max):
        raise ValueError("point coordinate outside [-r_max, r_max]; filter upstream")
    return _grid_index(points, cb.point_step, cb.r_max, 2 ** cb.l_p)


def dequantize_point(indices, cb: Codebook) -> np.ndarray:
    return np.asarray(indices, dtype=float) * cb.point_step - cb.r_max + 0.5 * cb.point_step


def residual_axes_to_key(axes, cb: Codebook):
    axes = np.asarray(axes, dtype=np.int64)
    return (axes[..., 0] << (2 * cb.l_n)) | (axes[..., 1] << cb.l_n) | axes[..., 2]


def residual_key_to_axes(key, cb: Codebook) -> np.ndarray:
    key = np.asarray(key, dtype=np.int64)
    mask = (1 << cb.l_n) - 1
    return np.stack([(key >> (2 * cb.l_n)) & mask, (key >> cb.l_n) & mask, key & mask], axis=-1)


def quantize_residual_vectors(vectors, cb: Codebook) -> np.ndarray:
    """Vectorized residual-vector quantization: (N, 3) -> (N,) keys."""
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=-1)
    if np.any(norms >= cb.r_thr):
        raise ValueError("residual norm at or above r_thr; filter upstream")
    idx = _grid_index(vectors, cb.residual_step, cb.r_thr, 2 ** cb.l_n)
    return residual_axes_to_key(idx, cb)


def dequantize_residual_key(key, cb: Codebook) -> np.ndarray:
    axes = residual_key_to_axes(key, cb)
    return axes * cb.residual_step - cb.r_thr + 0.5 * cb.residual_step


def quantize_zs(values, cb: Codebook) -> np.ndarray:
    """Vectorized scalar-residual quantization: values -> cell indices; cell
    i is [i * z_step, (i + 1) * z_step)."""
    values = np.asarray(values, dtype=float)
    if np.any((values < 0.0) | (values >= cb.r_thr)):
        raise ValueError("z outside [0, r_thr); filter upstream")
    return _grid_index(values, cb.z_step, 0.0, 2 ** cb.l_z)

