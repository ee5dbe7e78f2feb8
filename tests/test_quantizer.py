import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantlio.quantizer import (
    Codebook, bits_per_measurement,
    dequantize_point, dequantize_residual_key,
    quantize_points, quantize_residual_vectors, quantize_zs,
    residual_axes_to_key, residual_key_to_axes,
)


class TestCodebook:
    def test_defaults_valid(self):
        cb = Codebook()
        assert cb.point_step == 2.0 ** (1 - cb.l_p) * cb.r_max

    @pytest.mark.parametrize("kwargs", [
        dict(l_p=0), dict(l_p=17), dict(l_n=0), dict(l_n=17),
        dict(l_z=0), dict(l_z=17), dict(r_max=0.0), dict(r_thr=0.0), dict(r_thr=1.5),
        dict(r_max=float("nan")), dict(r_max=float("inf")),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            Codebook(**kwargs)


class TestPointGrid:
    def test_single_bit_cell(self):
        # With one bit over [-200, 200) there are two 200 m cells; -1 lands
        # in the lower cell whose center is -100.
        cb = Codebook(l_p=1, r_max=200.0)
        idx = quantize_points([[-1.0, -1.0, -1.0]], cb)
        assert list(idx[0]) == [0, 0, 0]
        np.testing.assert_allclose(dequantize_point(idx, cb)[0], [-100.0, -100.0, -100.0])

    def test_half_cell_error_bound(self):
        rng = np.random.default_rng(0)
        for cb in (Codebook(l_p=3, r_max=200.0), Codebook(l_p=9, r_max=50.0),
                   Codebook(l_p=16, r_max=30.0)):
            pts = rng.uniform(-cb.r_max, cb.r_max, (200_000, 3)) * (1 - 1e-12)
            recon = dequantize_point(quantize_points(pts, cb), cb)
            assert np.abs(pts - recon).max() <= 2.0 ** (-cb.l_p) * cb.r_max + 1e-12

    def test_idempotent_on_cell_centers(self):
        cb = Codebook(l_p=5, r_max=40.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-cb.r_max, cb.r_max, (1000, 3)) * (1 - 1e-12)
        idx = quantize_points(pts, cb)
        np.testing.assert_array_equal(quantize_points(dequantize_point(idx, cb), cb), idx)

    def test_monotone_indices(self):
        cb = Codebook(l_p=6, r_max=10.0)
        xs = np.sort(np.random.default_rng(2).uniform(-10, 10, 5000) * (1 - 1e-12))
        idx = quantize_points(np.stack([xs, xs, xs], axis=1), cb)
        assert np.all(np.diff(idx[:, 0]) >= 0)

    def test_boundary_takes_upper_cell_and_top_clamps(self):
        cb = Codebook(l_p=2, r_max=8.0)  # edges at -8, -4, 0, 4, 8
        idx = quantize_points([[0.0, 4.0, 8.0]], cb)
        assert list(idx[0]) == [2, 3, 3]

    def test_out_of_range_reported(self):
        cb = Codebook(l_p=4, r_max=10.0)
        with pytest.raises(ValueError):
            quantize_points([[10.5, 0.0, 0.0]], cb)


class TestResidualGrid:
    def test_key_space_size(self):
        cb = Codebook(l_n=3)
        assert 2 ** (3 * cb.l_n) == 512

    def test_positive_epsilon_hits_upper_octant(self):
        cb = Codebook(l_n=1, r_thr=0.04)
        keys = quantize_residual_vectors([[1e-12, 1e-12, 1e-12]], cb)
        assert keys[0] == 0b111

    def test_zero_takes_upper_cells(self):
        cb = Codebook(l_n=1, r_thr=0.04)
        keys = quantize_residual_vectors([[0.0, 0.0, 0.0]], cb)
        assert keys[0] == 0b111

    def test_idempotent(self):
        # Corner-cell centers may fall outside the admissible norm ball, so
        # idempotence is checked on reconstructions that stay inside it.
        cb = Codebook(l_n=4, r_thr=0.04)
        rng = np.random.default_rng(3)
        vecs = rng.uniform(-1, 1, (2000, 3))
        vecs *= (rng.uniform(0, cb.r_thr * 0.999, 2000) /
                 np.linalg.norm(vecs, axis=1))[:, None]
        keys = quantize_residual_vectors(vecs, cb)
        recon = dequantize_residual_key(keys, cb)
        admissible = np.linalg.norm(recon, axis=1) < cb.r_thr
        assert np.count_nonzero(admissible) > 500
        np.testing.assert_array_equal(
            quantize_residual_vectors(recon[admissible], cb), keys[admissible])

    def test_half_cell_error_bound(self):
        cb = Codebook(l_n=3, r_thr=0.04)
        rng = np.random.default_rng(4)
        vecs = rng.uniform(-1, 1, (100_000, 3))
        vecs *= (rng.uniform(0, cb.r_thr * 0.999, len(vecs)) /
                 np.linalg.norm(vecs, axis=1))[:, None]
        recon = dequantize_residual_key(quantize_residual_vectors(vecs, cb), cb)
        assert np.abs(vecs - recon).max() <= 2.0 ** (-cb.l_n) * cb.r_thr + 1e-15

    def test_norm_gate_reported(self):
        cb = Codebook(l_n=3, r_thr=0.04)
        with pytest.raises(ValueError):
            quantize_residual_vectors([[0.04, 0.0, 0.0]], cb)

    def test_key_partition_and_adjacency(self):
        cb = Codebook(l_n=2, r_thr=0.04)
        rng = np.random.default_rng(5)
        vecs = rng.uniform(-1, 1, (5000, 3))
        vecs *= (rng.uniform(0, cb.r_thr * 0.999, len(vecs)) /
                 np.linalg.norm(vecs, axis=1))[:, None]
        keys = quantize_residual_vectors(vecs, cb)
        axes = residual_key_to_axes(keys, cb)
        np.testing.assert_array_equal(residual_axes_to_key(axes, cb), keys)
        # Stepping one cell along one axis flips exactly that sub-field.
        base = np.array([1, 2, 1])
        k0 = residual_axes_to_key(base, cb)
        for axis in range(3):
            bumped = base.copy()
            bumped[axis] += 1
            k1 = residual_axes_to_key(bumped, cb)
            changed = residual_key_to_axes(np.array(k0 ^ k1), cb)
            assert np.count_nonzero(changed) == 1

    def test_dequantize_matches_reconstruction(self):
        # Step 0.01: the cells holding 0.012, -0.023 and 0.004 are centered
        # at 0.015, -0.025 and 0.005.
        cb = Codebook(l_n=3, r_thr=0.04)
        keys = quantize_residual_vectors([[0.012, -0.023, 0.004]], cb)
        np.testing.assert_allclose(dequantize_residual_key(keys[0], cb), [0.015, -0.025, 0.005])


class TestScalarGrid:
    def test_worked_example(self):
        cb = Codebook(l_z=2, r_thr=0.04)
        idx = quantize_zs([0.013], cb)
        assert idx[0] == 1
        lo = idx * cb.z_step
        assert (lo[0], lo[0] + cb.z_step) == (pytest.approx(0.01), pytest.approx(0.02))

    def test_zero_lowest_cell(self):
        cb = Codebook(l_z=3, r_thr=0.04)
        assert quantize_zs([0.0], cb)[0] == 0

    def test_idempotent_centers(self):
        cb = Codebook(l_z=4, r_thr=0.04)
        cells = np.arange(2 ** cb.l_z)
        centers = cells * cb.z_step + 0.5 * cb.z_step
        np.testing.assert_array_equal(quantize_zs(centers, cb), cells)

    def test_error_bound_and_interval(self):
        cb = Codebook(l_z=2, r_thr=0.04)
        rng = np.random.default_rng(6)
        zs = rng.uniform(0, cb.r_thr * 0.999999, 100_000)
        idx = quantize_zs(zs, cb)
        lo = idx * cb.z_step
        assert np.all((zs >= lo) & (zs < lo + cb.z_step))
        assert np.abs(zs - (lo + 0.5 * cb.z_step)).max() <= cb.z_step / 2 + 1e-15
        assert np.all(np.diff(idx[np.argsort(zs)]) >= 0)

    def test_out_of_range_reported(self):
        cb = Codebook(l_z=2, r_thr=0.04)
        with pytest.raises(ValueError):
            quantize_zs([0.04], cb)
        with pytest.raises(ValueError):
            quantize_zs([-1e-9], cb)


class TestBitsPerMeasurement:
    def test_paper_operating_points(self):
        assert bits_per_measurement(Codebook(l_p=3, l_n=3, l_z=2)) == 20
        assert bits_per_measurement(Codebook(l_p=12, l_n=3, l_z=2)) == 47

    def test_minimal(self):
        assert bits_per_measurement(Codebook(l_p=1, l_n=1, l_z=1)) == 7


codebooks = st.builds(Codebook, l_p=st.integers(1, 16), l_n=st.integers(1, 16),
                      l_z=st.integers(1, 16), r_max=st.floats(1e-3, 1e4),
                      r_thr=st.floats(1e-4, 1.0))
unit_values = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40)


def half_step(step: float, scale: float) -> float:
    """Half a cell, plus the rounding of offsetting and scaling by range scale."""
    return 0.5 * step + 8 * np.finfo(float).eps * scale


class TestGridProperties:
    """Random codebooks and in-range values: indices stay in range, every
    reconstruction is within half a step of its value, re-quantizing it gives
    the same index, and indices never decrease as values grow."""

    @given(cb=codebooks, units=unit_values)
    def test_point_grid(self, cb, units):
        xs = np.asarray(units) * cb.r_max
        idx = quantize_points(np.stack([xs] * 3, axis=1), cb)[:, 0]
        assert np.all((idx >= 0) & (idx < 2 ** cb.l_p))
        recon = dequantize_point(np.stack([idx] * 3, axis=1), cb)
        assert np.all(np.abs(xs - recon[:, 0]) <= half_step(cb.point_step, cb.r_max))
        np.testing.assert_array_equal(quantize_points(recon, cb)[:, 0], idx)
        assert np.all(np.diff(idx[np.argsort(xs, kind="stable")]) >= 0)

    @given(cb=codebooks, units=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3),
                                        min_size=1, max_size=40))
    def test_residual_grid(self, cb, units):
        vecs = np.asarray(units) * cb.r_thr
        vecs = vecs[np.linalg.norm(vecs, axis=1) < cb.r_thr]
        keys = quantize_residual_vectors(vecs, cb)
        assert np.all((keys >= 0) & (keys < 2 ** (3 * cb.l_n)))
        axes = residual_key_to_axes(keys, cb)
        recon = dequantize_residual_key(keys, cb)
        assert np.all(np.abs(vecs - recon) <= half_step(cb.residual_step, cb.r_thr))
        # A corner cell's center may lie outside the norm ball the quantizer
        # accepts; only reconstructions inside it can be re-quantized.
        inside = np.linalg.norm(recon, axis=1) < cb.r_thr
        np.testing.assert_array_equal(quantize_residual_vectors(recon[inside], cb), keys[inside])
        for axis in range(3):
            order = np.argsort(vecs[:, axis], kind="stable")
            assert np.all(np.diff(axes[order, axis]) >= 0)

    @given(cb=codebooks, units=unit_values)
    def test_scalar_grid(self, cb, units):
        zs = np.abs(units) * cb.r_thr
        zs = zs[zs < cb.r_thr]
        idx = quantize_zs(zs, cb)
        assert np.all((idx >= 0) & (idx < 2 ** cb.l_z))
        recon = (idx + 0.5) * cb.z_step
        assert np.all(np.abs(zs - recon) <= half_step(cb.z_step, cb.r_thr))
        np.testing.assert_array_equal(quantize_zs(recon, cb), idx)
        assert np.all(np.diff(idx[np.argsort(zs, kind="stable")]) >= 0)
