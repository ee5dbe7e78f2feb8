import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from quantlio.coprocessor import ObservationGroup, associate, build_groups
from quantlio.estimator import (
    Host, _information_update, interval_moments, interval_surrogate,
    point_plane_rows, qmap_update, standard_update,
)
from quantlio.manifold import (
    ERROR_DIM, ImuSample, NavState, NoiseParams, boxplus, propagate, so3_exp,
)
from quantlio.quantizer import (
    Codebook, dequantize_point, dequantize_residual_key,
)
from quantlio.simworld import LidarModel, build_scene, synth_scan, synth_trajectory
from quantlio.voxelmap import VoxelMap
from quantlio.wire import (
    FrameType, ObservationGroups, ProtocolOrderError, SessionConfig, WireFrame,
    decode_frame, decode_pose_resp, encode_frame, encode_pose_req,
    pack_groups,
)

IDENTITY = (np.eye(3), np.zeros(3))


def phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)


class TestEffectiveMeasurement:
    def test_symmetric_interval_zero_residual(self):
        z, r, valid = interval_surrogate(-0.01, 0.01, 0.02)
        assert valid
        assert z == pytest.approx(0.0, abs=1e-15)
        assert r > 0.0

    def test_fine_interval_limit(self):
        sigma = 0.02
        c = 0.007
        w = 1e-6 * sigma
        z, r, valid = interval_surrogate(c - w / 2, c + w / 2, sigma)
        assert valid
        assert abs(z - c) < 1e-4 * sigma
        assert abs(r - sigma ** 2) / sigma ** 2 < 1e-3

    def test_one_sided_against_quadrature(self):
        # Interval [0, inf) with sigma 1: standardized bounds (-inf, 0].
        lam, omega, _ = interval_moments(-np.inf, 0.0)
        mass, _ = quad(phi, -12.0, 0.0)
        m1, _ = quad(lambda x: x * phi(x), -12.0, 0.0)
        m2, _ = quad(lambda x: x * x * phi(x), -12.0, 0.0)
        mean = m1 / mass
        var = m2 / mass - mean ** 2
        assert lam == pytest.approx(mean, abs=1e-9)
        assert omega == pytest.approx(1.0 - var, abs=1e-9)

    def test_two_sided_against_quadrature(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(-3, 1)
            b = a + rng.uniform(0.05, 2.0)
            lam, omega, logp = interval_moments(a, b)
            mass, _ = quad(phi, a, b)
            m1, _ = quad(lambda x: x * phi(x), a, b)
            m2, _ = quad(lambda x: x * x * phi(x), a, b)
            mean = m1 / mass
            var = m2 / mass - mean ** 2
            assert np.exp(logp) == pytest.approx(mass, rel=1e-9)
            assert lam == pytest.approx(mean, abs=1e-9)
            assert omega == pytest.approx(1.0 - var, abs=1e-9)

    def test_vacuous_interval_rejected(self):
        _, _, valid = interval_surrogate(0.9, 0.90001, 0.01)
        assert not valid
        _, _, valid = interval_surrogate([0.0, 0.9], [0.01, 0.90001], 0.01)
        np.testing.assert_array_equal(valid, [True, False])

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_surrogate(0.2, 0.1, 1.0)
        with pytest.raises(ValueError):
            interval_surrogate(0.0, 0.1, 0.0)

    def surrogate_fd_errors(self, lo, hi, sigma, eps=1e-3):
        z_eff, r_eff, valid = interval_surrogate(lo, hi, sigma)
        assert np.all(valid)

        def nll(shift):
            lam, omega, logp = interval_moments((-hi - shift) / sigma,
                                                (-lo - shift) / sigma)
            return -logp

        step = eps * sigma
        grad_fd = (nll(step) - nll(-step)) / (2 * step)
        curv_fd = (nll(step) - 2 * nll(0.0) + nll(-step)) / step ** 2
        grad = z_eff / r_eff
        curv = 1.0 / r_eff
        return (abs(grad_fd - grad) / np.maximum(abs(grad), abs(curv) * sigma),
                abs(curv_fd - curv) / abs(curv))

    def test_surrogate_consistency_random_intervals(self):
        rng = np.random.default_rng(2)
        sigma = 0.02
        r_thr = 0.04
        l_z = rng.integers(1, 9, 2000)
        step = r_thr / 2.0 ** l_z
        idx = rng.integers(0, 2 ** l_z)
        ge, ce = self.surrogate_fd_errors(idx * step, (idx + 1) * step, sigma)
        assert max(ge.max(), ce.max()) < 1e-5

    def test_omega_positive_including_one_sided(self):
        rng = np.random.default_rng(3)
        for _ in range(5000):
            a = rng.uniform(-8, 7.5)
            b = a + rng.uniform(1e-4, 4.0)
            _, omega, _ = interval_moments(a, b)
            assert omega > 0.0
        for _ in range(500):
            a = rng.uniform(-8, 8)
            _, omega_up, _ = interval_moments(a, np.inf)
            _, omega_dn, _ = interval_moments(-np.inf, a)
            assert omega_up > 0.0 and omega_dn > 0.0


def residual_value(state: NavState, p_lidar, u, d: float, extrinsic) -> float:
    """Signed plane distance of a LiDAR point placed with the given state:
    the finite-difference oracle for point_plane_rows."""
    r_il, t_il = extrinsic
    world = state.rotation @ (r_il @ np.asarray(p_lidar, dtype=float) + t_il) + state.position
    return float(np.dot(u, world) + d)


class TestJacobian:
    def test_translation_block_is_normal(self):
        state = NavState()
        u = np.array([0.0, 0.0, 1.0])
        row = point_plane_rows(state, [[1.0, 2.0, 3.0]], [u], IDENTITY)[0]
        np.testing.assert_array_equal(row[3:6], u)
        assert np.count_nonzero(row[6:]) == 0

    def test_axis_aligned_lever_arm_vanishes(self):
        state = NavState()
        row = point_plane_rows(state, [[0.0, 0.0, 2.0]], [[0.0, 0.0, 1.0]], IDENTITY)[0]
        np.testing.assert_allclose(row[0:3], 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            state = NavState()
            state.rotation = so3_exp(rng.uniform(-1, 1, 3))
            state.position = rng.uniform(-3, 3, 3)
            extrinsic = (so3_exp(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-0.1, 0.1, 3))
            p = rng.uniform(-5, 5, 3)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            d = rng.uniform(-2, 2)
            row = point_plane_rows(state, p, u, extrinsic)[0]

            eps = 1e-6
            fd = np.zeros(ERROR_DIM)
            for j in range(ERROR_DIM):
                dv = np.zeros(ERROR_DIM)
                dv[j] = eps
                hi = residual_value(boxplus(state, dv), p, u, d, extrinsic)
                lo = residual_value(boxplus(state, -dv), p, u, d, extrinsic)
                fd[j] = (hi - lo) / (2 * eps)
            assert np.abs(fd - row).max() / max(1.0, np.abs(row).max()) < 1e-5


def static_observations(sigma_r=0.0, seed=0):
    """Observations from a static box-room scan against a prebuilt map."""
    scene = build_scene("box-room")
    gt = synth_trajectory("static", 2.0)
    lidar = LidarModel(range_noise=sigma_r, n_azimuth=32, n_elevation=10)
    vmap = VoxelMap(edge=0.5, cell_cap=64)
    map_pts, _ = synth_scan(scene, gt, lidar, t_k=0.5, seed=seed + 100)
    vmap.insert(map_pts)  # static at the origin: sensor frame == world frame
    pts, _ = synth_scan(scene, gt, lidar, t_k=1.0, seed=seed)
    cb = Codebook(l_p=16, l_n=16, l_z=16, r_max=40.0)
    obs, _ = associate(pts, pts, vmap, cb)
    return obs, cb


def reference_qmap_update(state, cov, groups, cb, sigma, extrinsic):
    """The per-member loop qmap_update replaced: one scalar surrogate per z
    index, one direction per group, one dequantized point per member."""
    eig_min = float(np.linalg.eigvalsh(cov).min())
    if eig_min < -1e-9:
        raise ValueError("prior covariance is not PSD")
    cell_cache = {}

    def cell_effective(z_index):
        if z_index not in cell_cache:
            lo = float(z_index) * cb.z_step
            hi = lo + cb.z_step
            lam, omega, log_p = interval_moments(-hi / sigma, -lo / sigma)
            if log_p < math.log(1e-300) or not np.isfinite(log_p) or omega <= 0.0:
                cell_cache[z_index] = None
            else:
                cell_cache[z_index] = (-sigma * float(lam) / float(omega),
                                       sigma ** 2 / float(omega))
        return cell_cache[z_index]

    z_eff, r_eff, pts, us = [], [], [], []
    vacuous = 0
    for group in groups:
        center = dequantize_residual_key(group.rq_key, cb)
        u = center / np.linalg.norm(center)
        for z_index, p_idx in group.members:
            eff = cell_effective(z_index)
            if eff is None:
                vacuous += 1
                continue
            z_eff.append(eff[0])
            r_eff.append(eff[1])
            pts.append(dequantize_point(np.asarray(p_idx), cb))
            us.append(u)

    info = {"measurements": len(z_eff), "vacuous": vacuous, "updated": bool(z_eff)}
    if not z_eff:
        return state.copy(), np.array(cov, copy=True), info
    rows = point_plane_rows(state, np.array(pts), np.array(us), extrinsic)
    out_state, out_cov = _information_update(
        state, cov, rows, np.array(z_eff), np.array(r_eff))
    return out_state, out_cov, info


def assert_same_update(state, cov, groups, cb, sigma, extrinsic):
    got = qmap_update(state, cov, ObservationGroups.of(groups), cb, sigma, extrinsic)
    want = reference_qmap_update(state, cov, groups, cb, sigma, extrinsic)
    for name in ("rotation", "position", "velocity", "bias_gyro", "bias_accel"):
        np.testing.assert_array_equal(getattr(got[0], name), getattr(want[0], name))
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert [type(v) for v in got[2].values()] == [type(v) for v in want[2].values()]
    return got[2]


@st.composite
def qmap_cases(draw):
    """Random groups, codebook and prior, in one of three regimes: sigma
    and r_thr at which every z cell carries mass; sigma 0.01 with r_thr 1.0,
    where cells above about 0.37 m carry none (some members vacuous); and
    that setting with z drawn from the upper half only (all vacuous)."""
    l_z = draw(st.integers(1, 16))
    regime = draw(st.sampled_from(["informative", "mixed", "vacuous"]))
    r_thr, sigma = ((draw(st.sampled_from([0.04, 0.3])), draw(st.sampled_from([0.02, 0.05])))
                    if regime == "informative" else (1.0, 0.01))
    cb = Codebook(l_p=draw(st.integers(1, 16)), l_n=draw(st.integers(1, 8)), l_z=l_z,
                  r_max=draw(st.sampled_from([10.0, 50.0])), r_thr=r_thr)
    z_min = 2 ** l_z // 2 if regime == "vacuous" else 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    groups = []
    for _ in range(draw(st.integers(0, 8))):
        n = int(rng.integers(0, 13))
        z = rng.integers(z_min, 2 ** l_z, n).tolist()
        p = rng.integers(0, 2 ** cb.l_p, (n, 3)).tolist()
        groups.append(ObservationGroup(int(rng.integers(0, 2 ** (3 * cb.l_n))),
                                       [(zi, tuple(pi)) for zi, pi in zip(z, p)]))
    state = NavState()
    state.rotation = so3_exp(rng.uniform(-1, 1, 3))
    state.position = rng.uniform(-3, 3, 3)
    a = rng.standard_normal((ERROR_DIM, ERROR_DIM)) * 0.01
    cov = a @ a.T + np.eye(ERROR_DIM) * 1e-4
    extrinsic = (so3_exp(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-0.1, 0.1, 3))
    return state, cov, groups, cb, sigma, extrinsic


class TestQmapUpdate:
    @given(qmap_cases())
    def test_matches_member_loop_bitwise(self, case):
        assert_same_update(*case)

    def test_vacuous_and_empty_scans_match_member_loop(self):
        state, cov = NavState(), np.eye(ERROR_DIM) * 1e-3
        cb = Codebook(l_p=9, l_n=3, l_z=16, r_thr=1.0)
        top = 2 ** 16 - 1
        mixed = [ObservationGroup(9, [(0, (1, 2, 3)), (top, (4, 5, 6)), (700, (7, 8, 9))]),
                 ObservationGroup(300, [(top - 5, (10, 11, 12))])]
        info = assert_same_update(state, cov, mixed, cb, 0.01, IDENTITY)
        assert info == {"measurements": 2, "vacuous": 2, "updated": True}
        vacuous = [ObservationGroup(9, [(top, (1, 2, 3))]), ObservationGroup(10, [(40000, (0, 0, 0))])]
        info = assert_same_update(state, cov, vacuous, cb, 0.01, IDENTITY)
        assert info == {"measurements": 0, "vacuous": 2, "updated": False}
        for empty in ([], [ObservationGroup(9, []), ObservationGroup(11, [])]):
            info = assert_same_update(state, cov, empty, cb, 0.01, IDENTITY)
            assert info == {"measurements": 0, "vacuous": 0, "updated": False}

    def test_every_default_key_direction_matches_member_loop(self):
        # One member under each of the 512 keys of the default codebook; a
        # batched norm over the keys differs from the per-key norm in the
        # last bit for some of them.
        cb = Codebook()
        rng = np.random.default_rng(5)
        groups = [ObservationGroup(key, [(int(rng.integers(4)),
                                          tuple(int(v) for v in rng.integers(512, size=3)))])
                  for key in range(2 ** (3 * cb.l_n))]
        assert_same_update(NavState(), np.eye(ERROR_DIM) * 1e-3, groups, cb, 0.02, IDENTITY)

    def test_empty_groups_no_change(self):
        state = NavState()
        cov = np.eye(ERROR_DIM) * 0.01
        out, pout, info = qmap_update(state, cov, ObservationGroups.of([]), Codebook(), 0.02,
                                      IDENTITY)
        assert not info["updated"]
        np.testing.assert_array_equal(pout, cov)
        np.testing.assert_array_equal(out.position, state.position)

    def test_high_bit_matches_standard_oracle_on_identical_inputs(self):
        # The oracle is the standard point-likelihood update fed the same
        # dequantized direction and point reconstructions, so the comparison
        # isolates the interval-likelihood machinery, which must converge to
        # the standard update as the z grid refines.
        from quantlio.coprocessor import PlaneObservations
        from quantlio.quantizer import quantize_points, quantize_residual_vectors

        obs, cb = static_observations(sigma_r=0.01, seed=1)
        assert len(obs) >= 100
        state = NavState()
        cov = np.eye(ERROR_DIM) * 1e-3
        sigma = 0.02

        groups = build_groups(obs, cb)
        q_state, q_cov, info = qmap_update(state, cov, groups, cb, sigma, IDENTITY)

        _, n_center = quantize_residual_vectors(obs.residual_vector, cb)
        u = n_center / np.linalg.norm(n_center, axis=1, keepdims=True)
        _, p_recon = quantize_points(obs.point_lidar, cb)
        oracle_obs = PlaneObservations(
            point_world=obs.point_world, point_lidar=p_recon, normal=u,
            plane_offset=obs.plane_offset, residual=obs.residual)
        s_state, s_cov = standard_update(state, cov, oracle_obs, sigma, IDENTITY)

        assert info["updated"]
        assert np.linalg.norm(q_state.position - s_state.position) < 1e-6
        assert np.abs(q_cov - s_cov).max() < 1e-8

    def _floor_observation(self):
        from quantlio.coprocessor import PlaneObservations
        return PlaneObservations(
            point_world=np.array([[0.0, 0.0, -1.5]]),
            point_lidar=np.array([[0.0, 0.0, -1.5]]),
            normal=np.array([[0.0, 0.0, 1.0]]),
            plane_offset=np.array([1.5]),
            residual=np.array([0.01]))

    def test_floor_plane_shrinks_only_height_variance(self):
        # Exact-direction path: a single height observation touches only the
        # z position variance.
        state = NavState()
        cov = np.eye(ERROR_DIM) * 1e-2
        _, post = standard_update(state, cov, self._floor_observation(), 0.02, IDENTITY)
        assert post[5, 5] < cov[5, 5]
        assert abs(post[3, 3] - cov[3, 3]) < 1e-12
        assert abs(post[4, 4] - cov[4, 4]) < 1e-12

    def test_floor_plane_qmap_within_direction_budget(self):
        # Through the wire the direction is the residual-cell center, which
        # is never exactly axis-aligned; the x/y leakage stays bounded by the
        # squared quantization angle while z still contracts.
        state = NavState()
        cov = np.eye(ERROR_DIM) * 1e-2
        cb = Codebook(l_p=12, l_n=8, l_z=8, r_max=10.0)
        obs = self._floor_observation()
        groups = build_groups(obs, cb)
        _, post, info = qmap_update(state, cov, groups, cb, 0.02, IDENTITY)
        assert info["updated"]
        assert post[5, 5] < cov[5, 5]
        angle = (cb.residual_step / 2.0) / obs.residual[0]
        budget = 4.0 * angle ** 2 * (cov[5, 5] - post[5, 5])
        assert abs(post[3, 3] - cov[3, 3]) < budget
        assert abs(post[4, 4] - cov[4, 4]) < budget

    def test_covariance_contraction_psd(self):
        obs, cb = static_observations(sigma_r=0.02, seed=2)
        state = NavState()
        cov = np.eye(ERROR_DIM) * 1e-3
        groups = build_groups(obs, cb)
        _, post, _ = qmap_update(state, cov, groups, cb, 0.02, IDENTITY)
        assert np.linalg.eigvalsh(post).min() >= -1e-9
        assert np.linalg.eigvalsh(cov - post).min() >= -1e-9

    def test_non_psd_prior_reported(self):
        cov = np.eye(ERROR_DIM)
        cov[0, 0] = -1.0
        with pytest.raises(ValueError):
            qmap_update(NavState(), cov, ObservationGroups.of([]), Codebook(), 0.02, IDENTITY)


def make_host(sigma=0.02, imu=None):
    if imu is None:
        imu = [ImuSample(t_us=i * 5000, gyro=np.zeros(3), accel=np.array([0, 0, 9.81]))
               for i in range(401)]
    cfg = SessionConfig(codebook=Codebook(), ds_0=0.5, alpha=0.01, sigma=sigma,
                        extrinsic_rotation=np.eye(3), extrinsic_translation=np.zeros(3))
    return Host(state=NavState(), cov=np.eye(ERROR_DIM) * 1e-4,
                config=cfg, noise=NoiseParams(), imu=imu)


class TestHost:
    def pose_req(self, t_prev, t_k):
        return decode_frame(encode_frame(
            FrameType.POSE_REQ, int(t_k * 1e6),
            encode_pose_req(int(t_prev * 1e6), int(t_k * 1e6))))

    def test_static_pose_resp_identity_delta(self):
        host = make_host()
        reply = decode_frame(host.handle_frame(self.pose_req(0.0, 0.1)))
        assert reply.frame_type == FrameType.POSE_RESP
        (dr, dt), (pr, pt) = decode_pose_resp(reply.payload)
        np.testing.assert_allclose(dr, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(dt, 0.0, atol=1e-9)
        np.testing.assert_allclose(pt, 0.0, atol=1e-12)

    def test_dead_reckoning_when_obs_never_arrive(self):
        host = make_host()
        for k in range(1, 6):
            host.handle_frame(self.pose_req((k - 1) * 0.1, k * 0.1))
        assert host.skipped_scans == 4
        assert host.time == pytest.approx(0.5)
        np.testing.assert_allclose(host.state.position, 0.0, atol=1e-9)

    def test_duplicate_pose_req_rejected(self):
        host = make_host()
        host.handle_frame(self.pose_req(0.0, 0.1))
        with pytest.raises(ProtocolOrderError):
            host.handle_frame(self.pose_req(0.0, 0.1))

    def test_window_mismatch_rejected(self):
        host = make_host()
        host.handle_frame(self.pose_req(0.0, 0.1))
        with pytest.raises(ProtocolOrderError):
            host.handle_frame(self.pose_req(0.3, 0.4))

    def test_obs_groups_produce_state_update(self):
        host = make_host()
        host.handle_frame(self.pose_req(0.0, 0.1))
        payload = pack_groups([], host.config.codebook)
        reply = decode_frame(host.handle_frame(
            decode_frame(encode_frame(FrameType.OBS_GROUPS, 100000, payload))))
        assert reply.frame_type == FrameType.STATE_UPDATE
        assert len(host.logs) == 1
        assert host.logs[0].psd_ok and host.logs[0].contraction_ok

    def test_obs_without_pending_scan_rejected(self):
        host = make_host()
        payload = pack_groups([], host.config.codebook)
        with pytest.raises(ProtocolOrderError):
            host.handle_frame(decode_frame(
                encode_frame(FrameType.OBS_GROUPS, 100000, payload)))

    @pytest.mark.parametrize("frame_type", [FrameType.CONFIG, FrameType.POSE_RESP,
                                            FrameType.STATE_UPDATE])
    def test_frames_the_host_sends_are_refused(self, frame_type):
        with pytest.raises(ProtocolOrderError):
            make_host().handle_frame(WireFrame(frame_type, 0, b""))

    def test_no_imu_coverage_refused(self):
        host = make_host()
        with pytest.raises(ValueError):
            host.handle_frame(self.pose_req(0.0, 10.0))

    def test_propagates_only_the_scan_window(self, monkeypatch):
        # Jittered IMU times that never line up with the scan boundaries:
        # each scan hands propagate the samples from the last one at or
        # before t_prev to the first at or after t_k, and the filter ends
        # bit for bit where propagating over the whole stream ends.
        rng = np.random.default_rng(9)
        t_us = np.concatenate(([0], np.cumsum(rng.integers(3000, 7000, 399))))
        imu = [ImuSample(t_us=int(t), gyro=rng.normal(0, 0.3, 3),
                         accel=np.array([0, 0, 9.81]) + rng.normal(0, 0.5, 3))
               for t in t_us]
        host = make_host(imu=imu)
        handed = []
        monkeypatch.setattr("quantlio.estimator.propagate",
                            lambda state, cov, samples, *args, **kwargs:
                            handed.append(samples) or propagate(state, cov, samples,
                                                                *args, **kwargs))
        state, cov = host.state.copy(), host.cov.copy()
        times = t_us * 1e-6
        t_prev = 0.0
        for k in range(1, 9):
            host.handle_frame(decode_frame(encode_frame(
                FrameType.POSE_REQ, k * 100_000, encode_pose_req((k - 1) * 100_000, k * 100_000))))
            t_k = k * 100_000 * 1e-6  # as the host decodes it
            state, cov = propagate(state, cov, imu, host.noise, t_start=t_prev, t_end=t_k)
            window = handed[-1]
            assert window[0].t_us * 1e-6 <= t_prev < window[1].t_us * 1e-6
            assert window[-2].t_us * 1e-6 < t_k <= window[-1].t_us * 1e-6
            assert len(window) == np.count_nonzero((times > t_prev) & (times < t_k)) + 2
            t_prev = t_k
        for name in ("rotation", "position", "velocity", "bias_gyro", "bias_accel"):
            np.testing.assert_array_equal(getattr(host.state, name), getattr(state, name))
        np.testing.assert_array_equal(host.cov, cov)
