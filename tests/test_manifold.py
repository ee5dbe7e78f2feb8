import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantlio.manifold import (
    BA, BG, ERROR_DIM, GRAV, MAX_IMU_DT, POS, THETA, VEL,
    ImuStream, NavState, NoiseParams,
    boxminus, boxplus, imu_steps, propagate, quat_to_rot, rot_to_quat,
    skew, so3_exp, so3_log,
)


def exp_series(omega, terms=20):
    """Truncated matrix-exponential series, the independent rotation oracle."""
    w = skew(omega)
    out = np.eye(3)
    acc = np.eye(3)
    for n in range(1, terms):
        acc = acc @ w / n
        out = out + acc
    return out


def random_state(rng):
    x = NavState()
    x.rotation = so3_exp(rng.uniform(-2, 2, 3))
    x.position = rng.uniform(-5, 5, 3)
    x.velocity = rng.uniform(-2, 2, 3)
    x.bias_gyro = rng.uniform(-0.01, 0.01, 3)
    x.bias_accel = rng.uniform(-0.1, 0.1, 3)
    x.gravity = np.array([0.0, 0.0, -9.81]) + rng.uniform(-0.05, 0.05, 3)
    return x


class TestSo3:
    def test_exp_identity(self):
        np.testing.assert_allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_exp_quarter_turn(self):
        rot = so3_exp([0.0, 0.0, np.pi / 2])
        np.testing.assert_allclose(rot @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_exp_matches_series_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            omega = axis * rng.uniform(1e-3, np.pi - 1e-3)
            np.testing.assert_allclose(so3_exp(omega), exp_series(omega), atol=1e-12)
        # From 3e-8 to 1e-5 rad, across the 1e-6 rad series threshold,
        # against b2 = 2 sin^2(a/2) / a^2, which has no cancellation.
        for a in np.geomspace(3e-8, 1e-5, 200):
            axis = rng.standard_normal(3)
            omega = a * axis / np.linalg.norm(axis)
            w = skew(omega)
            want = np.eye(3) + np.sin(a) / a * w + 2.0 * np.sin(a / 2.0) ** 2 / a ** 2 * (w @ w)
            np.testing.assert_allclose(so3_exp(omega), want, rtol=0, atol=1e-15)

    def test_exp_orthonormal(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rot = so3_exp(rng.uniform(-np.pi, np.pi, 3))
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) > 0.0

    def test_log_identity(self):
        np.testing.assert_allclose(so3_log(np.eye(3)), np.zeros(3))

    def test_log_round_trip(self):
        np.testing.assert_allclose(so3_log(so3_exp([0.1, -0.2, 0.3])),
                                   [0.1, -0.2, 0.3], atol=1e-10)

    def test_log_near_pi_branch(self):
        omega = np.array([0.0, 0.0, np.pi])
        rot = exp_series(omega, terms=30)
        recovered = so3_log(rot)
        assert abs(np.linalg.norm(recovered) - np.pi) < 1e-9
        np.testing.assert_allclose(so3_exp(recovered), rot, atol=1e-9)

    def test_log_principal_branch(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rot = so3_exp(rng.uniform(-np.pi, np.pi, 3))
            assert np.linalg.norm(so3_log(rot)) <= np.pi + 1e-12
            np.testing.assert_allclose(so3_exp(so3_log(rot)), rot, atol=1e-9)

    def test_log_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            so3_log(np.eye(3) * 1.5)

    def test_quat_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rot = so3_exp(rng.uniform(-np.pi, np.pi, 3))
            np.testing.assert_allclose(quat_to_rot(rot_to_quat(rot)), rot, atol=1e-12)


class TestRetraction:
    def test_boxplus_zero(self):
        rng = np.random.default_rng(11)
        x = random_state(rng)
        y = boxplus(x, np.zeros(ERROR_DIM))
        np.testing.assert_allclose(boxminus(y, x), np.zeros(ERROR_DIM), atol=1e-12)

    def test_retraction_pair(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x, y = random_state(rng), random_state(rng)
            np.testing.assert_allclose(boxminus(boxplus(x, boxminus(y, x)), y),
                                       np.zeros(ERROR_DIM), atol=1e-9)
            dx = rng.uniform(-0.5, 0.5, ERROR_DIM)
            np.testing.assert_allclose(boxminus(boxplus(x, dx), x), dx, atol=1e-9)

    def test_pure_translation(self):
        rng = np.random.default_rng(13)
        x = random_state(rng)
        dx = np.zeros(ERROR_DIM)
        dx[POS] = [1.0, 0.0, 0.0]
        y = boxplus(x, dx)
        np.testing.assert_allclose(y.position, x.position + [1.0, 0.0, 0.0])
        np.testing.assert_allclose(y.rotation, x.rotation)
        np.testing.assert_allclose(y.velocity, x.velocity)

    def test_boxminus_self_zero(self):
        rng = np.random.default_rng(14)
        x = random_state(rng)
        assert boxminus(x, x).shape == (ERROR_DIM,)
        np.testing.assert_allclose(boxminus(x, x), np.zeros(ERROR_DIM))


def make_stream(duration, rate, gyro_fn, accel_fn):
    dt = 1.0 / rate
    n = int(round(duration * rate)) + 1
    return ImuStream(t_us=[int(round(i * dt * 1e6)) for i in range(n)],
                     gyro=[gyro_fn(i * dt) for i in range(n)],
                     accel=[accel_fn(i * dt) for i in range(n)])


def still(*t_us):
    """Zero readings at the stamps t_us."""
    return ImuStream(t_us, np.zeros((len(t_us), 3)), np.zeros((len(t_us), 3)))


# The per-step loop that propagate batches, kept as the reference: one
# scalar Euler step and one pair of Jacobians per interval between breaks.

def so3_right_jacobian(omega):
    """Right Jacobian of so3_exp: exp(w + dw) ~ exp(w) exp(Jr(w) dw)."""
    omega = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(omega))
    w = skew(omega)
    if angle < 1e-6:
        return np.eye(3) - 0.5 * w + (w @ w) / 6.0
    a2 = angle * angle
    c1 = (1.0 - np.cos(angle)) / a2
    c2 = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) - c1 * w + c2 * (w @ w)


def mean_step(state, gyro, accel, dt):
    """One Euler step of the zero-noise kinematics with held inputs."""
    omega = gyro - state.bias_gyro
    acc = accel - state.bias_accel
    out = state.copy()
    out.rotation = state.rotation @ so3_exp(omega * dt)
    out.position = state.position + state.velocity * dt
    out.velocity = state.velocity + (state.rotation @ acc + state.gravity) * dt
    return out


def step_jacobians(state, gyro, accel, dt):
    """Discrete Jacobians of the mean step wrt error state and noise input."""
    omega = (gyro - state.bias_gyro) * dt
    acc = accel - state.bias_accel
    jr_dt = so3_right_jacobian(omega) * dt

    fx = np.eye(ERROR_DIM)
    fx[THETA, THETA] = so3_exp(-omega)
    fx[THETA, BG] = -jr_dt
    fx[POS, VEL] = np.eye(3) * dt
    fx[VEL, THETA] = -(state.rotation @ skew(acc)) * dt
    fx[VEL, BA] = -state.rotation * dt
    fx[VEL, GRAV] = np.eye(3) * dt

    fw = np.zeros((ERROR_DIM, 12))
    fw[THETA, 0:3] = -jr_dt
    fw[VEL, 3:6] = -state.rotation * dt
    fw[BG, 6:9] = np.eye(3) * dt
    fw[BA, 9:12] = np.eye(3) * dt
    return fx, fw


def loop_propagate(state, cov, imu, noise, t_start=None, t_end=None):
    """propagate, one step at a time over the rows of the stream imu."""
    if not len(imu):
        raise ValueError("propagate needs at least one IMU sample")
    times = imu.t_us * 1e-6

    if t_start is None:
        t_start = times[0]
    if t_end is None:
        t_end = times[-1]
    if t_end < t_start:
        raise ValueError("t_end must not precede t_start")
    if times[0] > t_start + 1e-9:
        raise ValueError("IMU segment does not cover the requested start time")
    if times[-1] < t_end - MAX_IMU_DT - 1e-9:
        raise ValueError("IMU segment does not cover the requested end time")

    inner = times[(times > t_start) & (times < t_end)]
    breaks = np.concatenate(([t_start], inner, [t_end]))

    q_diag = noise.diffusion()
    x = state.copy()
    p = np.array(cov, dtype=float, copy=True)
    for a, b in zip(breaks[:-1], breaks[1:]):
        dt = b - a
        if dt <= 0.0:
            continue
        if dt > MAX_IMU_DT + 1e-9:
            raise ValueError(f"IMU step {dt:.4f}s exceeds {MAX_IMU_DT}s")
        idx = int(np.searchsorted(times, a + 1e-12) - 1)
        idx = max(idx, 0)
        gyro, accel = imu.gyro[idx], imu.accel[idx]
        fx, fw = step_jacobians(x, gyro, accel, dt)
        x = mean_step(x, gyro, accel, dt)
        p = fx @ p @ fx.T + fw @ np.diag(q_diag / dt) @ fw.T
        p = 0.5 * (p + p.T)
    return x, p


# Per-step rotation angles of a 5 ms step, on both sides of the series
# thresholds: 1e-8 rad for Exp and 1e-6 rad for the loop's right Jacobian.
STEP_ANGLES = (0.0, 4e-9, 3e-8, 5e-7, 3e-6, 1e-3, 0.3)


def window_case(seed, gaps_us, angles, t_start=None, t_end=None):
    """(state, covariance, stream) for samples gaps_us apart, each turning
    by its entry of angles over 5 ms once the state's gyro bias is removed."""
    rng = np.random.default_rng(seed)
    x = random_state(rng)
    a = rng.standard_normal((ERROR_DIM, ERROR_DIM))
    cov = 1e-3 * a @ a.T + 1e-6 * np.eye(ERROR_DIM)
    cov = 0.5 * (cov + cov.T)
    t_us = 1_000_000 + np.concatenate(([0], np.cumsum(gaps_us, dtype=np.int64)))
    gyro, accel = [], []
    for angle in angles:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        gyro.append(x.bias_gyro + axis * angle / 0.005)
        accel.append(rng.uniform(-2.0, 2.0, 3) + [0.0, 0.0, 9.81])
    return x, cov, ImuStream(t_us, gyro, accel)


def assert_matches_loop(state, cov, samples, t_start=None, t_end=None):
    noise = NoiseParams()
    got, p_got = propagate(state, cov, samples, noise, t_start=t_start, t_end=t_end)
    want, p_want = loop_propagate(state, cov, samples, noise, t_start=t_start, t_end=t_end)
    for name in ("rotation", "position", "velocity", "bias_gyro", "bias_accel", "gravity"):
        diff = np.abs(getattr(got, name) - getattr(want, name)).max()
        assert diff <= 1e-12, (name, diff)
    assert np.abs(p_got - p_want).max() <= 1e-12 * np.abs(p_want).max()
    np.testing.assert_array_equal(p_got, p_got.T)


class TestPropagate:
    def test_stationary_hover(self):
        x = NavState()
        p = np.eye(ERROR_DIM) * 1e-4
        stream = make_stream(1.0, 200, lambda t: np.zeros(3),
                             lambda t: np.array([0.0, 0.0, 9.81]))
        out, _ = propagate(x, p, stream, NoiseParams())
        np.testing.assert_allclose(out.position, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(out.velocity, np.zeros(3), atol=1e-9)

    def test_free_fall(self):
        x = NavState()
        p = np.eye(ERROR_DIM) * 1e-4
        stream = make_stream(0.1, 200, lambda t: np.zeros(3), lambda t: np.zeros(3))
        out, _ = propagate(x, p, stream, NoiseParams())
        np.testing.assert_allclose(out.velocity, x.gravity * 0.1, atol=1e-12)

    def test_sinusoidal_against_fine_integrator(self):
        # Gentle whole-period sinusoids over 1 s; the oracle integrates the
        # same zero-order-held inputs at 10 kHz. Amplitudes are sized so the
        # per-sample Euler truncation stays well inside the 1e-5 m budget.
        rate = 200.0
        gyro_fn = lambda t: np.array([0.0, 0.0, 0.05 * np.sin(2 * np.pi * t)])
        accel_fn = lambda t: np.array([0.1 * np.sin(2 * np.pi * t),
                                       0.1 * np.cos(4 * np.pi * t),
                                       9.81 + 0.1 * np.sin(2 * np.pi * t)])
        stream = make_stream(1.0, rate, gyro_fn, accel_fn)

        x0 = NavState()
        p0 = np.eye(ERROR_DIM) * 1e-6
        coarse, _ = propagate(x0, p0, stream, NoiseParams())

        # Oracle: Euler at 10 kHz holding each 200 Hz sample over its interval.
        sub = 50
        rot = x0.rotation.copy()
        pos = x0.position.copy()
        vel = x0.velocity.copy()
        h = 1.0 / rate / sub
        for gyro, accel in zip(stream.gyro[:-1], stream.accel[:-1]):
            for _ in range(sub):
                pos = pos + vel * h
                vel = vel + (rot @ accel + x0.gravity) * h
                rot = rot @ so3_exp(gyro * h)
        assert np.linalg.norm(coarse.position - pos) < 1e-5

    def test_covariance_psd_over_random_steps(self):
        rng = np.random.default_rng(15)
        x = random_state(rng)
        p = np.eye(ERROR_DIM) * 1e-3
        noise = NoiseParams()
        t = 0
        for _ in range(1000):
            gyro = rng.uniform(-0.5, 0.5, 3)
            accel = rng.uniform(-1, 1, 3) + np.array([0, 0, 9.81])
            samples = ImuStream([t, t + 5000], [gyro, gyro], [accel, accel])
            x, p = propagate(x, p, samples, noise)
            t += 5000
        np.testing.assert_allclose(p, p.T, atol=1e-9)
        assert np.linalg.eigvalsh(p).min() >= -1e-9

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        noise = NoiseParams()
        dt = 0.005
        for _ in range(10):
            x = random_state(rng)
            gyro = rng.uniform(-0.5, 0.5, 3)
            accel = rng.uniform(-1, 1, 3)
            fx = imu_steps(x, gyro[None], accel[None], np.array([dt]))[1][0]

            def mean_map(state):
                samples = ImuStream([0, int(dt * 1e6)], [gyro, gyro], [accel, accel])
                out, _ = propagate(state, np.eye(ERROR_DIM), samples, noise)
                return out

            base = mean_map(x)
            eps = 1e-6
            fd = np.zeros((ERROR_DIM, ERROR_DIM))
            for j in range(ERROR_DIM):
                dv = np.zeros(ERROR_DIM)
                dv[j] = eps
                fd[:, j] = (boxminus(mean_map(boxplus(x, dv)), base)
                            - boxminus(mean_map(boxplus(x, -dv)), base)) / (2 * eps)
            scale = max(1.0, np.abs(fx).max())
            assert np.abs(fd - fx).max() / scale < 1e-4

    def test_errors(self):
        x = NavState()
        p = np.eye(ERROR_DIM)
        with pytest.raises(ValueError, match="at least one IMU sample"):
            propagate(x, p, still(), NoiseParams())
        with pytest.raises(ValueError, match=r"IMU step 0\.2000s exceeds 0\.05s"):
            propagate(x, p, still(0, 200_000), NoiseParams())

    def test_window_errors(self):
        x = NavState()
        p = np.eye(ERROR_DIM)
        stream = make_stream(0.1, 200, lambda t: np.zeros(3), lambda t: np.zeros(3))
        with pytest.raises(ValueError, match="must not precede"):
            propagate(x, p, stream, NoiseParams(), t_start=0.05, t_end=0.04)
        with pytest.raises(ValueError, match="cover the requested start"):
            propagate(x, p, stream.window(0.01, 0.1), NoiseParams(), t_start=0.0, t_end=0.04)
        with pytest.raises(ValueError, match="cover the requested end"):
            propagate(x, p, stream, NoiseParams(), t_start=0.0, t_end=0.2)
        # The first step past the bound is the one reported.
        gappy = still(*stream.t_us[:3], 80_000, 200_000)
        with pytest.raises(ValueError, match=r"IMU step 0\.0700s exceeds"):
            propagate(x, p, gappy, NoiseParams())

    def test_imu_steps_match_loop_jacobians(self):
        rng = np.random.default_rng(17)
        x = random_state(rng)
        n = 3 * len(STEP_ANGLES)
        dt = rng.uniform(1e-4, MAX_IMU_DT, n)
        axes = rng.standard_normal((n, 3))
        angles = np.resize(STEP_ANGLES, n)
        gyro = x.bias_gyro + axes / np.linalg.norm(axes, axis=1)[:, None] * (angles / dt)[:, None]
        accel = rng.uniform(-2.0, 2.0, (n, 3))
        end, fx, fw = imu_steps(x, gyro, accel, dt)
        for k in range(n):
            want_fx, want_fw = step_jacobians(x, gyro[k], accel[k], dt[k])
            np.testing.assert_allclose(fx[k], want_fx, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(fw[k], want_fw, rtol=0.0, atol=1e-12)
            x = mean_step(x, gyro[k], accel[k], dt[k])
        np.testing.assert_allclose(end.rotation, x.rotation, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(end.position, x.position, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(end.velocity, x.velocity, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("gaps_us, angles, t_start, t_end", [
        ([5000], [0.2, 0.2], None, None),                        # one step
        ([5000] * 4, [1e-3] * 5, 1.0021, 1.0174),                # clipped between samples
        ([5000] * 4, [1e-3] * 5, 1.0121, 1.0121),                # t_start == t_end
        ([5000] * 3, [1e-3] * 4, 1.0, 1.04),                     # held past the last sample
        ([5000] * 6, list(STEP_ANGLES), None, None),             # both series thresholds
        ([1000, 50_000, 2500], [3e-6, 0.3, 4e-9, 5e-7], 1.0004, 1.0535),
    ])
    def test_matches_loop_on_named_windows(self, gaps_us, angles, t_start, t_end):
        x, cov, samples = window_case(18, gaps_us, angles)
        assert_matches_loop(x, cov, samples, t_start, t_end)

    def test_matches_loop_over_a_long_window(self):
        # 400 steps of 5 ms, two seconds in one window: the closed form's
        # suffix products run over every step.
        x, cov, samples = window_case(19, [5000] * 400, np.resize(STEP_ANGLES, 401))
        assert_matches_loop(x, cov, samples)

    def test_rank_deficient_prior_stays_psd_over_a_long_window(self):
        # With no noise the window maps a rank-5 prior to a rank-5 result, so
        # its smallest eigenvalue is zero up to rounding.
        x, _, samples = window_case(20, [5000] * 400, np.resize(STEP_ANGLES, 401))
        a = np.random.default_rng(20).standard_normal((ERROR_DIM, 5))
        _, p = propagate(x, a @ a.T, samples, NoiseParams(0.0, 0.0, 0.0, 0.0))
        assert np.linalg.eigvalsh(p).min() >= -1e-12 * np.abs(p).max()

    @given(seed=st.integers(0, 2 ** 32 - 1),
           steps=st.lists(st.tuples(st.sampled_from([1000, 2500, 5000, 20_000, 50_000]),
                                    st.sampled_from(STEP_ANGLES)), min_size=0, max_size=6),
           first_angle=st.sampled_from(STEP_ANGLES),
           start=st.floats(0.0, 1.0), span=st.floats(0.0, 1.0),
           past_end=st.sampled_from([0.0, 0.0, 0.003, 0.04]),
           default_window=st.booleans())
    def test_matches_loop(self, seed, steps, first_angle, start, span, past_end,
                          default_window):
        gaps = [g for g, _ in steps]
        x, cov, samples = window_case(seed, gaps, [first_angle] + [a for _, a in steps])
        if default_window:
            assert_matches_loop(x, cov, samples)
            return
        t0, t1 = samples.t_us[0] * 1e-6, samples.t_us[-1] * 1e-6 + past_end
        t_start = t0 + start * (t1 - t0)
        assert_matches_loop(x, cov, samples, t_start, t_start + span * (t1 - t_start))


class TestImuStream:
    def test_constructor_checks_stamps_and_shapes(self):
        for t_us in ([0, 0], [5000, 0], [0, 5000, 5000], [0, 10_000, 5000]):
            with pytest.raises(ValueError, match="strictly increase"):
                still(*t_us)
        zeros = np.zeros((2, 3))
        for t_us, gyro, accel in (([0, 5000, 10_000], zeros, zeros),
                                  ([0, 5000], zeros, np.zeros((3, 3))),
                                  ([0, 5000], np.zeros((2, 2)), zeros),
                                  ([[0, 5000]], zeros, zeros)):
            with pytest.raises(ValueError, match="IMU stream needs"):
                ImuStream(t_us, gyro, accel)
        stream = still(0, 5000, 10_000)
        assert len(stream) == 3 and stream.t_us.dtype == np.int64
        np.testing.assert_array_equal(stream.t, [0.0, 0.005, 0.01])

    @given(seed=st.integers(0, 2 ** 32 - 1),
           gaps=st.lists(st.integers(1, 50_000), min_size=0, max_size=30),
           start=st.one_of(st.floats(0.0, 1.0), st.integers(0, 30)),
           span=st.one_of(st.floats(0.0, 1.0), st.integers(0, 30)))
    def test_window_holds_what_propagate_reads(self, seed, gaps, start, span):
        x, cov, stream = window_case(seed, gaps, np.resize(STEP_ANGLES, len(gaps) + 1))
        stamps = stream.t_us.tolist()

        def pick(u, lo):
            """A time in [lo, last stamp]: a float u that share of the way, an
            integer u stamp u, where searchsorted's sides matter."""
            hi = stamps[-1] * 1e-6
            t = stamps[min(u, len(stamps) - 1)] * 1e-6 if isinstance(u, int) \
                else lo + u * (hi - lo)
            return min(max(t, lo), hi)

        t0 = pick(start, stamps[0] * 1e-6)
        t1 = pick(span, t0)
        got = stream.window(t0, t1)
        first = max(i for i, t in enumerate(stamps) if t * 1e-6 <= t0)
        last = min(i for i, t in enumerate(stamps) if t * 1e-6 >= t1)
        assert len(got) == last - first + 1
        for name in ("t_us", "gyro", "accel", "t"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(stream, name)[first:last + 1])
        noise = NoiseParams()
        x_win, p_win = propagate(x, cov, got, noise, t_start=t0, t_end=t1)
        x_all, p_all = propagate(x, cov, stream, noise, t_start=t0, t_end=t1)
        for name in ("rotation", "position", "velocity"):
            np.testing.assert_array_equal(getattr(x_win, name), getattr(x_all, name))
        np.testing.assert_array_equal(p_win, p_all)


@pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["gyro_density", "accel_density", "gyro_rw", "accel_rw"])
def test_noise_params_refuse_negative_or_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
        NoiseParams(**{name: value})
