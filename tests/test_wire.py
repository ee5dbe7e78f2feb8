import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from quantlio.coprocessor import ObservationGroup
from quantlio.manifold import quat_to_rot, so3_exp
from quantlio.quantizer import Codebook
from quantlio.wire import (
    HEADER, MAGIC, MAX_PAYLOAD, VERSION, BadCrc, BadMagic, BadVersion, FrameType,
    ObservationGroups, PeerClosed, PlaneObservations, SessionConfig, StreamTransport,
    TruncatedFrame, UnknownFrameType, WireError, WireFrame,
    decode_config, decode_frame, decode_obs_float, decode_pose_req, decode_pose_resp,
    decode_state_update, encode_config, encode_frame, encode_obs_float, encode_pose_req,
    encode_pose_resp, encode_state_update, pack_groups,
    payload_bits, tcp_connect, tcp_listen, unpack_groups,
)


def socket_pair() -> tuple[StreamTransport, StreamTransport]:
    """Duplex in-process transport pair backed by a socketpair."""
    a, b = socket.socketpair()
    return StreamTransport(a), StreamTransport(b)


def random_groups(rng, cb, max_groups=6, max_members=8):
    n_keys = min(2 ** (3 * cb.l_n), max_groups)
    keys = sorted(rng.choice(2 ** (3 * cb.l_n), size=n_keys, replace=False))
    groups = []
    for key in keys:
        members = []
        for _ in range(rng.integers(1, max_members + 1)):
            members.append((int(rng.integers(0, 2 ** cb.l_z)),
                            tuple(int(v) for v in rng.integers(0, 2 ** cb.l_p, 3))))
        members.sort(key=lambda m: (m[1], m[0]))
        groups.append(ObservationGroup(rq_key=int(key), members=members))
    return groups


class BitWriter:
    """Reference MSB-first bit packer, one field at a time."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >> width:
            raise WireError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nbits += width
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        out = bytes(self._out)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    """Reference MSB-first bit unpacker, one field at a time."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        end = self._pos + width
        if end > 8 * len(self._data):
            raise TruncatedFrame("bitstream exhausted")
        value = 0
        pos = self._pos
        while width > 0:
            byte = self._data[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(avail, width)
            shift = avail - take
            value = (value << take) | ((byte >> shift) & ((1 << take) - 1))
            pos += take
            width -= take
        self._pos = pos
        return value


def reference_pack(groups, cb):
    """OBS_GROUPS payload written field by field: every group header, then
    every member."""
    writer = BitWriter()
    for group in groups:
        writer.write(group.rq_key, 3 * cb.l_n)
        writer.write(len(group.members), 16)
    for group in groups:
        for z_index, (px, py, pz) in group.members:
            writer.write(z_index, cb.l_z)
            writer.write(px, cb.l_p)
            writer.write(py, cb.l_p)
            writer.write(pz, cb.l_p)
    return struct.pack("<H", len(groups)) + writer.getvalue()


def reference_unpack(payload, cb):
    """(key, members) per group, read field by field: every group header,
    then every member."""
    (count,) = struct.unpack_from("<H", payload)
    reader = BitReader(payload[2:])
    heads = [(reader.read(3 * cb.l_n), reader.read(16)) for _ in range(count)]
    return [(key, [(reader.read(cb.l_z), (reader.read(cb.l_p), reader.read(cb.l_p),
                                          reader.read(cb.l_p)))
                   for _ in range(n)])
            for key, n in heads]


@st.composite
def codebook_groups(draw, max_groups=6, max_members=8):
    """A codebook with l_p 1-16, l_n 1-8, l_z 1-16 and a group set, possibly
    empty, whose groups may have no members; field values span each width."""
    cb = Codebook(l_p=draw(st.integers(1, 16)), l_n=draw(st.integers(1, 8)),
                  l_z=draw(st.integers(1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    groups = []
    for _ in range(draw(st.integers(0, max_groups))):
        n = int(rng.integers(0, max_members + 1))
        z = rng.integers(0, 2 ** cb.l_z, n).tolist()
        p = rng.integers(0, 2 ** cb.l_p, (n, 3)).tolist()
        groups.append(ObservationGroup(rq_key=int(rng.integers(0, 2 ** (3 * cb.l_n))),
                                       members=[(zi, tuple(pi)) for zi, pi in zip(z, p)]))
    return cb, groups


class TestFraming:
    def test_empty_frame_is_20_bytes(self):
        frame = encode_frame(FrameType.POSE_REQ, 0, b"")
        assert len(frame) == 20

    def test_round_trip_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ftype = FrameType(int(rng.integers(0, len(FrameType))))
            ts = int(rng.integers(0, 2 ** 63))
            payload = rng.bytes(int(rng.integers(0, 200)))
            frame = decode_frame(encode_frame(ftype, ts, payload))
            assert frame.frame_type == ftype
            assert frame.timestamp_us == ts
            assert frame.payload == payload

    def test_single_bit_flip_sweep_detected(self):
        payload = bytes(range(44))  # 64-byte frame total
        encoded = encode_frame(FrameType.OBS_GROUPS, 123456, payload)
        assert len(encoded) == 64
        for byte_idx in range(64):
            for bit in range(8):
                corrupted = bytearray(encoded)
                corrupted[byte_idx] ^= 1 << bit
                with pytest.raises(WireError):
                    decode_frame(bytes(corrupted))
                # Corruption past the fixed header fields is a CRC matter.
                if 4 <= byte_idx < 12 or byte_idx >= 16:
                    with pytest.raises(BadCrc):
                        decode_frame(bytes(corrupted))

    def test_typed_errors(self):
        good = encode_frame(FrameType.CONFIG, 1, b"xy")
        with pytest.raises(BadMagic):
            decode_frame(b"zz" + good[2:])
        with pytest.raises(BadVersion):
            bad = bytearray(good)
            bad[2] = 9
            decode_frame(bytes(bad))
        with pytest.raises(TruncatedFrame):
            decode_frame(good[:10])
        with pytest.raises(TruncatedFrame):
            decode_frame(good[:-1])
        # Unknown type with a valid CRC.
        head = bytearray(good)
        head[3] = 0x7F
        import struct, zlib
        body = bytes(head[:-4])
        with pytest.raises(UnknownFrameType):
            decode_frame(body + struct.pack("<I", zlib.crc32(body)))

    def test_oversized_payload_rejected(self):
        with pytest.raises(WireError):
            encode_frame(FrameType.CONFIG, 0, b"\x00" * (2 ** 24))


class TestBitPacking:
    def test_writer_reader_round_trip(self):
        rng = np.random.default_rng(1)
        fields = [(int(rng.integers(0, 2 ** w)), int(w))
                  for w in rng.integers(1, 24, 500)]
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read(width) == value

    def test_overflow_rejected(self):
        with pytest.raises(WireError):
            BitWriter().write(4, 2)
        with pytest.raises(WireError):
            pack_groups([ObservationGroup(rq_key=0, members=[(4, (0, 0, 0))])],
                        Codebook(l_z=2))

    def test_worked_example_sizes(self):
        cb = Codebook(l_p=3, l_n=3, l_z=2)
        one = [ObservationGroup(rq_key=5, members=[(1, (2, 3, 4))])]
        packed = pack_groups(one, cb)
        # 9 + 16 + 11 = 36 bits -> 5 bitstream bytes, plus the 2-byte count.
        assert payload_bits(ObservationGroups.of(one), cb) == 36
        assert len(packed) == 7
        assert packed == bytes.fromhex("0100028000a9c0")

    def test_worked_example_two_groups_headers_first(self):
        cb = Codebook(l_p=3, l_n=3, l_z=2)
        groups = [ObservationGroup(rq_key=5, members=[(1, (2, 3, 4))]),
                  ObservationGroup(rq_key=6, members=[(0, (1, 1, 1)), (3, (7, 0, 5))])]
        # Count 2 (u16 LE), then both headers, then all three members:
        #   key 5 000000101, count 1 0000000000000001,
        #   key 6 000000110, count 2 0000000000000010,
        #   01 010 011 100, 00 001 001 001, 11 111 000 101,
        # 83 bits plus 5 zero padding bits.
        payload = bytes.fromhex("020002800081800094e049f8a0")
        assert pack_groups(groups, cb) == payload
        assert list(unpack_groups(payload, cb)) == groups

    def test_single_bit_flips_decode_or_raise_wire_error(self):
        rng = np.random.default_rng(5)
        cb = Codebook(l_p=4, l_n=2, l_z=2)
        payload = pack_groups(random_groups(rng, cb, max_groups=4, max_members=3), cb)
        assert len(unpack_groups(payload, cb)) == 4
        for byte_idx in range(len(payload)):
            for bit in range(8):
                corrupted = bytearray(payload)
                corrupted[byte_idx] ^= 1 << bit
                try:
                    unpack_groups(bytes(corrupted), cb)
                except WireError:
                    pass

    def test_empty_set_two_bytes(self):
        cb = Codebook()
        empty = ObservationGroups.of([])
        assert pack_groups([], cb) == pack_groups(empty, cb) == b"\x00\x00"
        decoded = unpack_groups(b"\x00\x00", cb)
        for record in (empty, decoded):
            assert len(record) == 0 and list(record) == []
            assert record.members.shape == (0, 4)
            assert record.keys.dtype == record.counts.dtype == record.members.dtype == np.int64

    def test_random_round_trips_bit_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            cb = Codebook(l_p=int(rng.integers(1, 17)), l_n=int(rng.integers(1, 9)),
                          l_z=int(rng.integers(1, 9)))
            groups = random_groups(rng, cb)
            packed = pack_groups(groups, cb)
            decoded = unpack_groups(packed, cb)
            assert [(g.rq_key, g.members) for g in decoded] == \
                   [(g.rq_key, g.members) for g in groups]
            assert pack_groups(decoded, cb) == packed

    @given(codebook_groups())
    def test_pack_matches_reference_and_round_trips(self, case):
        cb, groups = case
        packed = pack_groups(groups, cb)
        assert packed == reference_pack(groups, cb)
        decoded = unpack_groups(packed, cb)
        assert [(g.rq_key, g.members) for g in decoded] == \
               [(g.rq_key, g.members) for g in groups] == reference_unpack(packed, cb)
        assert all(type(v) is int for g in decoded for z, p in g.members for v in (z, *p))
        # The decoded record holds the arrays the input flattens to.
        record = ObservationGroups.of(groups)
        for name in ("keys", "counts", "members"):
            got, want = getattr(decoded, name), getattr(record, name)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        assert decoded.members.shape == (sum(len(g.members) for g in groups), 4)
        assert len(decoded) == len(record) == len(groups)
        assert list(decoded) == list(record) == groups
        assert pack_groups(record, cb) == packed

    @given(codebook_groups(max_groups=3, max_members=3), st.data())
    def test_out_of_range_fields_rejected(self, case, data):
        cb, groups = case
        groups.append(ObservationGroup(rq_key=0, members=[(0, (0, 0, 0))]))
        field = data.draw(st.sampled_from(["key", "z", "px", "py", "pz"]))
        width = {"key": 3 * cb.l_n, "z": cb.l_z}.get(field, cb.l_p)
        bad = data.draw(st.one_of(st.integers(-2 ** 70, -1),
                                  st.integers(2 ** width, 2 ** width + 2 ** 20),
                                  st.integers(2 ** 63, 2 ** 70)))
        target = groups[data.draw(st.integers(0, len(groups) - 1))]
        if field == "key":
            target.rq_key = bad
        else:
            target.members = target.members or [(0, (0, 0, 0))]
            i = data.draw(st.integers(0, len(target.members) - 1))
            z, p = target.members[i]
            p = list(p)
            if field == "z":
                z = bad
            else:
                p["xyz".index(field[1])] = bad
            target.members[i] = (z, tuple(p))
        with pytest.raises(WireError):
            pack_groups(groups, cb)

    def test_count_limits(self):
        cb = Codebook()
        with pytest.raises(WireError):
            pack_groups([ObservationGroup(0, [])] * 0x10000, cb)
        with pytest.raises(WireError):
            pack_groups([ObservationGroup(0, [(0, (0, 0, 0))] * 0x10000)], cb)

    @given(codebook_groups(max_groups=4, max_members=4))
    def test_every_strict_prefix_truncated(self, case):
        cb, groups = case
        packed = pack_groups(groups, cb)
        for end in range(len(packed)):
            with pytest.raises(TruncatedFrame):
                unpack_groups(packed[:end], cb)

    @given(codebook_groups(max_groups=4, max_members=4), st.binary(min_size=1, max_size=3),
           st.data())
    def test_trailing_bytes_and_padding_bits_rejected(self, case, extra, data):
        cb, groups = case
        packed = pack_groups(groups, cb)
        bad = [packed + extra]
        pad = 8 * (len(packed) - 2) - payload_bits(ObservationGroups.of(groups), cb)
        if pad:
            bit = data.draw(st.integers(0, pad - 1))
            bad.append(packed[:-1] + bytes([packed[-1] | 1 << bit]))
        for payload in bad:
            with pytest.raises(WireError) as err:
                unpack_groups(payload, cb)
            assert not isinstance(err.value, TruncatedFrame)

    def test_worked_example_strict(self):
        cb = Codebook(l_p=3, l_n=3, l_z=2)
        payload = bytes.fromhex("0100028000a9c0")
        assert [(g.rq_key, g.members) for g in unpack_groups(payload, cb)] == \
               [(5, [(1, (2, 3, 4))])]
        for bad in (payload + b"\xff\xff", payload[:-1] + b"\xc1", payload[:-1] + b"\xcf"):
            with pytest.raises(WireError) as err:
                unpack_groups(bad, cb)
            assert not isinstance(err.value, TruncatedFrame)

    def test_padding_bounded(self):
        rng = np.random.default_rng(3)
        cb = Codebook(l_p=5, l_n=2, l_z=3)
        groups = random_groups(rng, cb)
        packed = pack_groups(groups, cb)
        bits = payload_bits(ObservationGroups.of(groups), cb)
        assert 0 <= 8 * (len(packed) - 2) - bits < 8


class TestPayloadCodecs:
    def test_config_round_trip(self):
        cfg = SessionConfig(
            codebook=Codebook(l_p=9, l_n=3, l_z=2, r_max=50.0, r_thr=0.04),
            ds_0=0.5, alpha=0.01, sigma=0.02,
            extrinsic_rotation=so3_exp([0.1, -0.2, 0.3]),
            extrinsic_translation=np.array([0.05, 0.0, 0.08]))
        payload = encode_config(cfg)
        assert len(payload) == 139
        back = decode_config(payload)
        assert back.codebook == cfg.codebook
        assert back.sigma == cfg.sigma
        np.testing.assert_allclose(back.extrinsic_rotation, cfg.extrinsic_rotation)
        np.testing.assert_allclose(back.extrinsic_translation, cfg.extrinsic_translation)

    # Byte offset and struct format of each CONFIG field a test corrupts.
    CONFIG_FIELDS = {"l_p": (0, "<B"), "r_max": (3, "<d"), "ds_0": (19, "<d"),
                     "alpha": (27, "<d"), "sigma": (35, "<d")}

    @pytest.mark.parametrize("name, value, message", [
        ("ds_0", 0.0, "ds_0 must be positive"),
        ("ds_0", float("nan"), "ds_0 must be positive"),
        ("alpha", -0.01, "alpha must be nonnegative"),
        ("alpha", float("nan"), "alpha must be nonnegative"),
        ("sigma", 0.0, "sigma must be positive"),
        ("sigma", -0.02, "sigma must be positive"),
        ("sigma", float("nan"), "sigma must be positive"),
        ("l_p", 0, "l_p must be in"),
        ("ds_0", float("inf"), "ds_0 must be positive and finite"),
        ("alpha", float("inf"), "alpha must be nonnegative and finite"),
        ("sigma", float("inf"), "sigma must be positive and finite"),
        ("sigma", 1e-155, "sigma must be positive and finite, at least 1.49e-154"),
        ("r_max", float("inf"), "r_max must be positive and finite"),
    ])
    def test_config_refuses_what_run_config_refuses(self, name, value, message):
        # A setting RunConfig or Codebook refuses is a WireError on decode,
        # before it can reach the coprocessor's voxel filter.
        payload = bytearray(encode_config(SessionConfig(
            codebook=Codebook(), ds_0=0.5, alpha=0.01, sigma=0.02,
            extrinsic_rotation=np.eye(3), extrinsic_translation=np.zeros(3))))
        decode_config(bytes(payload))
        offset, fmt = self.CONFIG_FIELDS[name]
        struct.pack_into(fmt, payload, offset, value)
        with pytest.raises(WireError, match=f"CONFIG refused: {message}"):
            decode_config(bytes(payload))

    @pytest.mark.parametrize("rotation, translation, message", [
        (np.diag([1.0, np.nan, 1.0]), np.zeros(3), "extrinsic must be finite"),
        (np.eye(3), np.array([0.0, np.inf, 0.0]), "extrinsic must be finite"),
        (2.0 * np.eye(3), np.zeros(3), "orthonormal with determinant"),
        (np.diag([1.0, 1.0, -1.0]), np.zeros(3), "orthonormal with determinant"),
    ])
    def test_config_refuses_a_bad_extrinsic(self, rotation, translation, message):
        # With a NaN extrinsic the coprocessor associates nothing, and a
        # scaled or reflected one misplaces every point; either is refused
        # on decode.
        payload = encode_config(SessionConfig(
            codebook=Codebook(), ds_0=0.5, alpha=0.01, sigma=0.02,
            extrinsic_rotation=rotation, extrinsic_translation=translation))
        with pytest.raises(WireError, match=f"CONFIG refused: .*{message}"):
            decode_config(payload)

    def test_pose_req_round_trip(self):
        payload = encode_pose_req(1_000_000, 1_100_000)
        assert len(payload) == 16
        assert decode_pose_req(payload) == (1_000_000, 1_100_000)

    def test_pose_resp_round_trip(self):
        rng = np.random.default_rng(4)
        delta = (so3_exp(rng.uniform(-1, 1, 3)), rng.uniform(-1, 1, 3))
        prev = (so3_exp(rng.uniform(-1, 1, 3)), rng.uniform(-5, 5, 3))
        payload = encode_pose_resp(delta, prev)
        assert len(payload) == 112
        (dr, dt), (pr, pt) = decode_pose_resp(payload)
        np.testing.assert_allclose(dr, delta[0], atol=1e-12)
        np.testing.assert_allclose(dt, delta[1], atol=1e-12)
        np.testing.assert_allclose(pr, prev[0], atol=1e-12)
        np.testing.assert_allclose(pt, prev[1], atol=1e-12)

    def test_state_update_round_trip(self):
        pose = (so3_exp([0.0, 0.1, 0.0]), np.array([1.0, 2.0, 3.0]))
        payload = encode_state_update(pose)
        assert len(payload) == 56
        rot, trans = decode_state_update(payload)
        np.testing.assert_allclose(rot, pose[0], atol=1e-12)
        np.testing.assert_allclose(trans, pose[1], atol=1e-12)
        # An accepted pose, also one just off unit norm, is quat_to_rot of
        # the sent quaternion and the sent translation, bit for bit.
        for vals in (struct.unpack("<7d", payload), (1.0 + 5e-10, 0, 0, 0, 1.0, 2.0, 3.0)):
            rot, trans = decode_state_update(struct.pack("<7d", *vals))
            assert rot.tobytes() == quat_to_rot(vals[:4]).tobytes()
            assert trans.tobytes() == np.array(vals[4:], dtype=float).tobytes()

    @pytest.mark.parametrize("vals, message", [
        ((0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0), "unit quaternion"),
        ((2.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0), "unit quaternion"),
        ((1.0 + 2e-9, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0), "unit quaternion"),
        ((np.nan, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0), "not finite"),
        ((1.0, 0.0, 0.0, 0.0, 1.0, np.inf, 3.0), "not finite"),
        ((1.0, 0.0, 0.0, 0.0, np.nan, 2.0, 3.0), "not finite"),
    ])
    def test_pose_frames_refuse_bad_values(self, vals, message):
        # Without the check a zero or NaN quaternion decodes to a NaN
        # rotation, and an infinite translation passes as it is.
        bad, good = struct.pack("<7d", *vals), encode_state_update((np.eye(3), np.zeros(3)))
        for decode, payload in ((decode_state_update, bad),
                                (decode_pose_resp, bad + good), (decode_pose_resp, good + bad)):
            with pytest.raises(WireError, match=message):
                decode(payload)


def obs_rows(rows) -> PlaneObservations:
    """Observations from (n, 7) rows of residual, normal, point."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 7)
    return PlaneObservations(point_lidar=rows[:, 4:], normal=rows[:, 1:4], residual=rows[:, 0])


class TestObsFloat:
    # Below the float32 maximum, so the f32 rounding of every value is finite.
    @given(arrays(np.float64, st.tuples(st.integers(0, 40), st.just(7)),
                  elements=st.floats(-1e38, 1e38)))
    def test_round_trip_is_the_float32_rounding(self, rows):
        payload = encode_obs_float(obs_rows(rows))
        assert len(payload) == 28 * len(rows)
        back = decode_obs_float(payload)
        assert len(back) == len(rows)
        want = obs_rows(rows.astype(np.float32).astype(np.float64))
        for name in ("residual", "normal", "point_lidar"):
            got = getattr(back, name)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, getattr(want, name))

    def test_empty_payload_is_no_rows(self):
        assert encode_obs_float(PlaneObservations.empty()) == b""
        assert len(decode_obs_float(b"")) == 0

    @pytest.mark.parametrize("size", [1, 27, 29, 55])
    def test_partial_row_raises(self, size):
        with pytest.raises(WireError, match="whole 28-byte rows"):
            decode_obs_float(bytes(size))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", range(7))
    def test_non_finite_value_raises(self, value, column):
        rows = np.ones((3, 7), dtype="<f4")
        rows[1, column] = value
        with pytest.raises(WireError, match="not finite"):
            decode_obs_float(rows.tobytes())

    def test_every_single_bit_flip_of_a_frame_raises(self):
        rng = np.random.default_rng(3)
        payload = encode_obs_float(obs_rows(rng.uniform(-5.0, 5.0, (2, 7))))
        encoded = encode_frame(FrameType.OBS_FLOAT, 700000, payload)
        assert decode_frame(encoded).frame_type == FrameType.OBS_FLOAT
        for bit in range(8 * len(encoded)):
            corrupted = bytearray(encoded)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(WireError):
                decode_obs_float(decode_frame(bytes(corrupted)).payload)


class TestTransports:
    def test_inproc_round_trip(self):
        a, b = socket_pair()
        try:
            frame = encode_frame(FrameType.POSE_REQ, 42, encode_pose_req(0, 42))
            a.send_frame(frame)
            got = b.recv_frame()
            assert got.frame_type == FrameType.POSE_REQ
            assert got.timestamp_us == 42
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("timeout", [None, 5.0])
    def test_frame_pending_peeks_without_reading_or_waiting(self, timeout):
        # False on an idle link at once, whatever the socket's timeout; true
        # once a frame is queued, which the next recv_frame still returns.
        a, b = socket_pair()
        b._sock.settimeout(timeout)
        try:
            start = time.perf_counter()
            assert not b.frame_pending()
            assert time.perf_counter() - start < 0.2
            frame = encode_frame(FrameType.POSE_REQ, 42, encode_pose_req(0, 42))
            a.send_frame(frame)
            assert b.frame_pending() and b.frame_pending()
            assert b._sock.gettimeout() == timeout
            got = b.recv_frame()
            assert (got.frame_type, got.timestamp_us) == (FrameType.POSE_REQ, 42)
            assert not b.frame_pending()
            a.close()
            assert b.frame_pending()
            with pytest.raises(PeerClosed):
                b.recv_frame()
        finally:
            a.close()
            b.close()

    def test_close_between_frames_is_peer_closed_and_mid_frame_truncated(self):
        frame = encode_frame(FrameType.POSE_REQ, 42, encode_pose_req(0, 42))
        for tail, error in ((b"", PeerClosed), (frame[:HEADER.size - 3], TruncatedFrame),
                            (frame[:-1], TruncatedFrame)):
            a, b = socket_pair()
            try:
                a.send_frame(frame + tail)
                a.close()
                b.recv_frame()
                with pytest.raises(error):
                    b.recv_frame()
            finally:
                b.close()

    @pytest.mark.parametrize("length", [2 ** 31, MAX_PAYLOAD])
    def test_oversized_length_is_refused_at_once(self, length):
        # Refused once the 16 header bytes are in, not after the frame
        # deadline spent waiting for a payload that cannot be accepted.
        head = HEADER.pack(MAGIC, VERSION, FrameType.OBS_GROUPS, 0, length)
        a, b = socket_pair()
        try:
            a.send_frame(head)
            start = time.perf_counter()
            with pytest.raises(WireError, match="frame limit") as err:
                b.recv_frame()
            assert time.perf_counter() - start < 0.2
            assert not isinstance(err.value, TruncatedFrame)
        finally:
            a.close()
            b.close()
        with pytest.raises(WireError, match="frame limit") as err:
            decode_frame(head + bytes(4))
        assert not isinstance(err.value, TruncatedFrame)
        # One byte under the limit is a frame still to be completed.
        with pytest.raises(TruncatedFrame):
            decode_frame(HEADER.pack(MAGIC, VERSION, 0, 0, MAX_PAYLOAD - 1) + bytes(4))

    def test_tcp_round_trip(self):
        server = tcp_listen(0)
        port = server.getsockname()[1]
        result = {}

        def serve():
            conn, _ = server.accept()
            t = StreamTransport(conn)
            result["frame"] = t.recv_frame()
            t.send_frame(encode_frame(FrameType.STATE_UPDATE, 9,
                                      encode_state_update((np.eye(3), np.zeros(3)))))
            t.close()

        thread = threading.Thread(target=serve)
        thread.start()
        client = tcp_connect(port)
        client.send_frame(encode_frame(FrameType.POSE_REQ, 9, encode_pose_req(0, 9)))
        reply = client.recv_frame()
        thread.join(timeout=5)
        client.close()
        server.close()
        assert result["frame"].frame_type == FrameType.POSE_REQ
        assert reply.frame_type == FrameType.STATE_UPDATE

    def test_tcp_listen_closes_its_socket_when_bind_fails(self, monkeypatch):
        made = []

        class Recorded(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        busy = tcp_listen(0)
        try:
            monkeypatch.setattr(socket, "socket", Recorded)
            for port, error in ((99999, OverflowError), (busy.getsockname()[1], OSError)):
                with pytest.raises(error):
                    tcp_listen(port)
                assert made.pop().fileno() == -1
        finally:
            busy.close()
