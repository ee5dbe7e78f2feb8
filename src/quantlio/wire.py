"""Binary frames and the session contract between host and coprocessor.

Frame layout, all multi-byte integers little-endian:

    offset  size  field
    0       2     magic 0x51 0x4C
    2       1     version (1)
    3       1     frame type
    4       8     timestamp, unsigned microseconds
    12      4     payload length, below MAX_PAYLOAD (2^24)
    16      n     payload
    16+n    4     IEEE CRC-32 over bytes [0, 16+n)

Frame types: 0x00 CONFIG, 0x01 POSE_REQ, 0x02 POSE_RESP, 0x03 OBS_GROUPS,
0x04 STATE_UPDATE.

Payloads:

    CONFIG        l_p, l_n, l_z as one byte each, then r_max, r_thr, ds_0,
                  alpha, sigma as f64, then the LiDAR-IMU extrinsic as
                  9 f64 rotation (row-major) + 3 f64 translation.
    POSE_REQ      previous and current scan-end timestamps, u64 microseconds.
    POSE_RESP     scan delta then previous pose, each as a unit quaternion
                  (w, x, y, z) f64 plus a 3 f64 translation.
    OBS_GROUPS    u16 group count, then a continuous MSB-first bitstream:
                  per group the rq key (3*l_n bits) and a 16-bit member
                  count, then per member the z index (l_z bits) and three
                  point indices (l_p bits each). Zero padding to a byte
                  boundary once at payload end. A payload that ends early
                  raises TruncatedFrame; one with bytes past that boundary
                  or a nonzero padding bit raises WireError.
    STATE_UPDATE  posterior pose, quaternion + translation as above.

A group set is one ObservationGroups record of int64 arrays from
coprocessor.build_groups through pack_groups, unpack_groups and
estimator.qmap_update, so neither processor builds a list of groups.
Iterating a record yields its per-group view, one ObservationGroup (key,
list of (z, (px, py, pz)) tuples) per group, for comparing group sets;
pack_groups also accepts a list of them.

The session runs one CONFIG (host to coprocessor) then, per scan,
POSE_REQ -> POSE_RESP -> OBS_GROUPS -> STATE_UPDATE. The host
(estimator.Host) enforces the order: a POSE_REQ window must start at the
host's time and end after it; OBS_GROUPS needs a pending POSE_REQ and
answers it; any other frame type is refused. A POSE_REQ for a later scan
while OBS_GROUPS is still pending drops the pending scan, which the host
counts and dead-reckons through.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .manifold import quat_to_rot, rot_to_quat
from .quantizer import Codebook

MAGIC = b"\x51\x4c"
VERSION = 1
HEADER = struct.Struct("<2sBBQI")
MAX_PAYLOAD = 2 ** 24
# Once a frame's first bytes arrive, the rest of it must arrive within this
# many seconds, or StreamTransport.recv_frame raises TruncatedFrame.
FRAME_DEADLINE_S = 1.0


class FrameType(IntEnum):
    CONFIG = 0x00
    POSE_REQ = 0x01
    POSE_RESP = 0x02
    OBS_GROUPS = 0x03
    STATE_UPDATE = 0x04


class WireError(Exception):
    """Base for framing and protocol failures."""


class BadMagic(WireError):
    pass


class BadVersion(WireError):
    pass


class BadCrc(WireError):
    pass


class TruncatedFrame(WireError):
    """Retriable: more bytes may complete the frame."""


class UnknownFrameType(WireError):
    pass


class ProtocolOrderError(WireError):
    pass


class PeerClosed(WireError):
    """The peer closed the link between frames."""


@dataclass
class WireFrame:
    frame_type: int
    timestamp_us: int
    payload: bytes


def encode_frame(frame_type: int, timestamp_us: int, payload: bytes) -> bytes:
    if len(payload) >= MAX_PAYLOAD:
        raise WireError(f"payload of {len(payload)} bytes exceeds the frame limit")
    head = HEADER.pack(MAGIC, VERSION, int(frame_type), int(timestamp_us), len(payload))
    body = head + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _read_header(head: bytes):
    """Frame type, timestamp and payload length from a frame's first
    HEADER.size bytes; a bad magic, version or payload length raises at once,
    before any payload byte is awaited."""
    magic, version, ftype, timestamp, length = HEADER.unpack_from(head)
    if magic != MAGIC:
        raise BadMagic(f"magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"version {version}")
    if length >= MAX_PAYLOAD:
        raise WireError(f"header claims a payload of {length} bytes, over the frame limit")
    return ftype, timestamp, length


def decode_frame(buf: bytes) -> WireFrame:
    if len(buf) < HEADER.size:
        raise TruncatedFrame("incomplete header")
    ftype, timestamp, length = _read_header(buf)
    total = HEADER.size + length + 4
    if len(buf) < total:
        raise TruncatedFrame(f"need {total} bytes, have {len(buf)}")
    (crc,) = struct.unpack_from("<I", buf, HEADER.size + length)
    if crc != zlib.crc32(buf[: HEADER.size + length]):
        raise BadCrc("checksum mismatch")
    if ftype not in FrameType._value2member_map_:
        raise UnknownFrameType(f"frame type 0x{ftype:02x}")
    return WireFrame(FrameType(ftype), timestamp, bytes(buf[HEADER.size: HEADER.size + length]))


@dataclass
class ObservationGroup:
    """Shared rq key plus member (z index, point index triple) tuples."""

    rq_key: int
    members: list


@dataclass(frozen=True)
class ObservationGroups:
    """An observation group set: keys (g,), member counts (g,) and members
    (n, 4) as rows of (z, px, py, pz), all int64, in group then member order.
    len() is the group count; iteration yields one ObservationGroup per
    group, with plain ints."""

    keys: np.ndarray
    counts: np.ndarray
    members: np.ndarray

    @classmethod
    def of(cls, groups) -> "ObservationGroups":
        """groups itself if it is a record, else a list of ObservationGroup
        flattened; a value beyond 64 bits raises WireError."""
        if isinstance(groups, cls):
            return groups
        try:
            keys = np.array([g.rq_key for g in groups], dtype=np.int64)
            counts = np.array([len(g.members) for g in groups], dtype=np.int64)
            members = np.array([(z, *p) for g in groups for z, p in g.members],
                               dtype=np.int64).reshape(-1, 4)
        except OverflowError as exc:
            raise WireError(f"field value does not fit in 64 bits: {exc}") from None
        return cls(keys, counts, members)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        flat = [(z, (px, py, pz)) for z, px, py, pz in self.members.tolist()]
        ends = np.cumsum(self.counts).tolist()
        return (ObservationGroup(rq_key=key, members=flat[end - n:end])
                for key, n, end in zip(self.keys.tolist(), self.counts.tolist(), ends))


def _field_widths(cb: Codebook):
    """Bit widths of a group header (key, member count) and of a member
    (z index, three point indices)."""
    return (3 * cb.l_n, 16), (cb.l_z, cb.l_p, cb.l_p, cb.l_p)


def _bit_fields(widths):
    """Per bit of a record: the field it belongs to and its shift, MSB first."""
    field = np.repeat(np.arange(len(widths)), widths)
    shift = np.concatenate([np.arange(w - 1, -1, -1) for w in widths])
    return field, shift


def _field_weights(widths) -> np.ndarray:
    """(bits, fields) matrix taking a record's bits to its field values."""
    field, shift = _bit_fields(widths)
    weights = np.zeros((len(field), len(widths)), dtype=np.int64)
    weights[np.arange(len(field)), field] = 1 << shift
    return weights


def _record_offsets(counts, head_bits: int, member_bits: int):
    """Bit offsets of every group header and every member in the stream."""
    before = np.cumsum(counts) - counts
    heads = np.arange(len(counts)) * head_bits + before * member_bits
    members = ((np.repeat(np.arange(len(counts)), counts) + 1) * head_bits
               + np.arange(int(counts.sum())) * member_bits)
    return heads, members


def pack_groups(groups, cb: Codebook) -> bytes:
    """Encode an observation group set, an ObservationGroups record or a
    list of ObservationGroup, into the OBS_GROUPS payload."""
    if len(groups) > 0xFFFF:
        raise WireError("too many groups for a 16-bit count")
    groups = ObservationGroups.of(groups)
    keys, counts, members = groups.keys, groups.counts, groups.members
    head_w, member_w = _field_widths(cb)
    records = (np.column_stack([keys, counts]), head_w), (members, member_w)
    for values, widths in records:
        # Nonzero after the shift: too wide, or negative (the shift keeps the sign).
        if np.any(values >> np.array(widths)):
            raise WireError(f"field value outside its bit widths {widths}")
    offsets = _record_offsets(counts, sum(head_w), sum(member_w))
    bits = np.zeros(len(keys) * sum(head_w) + len(members) * sum(member_w), np.uint8)
    for (values, widths), at in zip(records, offsets):
        field, shift = _bit_fields(widths)
        bits[at[:, None] + np.arange(len(field))] = (values[:, field] >> shift) & 1
    return struct.pack("<H", len(keys)) + np.packbits(bits).tobytes()


def unpack_groups(payload: bytes, cb: Codebook) -> ObservationGroups:
    """Decode an OBS_GROUPS payload into an ObservationGroups record.

    Only the group headers are read one by one, since each member count
    places the next header; all members are then gathered at once.
    """
    if len(payload) < 2:
        raise TruncatedFrame("missing group count")
    (count,) = struct.unpack_from("<H", payload)
    stream_bits = 8 * (len(payload) - 2)
    stream = int.from_bytes(payload[2:], "big")
    head_w, member_w = _field_widths(cb)
    head_bits, member_bits = sum(head_w), sum(member_w)
    keys, counts = [], []
    pos = 0
    for _ in range(count):
        if pos + head_bits > stream_bits:
            raise TruncatedFrame("bitstream exhausted")
        head = (stream >> (stream_bits - pos - head_bits)) & ((1 << head_bits) - 1)
        keys.append(head >> 16)
        counts.append(head & 0xFFFF)
        pos += head_bits + counts[-1] * member_bits
    if pos > stream_bits:
        raise TruncatedFrame("bitstream exhausted")
    if stream_bits - pos >= 8:
        raise WireError(f"{(stream_bits - pos) // 8} bytes after the last group")
    if stream & ((1 << (stream_bits - pos)) - 1):
        raise WireError("nonzero padding bits")
    counts = np.array(counts, dtype=np.int64)
    _, at = _record_offsets(counts, head_bits, member_bits)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, offset=2))
    members = bits[at[:, None] + np.arange(member_bits)] @ _field_weights(member_w)
    return ObservationGroups(np.array(keys, dtype=np.int64), counts, members)


def payload_bits(groups: ObservationGroups, cb: Codebook) -> int:
    """Exact bitstream length before padding (count field excluded)."""
    return len(groups.keys) * (3 * cb.l_n + 16) + len(groups.members) * (cb.l_z + 3 * cb.l_p)


@dataclass
class SessionConfig:
    """Contents of the CONFIG frame."""

    codebook: Codebook
    ds_0: float
    alpha: float
    sigma: float
    extrinsic_rotation: np.ndarray
    extrinsic_translation: np.ndarray


_CONFIG = struct.Struct("<3B17d")
_POSE_REQ = struct.Struct("<QQ")
_POSE = struct.Struct("<7d")


def encode_config(cfg: SessionConfig) -> bytes:
    cb = cfg.codebook
    return _CONFIG.pack(cb.l_p, cb.l_n, cb.l_z, cb.r_max, cb.r_thr,
                        cfg.ds_0, cfg.alpha, cfg.sigma,
                        *np.asarray(cfg.extrinsic_rotation, dtype=float).reshape(9),
                        *np.asarray(cfg.extrinsic_translation, dtype=float))


def decode_config(payload: bytes) -> SessionConfig:
    if len(payload) != _CONFIG.size:
        raise WireError(f"CONFIG payload must be {_CONFIG.size} bytes")
    vals = _CONFIG.unpack(payload)
    cb = Codebook(l_p=vals[0], l_n=vals[1], l_z=vals[2], r_max=vals[3], r_thr=vals[4])
    return SessionConfig(codebook=cb, ds_0=vals[5], alpha=vals[6], sigma=vals[7],
                         extrinsic_rotation=np.array(vals[8:17]).reshape(3, 3),
                         extrinsic_translation=np.array(vals[17:20]))


def encode_pose_req(t_prev_us: int, t_k_us: int) -> bytes:
    return _POSE_REQ.pack(t_prev_us, t_k_us)


def decode_pose_req(payload: bytes):
    if len(payload) != _POSE_REQ.size:
        raise WireError("POSE_REQ payload must be 16 bytes")
    return _POSE_REQ.unpack(payload)


def _pack_pose(pose) -> bytes:
    rot, trans = pose
    return _POSE.pack(*rot_to_quat(rot), *np.asarray(trans, dtype=float))


def _unpack_pose(payload: bytes, offset: int = 0):
    vals = _POSE.unpack_from(payload, offset)
    return quat_to_rot(vals[:4]), np.array(vals[4:])


def encode_pose_resp(scan_delta, pose_prev) -> bytes:
    return _pack_pose(scan_delta) + _pack_pose(pose_prev)


def decode_pose_resp(payload: bytes):
    if len(payload) != 2 * _POSE.size:
        raise WireError("POSE_RESP payload must be 112 bytes")
    return _unpack_pose(payload, 0), _unpack_pose(payload, _POSE.size)


def encode_state_update(pose) -> bytes:
    return _pack_pose(pose)


def decode_state_update(payload: bytes):
    if len(payload) != _POSE.size:
        raise WireError("STATE_UPDATE payload must be 56 bytes")
    return _unpack_pose(payload)


class StreamTransport:
    """Reliable ordered byte link carrying whole frames over a socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send_frame(self, data: bytes) -> None:
        self._sock.sendall(data)

    def _recv_exact(self, n: int, deadline: float) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            self._sock.settimeout(max(deadline - time.monotonic(), 1e-6))
            try:
                got = self._sock.recv(n - len(chunks))
            except TimeoutError:
                raise TruncatedFrame(
                    f"frame incomplete {FRAME_DEADLINE_S} s after it began") from None
            if not got:
                raise TruncatedFrame("connection closed mid-frame")
            chunks.extend(got)
        return bytes(chunks)

    def recv_frame(self) -> WireFrame:
        """Wait for the next frame as long as the socket's timeout allows;
        once its first bytes arrive, the rest must follow within
        FRAME_DEADLINE_S."""
        first = self._sock.recv(HEADER.size)
        if not first:
            raise PeerClosed("connection closed")
        deadline = time.monotonic() + FRAME_DEADLINE_S
        idle_timeout = self._sock.gettimeout()
        try:
            head = first + self._recv_exact(HEADER.size - len(first), deadline)
            _, _, length = _read_header(head)
            raw = head + self._recv_exact(length + 4, deadline)
        finally:
            self._sock.settimeout(idle_timeout)
        return decode_frame(raw)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_listen(port: int) -> socket.socket:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", port))
    server.listen(1)
    return server


def tcp_connect(port: int) -> StreamTransport:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    return StreamTransport(sock)
