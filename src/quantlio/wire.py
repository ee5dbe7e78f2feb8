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
0x04 STATE_UPDATE, 0x05 OBS_FLOAT.

Payloads:

    CONFIG        l_p, l_n, l_z as one byte each, then r_max, r_thr, ds_0,
                  alpha, sigma as f64, then the LiDAR-IMU extrinsic as
                  9 f64 rotation (row-major) + 3 f64 translation. A codebook
                  or scan setting RunConfig refuses, an extrinsic that is
                  not finite, or a rotation that is not orthonormal with
                  determinant +1 raises WireError.
    POSE_REQ      previous and current scan-end timestamps, u64 microseconds.
    POSE_RESP     scan delta then previous pose, each as a unit quaternion
                  (w, x, y, z) f64 plus a 3 f64 translation. A value that
                  is not finite, or a quaternion whose norm is off 1 by
                  more than 1e-9, raises WireError.
    OBS_GROUPS    u16 group count, then a continuous MSB-first bitstream:
                  the header block, per group the rq key (3*l_n bits) and a
                  16-bit member count, then the member block, per member in
                  group order the z index (l_z bits) and three point indices
                  (l_p bits each). Zero padding to a byte boundary once at
                  payload end. A payload that ends early raises
                  TruncatedFrame; one with bytes past that boundary or a
                  nonzero padding bit raises WireError.
    STATE_UPDATE  posterior pose, quaternion + translation, checked as
                  above.
    OBS_FLOAT     n rows of seven f32 (residual, normal, point) and nothing
                  else: 224 n bits, n from the length field. A partial row
                  or a value that is not finite raises WireError.

A group set is one ObservationGroups record of int64 arrays from
coprocessor.build_groups through pack_groups, unpack_groups and
estimator.qmap_update, so neither processor builds a list of groups.
Iterating a record yields its per-group view, one ObservationGroup (key,
list of (z, (px, py, pz)) tuples) per group, for comparing group sets;
pack_groups also accepts a list of them.

The session runs one CONFIG (host to coprocessor) then, per scan k,
POSE_REQ(k) -> POSE_RESP(k) and OBS_GROUPS or OBS_FLOAT (k) ->
STATE_UPDATE(k), in one link round trip per scan: the coprocessor writes
the observation frame of scan k and POSE_REQ(k + 1) in one write, and the
host answers STATE_UPDATE(k) and POSE_RESP(k + 1) in one write. Only the
first POSE_REQ and the last observation frame travel alone. The host
handles the frames one at a time, in order, so the update of scan k comes
before the propagation to t_{k+1}. Both ends of the link are served on one
thread: relay writes a request at one end and reads it back at the other
in turns, and split_frames cuts the byte run into frames. Fidelity: on a
live sensor the host answers POSE_REQ(k + 1) once its IMU stream reaches
t_{k+1}, which is also when scan k + 1 closes; the simulated IMU stream
exists from the start, so here the reply never waits for it. Link latency
is no part of this simulation: it belongs to a link model in simulated
time (ROADMAP item 17), not to how the OS schedules threads.

The host (estimator.Host) enforces the order: a POSE_REQ window must start
at the host's time and end after it; an observation frame needs a pending
POSE_REQ and answers it; any other frame type is refused. A POSE_REQ for a
later scan while observations are still pending drops the pending scan,
which the host counts and dead-reckons through.
"""

from __future__ import annotations

import math
import socket
import struct
import time
import zlib
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import lru_cache

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
    OBS_FLOAT = 0x05


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


@dataclass(frozen=True)
class PlaneObservations:
    """Associated point-to-plane measurements, one row per observation:
    point_lidar and normal (n, 3), the folded, nonnegative residual (n,).
    Indexing selects rows."""

    point_lidar: np.ndarray
    normal: np.ndarray
    residual: np.ndarray

    @classmethod
    def empty(cls) -> "PlaneObservations":
        return cls(np.empty((0, 3)), np.empty((0, 3)), np.empty(0))

    def __len__(self) -> int:
        return len(self.residual)

    def __getitem__(self, rows) -> "PlaneObservations":
        return PlaneObservations(*(getattr(self, f.name)[rows] for f in fields(self)))

    @property
    def residual_vector(self) -> np.ndarray:
        """z * u per row: the vector the rq key quantizes."""
        return self.residual[:, None] * self.normal


def _field_widths(cb: Codebook):
    """Bit widths of a group header (key, member count) and of a member
    (z index, three point indices)."""
    return (3 * cb.l_n, 16), (cb.l_z, cb.l_p, cb.l_p, cb.l_p)


@lru_cache(maxsize=16)
def _layout(widths: tuple):
    """Per bit of a record, MSB first: the field it belongs to and its shift;
    and the (bits, fields) matrix of bit weights 2^shift. All read-only."""
    field = np.repeat(np.arange(len(widths)), widths)
    shift = np.concatenate([np.arange(w - 1, -1, -1) for w in widths])
    weight = np.zeros((len(field), len(widths)))
    weight[np.arange(len(field)), field] = 2.0 ** shift
    for array in (field, shift, weight):
        array.setflags(write=False)
    return field, shift, weight


def _to_bits(values: np.ndarray, widths) -> np.ndarray:
    """Records (rows, fields) as one run of bits, records back to back; a
    field outside its width raises WireError."""
    # Nonzero after the shift: too wide, or negative (the shift keeps the sign).
    if np.any(values >> np.array(widths)):
        raise WireError(f"field value outside its bit widths {widths}")
    field, shift, _ = _layout(widths)
    return ((values[:, field] >> shift) & 1).astype(np.uint8).ravel()


def _from_bits(bits: np.ndarray, widths) -> np.ndarray:
    """Records (rows, fields) from a run of bits holding whole records, by
    one float64 product with the bit weights: a field is at most 48 bits wide
    (3 l_n), so every partial sum is an integer below 2^53 and exact."""
    weight = _layout(widths)[2]
    return (bits.reshape(-1, len(weight)) @ weight).astype(np.int64)


def pack_groups(groups, cb: Codebook) -> bytes:
    """Encode an observation group set, an ObservationGroups record or a
    list of ObservationGroup, into the OBS_GROUPS payload."""
    if len(groups) > 0xFFFF:
        raise WireError("too many groups for a 16-bit count")
    groups = ObservationGroups.of(groups)
    head_w, member_w = _field_widths(cb)
    bits = np.concatenate([_to_bits(np.column_stack([groups.keys, groups.counts]), head_w),
                           _to_bits(groups.members, member_w)])
    return struct.pack("<H", len(groups)) + np.packbits(bits).tobytes()


def unpack_groups(payload: bytes, cb: Codebook) -> ObservationGroups:
    """Decode an OBS_GROUPS payload into an ObservationGroups record: the
    header block in one gather, then the member block its counts size."""
    if len(payload) < 2:
        raise TruncatedFrame("missing group count")
    (count,) = struct.unpack_from("<H", payload)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, offset=2))
    head_w, member_w = _field_widths(cb)
    heads_end = count * sum(head_w)
    if heads_end > len(bits):
        raise TruncatedFrame("bitstream exhausted")
    keys, counts = _from_bits(bits[:heads_end], head_w).T
    end = heads_end + int(counts.sum()) * sum(member_w)
    if end > len(bits):
        raise TruncatedFrame("bitstream exhausted")
    if len(bits) - end >= 8:
        raise WireError(f"{(len(bits) - end) // 8} bytes after the last group")
    if bits[end:].any():
        raise WireError("nonzero padding bits")
    return ObservationGroups(keys, counts, _from_bits(bits[heads_end:end], member_w))


def payload_bits(groups: ObservationGroups, cb: Codebook) -> int:
    """Exact bitstream length before padding (count field excluded)."""
    head_w, member_w = _field_widths(cb)
    return len(groups.keys) * sum(head_w) + len(groups.members) * sum(member_w)


@dataclass
class SessionConfig:
    """Contents of the CONFIG frame."""

    codebook: Codebook
    ds_0: float
    alpha: float
    sigma: float
    extrinsic_rotation: np.ndarray
    extrinsic_translation: np.ndarray


def check_scan_settings(ds_0, alpha, sigma) -> None:
    """Raise ValueError unless ds_0 > 0, alpha >= 0 and sigma are finite, and
    sigma^2 is a normal float, so every qMAP bound -hi/sigma is finite."""
    if not 0.0 < ds_0 < math.inf:
        raise ValueError("ds_0 must be positive and finite")
    sigma_min = math.sqrt(np.finfo(float).tiny)  # 1.49e-154
    if not sigma_min <= sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, at least {sigma_min:.3g}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be nonnegative and finite")


# Largest entry of |R^T R - I| a CONFIG's extrinsic rotation may carry, and
# largest | |q| - 1 | of a pose frame's quaternion.
_ROTATION_TOL = 1e-9


def _check_extrinsic(rotation: np.ndarray, translation: np.ndarray) -> None:
    """Raise ValueError unless the extrinsic is finite and its rotation is
    orthonormal to _ROTATION_TOL with determinant +1."""
    if not (np.all(np.isfinite(rotation)) and np.all(np.isfinite(translation))):
        raise ValueError("extrinsic must be finite")
    if (np.abs(rotation.T @ rotation - np.eye(3)).max() > _ROTATION_TOL
            or np.linalg.det(rotation) < 0.0):
        raise ValueError("extrinsic rotation must be orthonormal with determinant +1")


_CONFIG = struct.Struct("<3B17d")
_POSE_REQ = struct.Struct("<QQ")
_POSE = struct.Struct("<7d")
OBS_FLOAT_ROW_BYTES = 28  # seven little-endian float32


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
    rotation, translation = np.array(vals[8:17]).reshape(3, 3), np.array(vals[17:20])
    try:
        cb = Codebook(l_p=vals[0], l_n=vals[1], l_z=vals[2], r_max=vals[3], r_thr=vals[4])
        check_scan_settings(*vals[5:8])
        _check_extrinsic(rotation, translation)
    except ValueError as exc:
        raise WireError(f"CONFIG refused: {exc}") from None
    return SessionConfig(codebook=cb, ds_0=vals[5], alpha=vals[6], sigma=vals[7],
                         extrinsic_rotation=rotation, extrinsic_translation=translation)


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
    if not all(map(math.isfinite, vals)):
        raise WireError("pose value is not finite")
    if abs(math.hypot(*vals[:4]) - 1.0) > _ROTATION_TOL:
        raise WireError("pose quaternion is not a unit quaternion")
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


def encode_obs_float(observations: PlaneObservations) -> bytes:
    """The OBS_FLOAT payload: per row the residual, normal and point as f32."""
    return np.column_stack([observations.residual, observations.normal,
                            observations.point_lidar]).astype("<f4").tobytes()


def decode_obs_float(payload: bytes) -> PlaneObservations:
    """A PlaneObservations record of float64 arrays from an OBS_FLOAT payload."""
    if len(payload) % OBS_FLOAT_ROW_BYTES:
        raise WireError(f"OBS_FLOAT payload of {len(payload)} bytes is not whole 28-byte rows")
    rows = np.frombuffer(payload, dtype="<f4").reshape(-1, 7).astype(np.float64)
    if not np.all(np.isfinite(rows)):
        raise WireError("OBS_FLOAT value is not finite")
    return PlaneObservations(point_lidar=rows[:, 4:], normal=rows[:, 1:4], residual=rows[:, 0])


class StreamTransport:
    """Reliable ordered byte link carrying whole frames over a socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send_frame(self, data: bytes) -> None:
        self._sock.sendall(data)

    def _recv_some(self, n: int, deadline: float) -> bytes:
        """Up to n bytes, as soon as any arrive before the deadline."""
        self._sock.settimeout(max(deadline - time.monotonic(), 1e-6))
        try:
            got = self._sock.recv(n)
        except TimeoutError:
            raise TruncatedFrame(
                f"frame incomplete {FRAME_DEADLINE_S} s after it began") from None
        if not got:
            raise TruncatedFrame("connection closed mid-frame")
        return got

    def _recv_exact(self, n: int, deadline: float) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            chunks += self._recv_some(n - len(chunks), deadline)
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


def split_frames(buf) -> list[WireFrame]:
    """The frames of a byte run, in order. A tail shorter than its header
    claims raises TruncatedFrame; any other failure raises as decode_frame
    raises it."""
    frames, offset, view = [], 0, memoryview(buf)
    while offset < len(buf):
        frames.append(decode_frame(view[offset:]))
        offset += HEADER.size + len(frames[-1].payload) + 4
    return frames


def relay(source: StreamTransport, sink: StreamTransport, data: bytes) -> list[WireFrame]:
    """Write data at source and read it back at sink, the two ends of one
    connection, in turns on the calling thread; returns split_frames of what
    sink read.

    source writes only what the kernel takes without blocking, and sink then
    reads what has arrived, so a run larger than the socket buffers cannot
    block its own writer. The whole run must arrive within FRAME_DEADLINE_S,
    or TruncatedFrame is raised.
    """
    pending, received = memoryview(data), bytearray()
    deadline = time.monotonic() + FRAME_DEADLINE_S
    timeouts = source._sock.gettimeout(), sink._sock.gettimeout()
    source._sock.setblocking(False)
    try:
        while len(received) < len(data):
            if pending:
                try:
                    pending = pending[source._sock.send(pending):]
                except BlockingIOError:
                    pass
            received += sink._recv_some(len(data) - len(received), deadline)
    finally:
        source._sock.settimeout(timeouts[0])
        sink._sock.settimeout(timeouts[1])
    return split_frames(received)


def tcp_listen(port: int) -> socket.socket:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", port))
        server.listen(1)
    except BaseException:
        server.close()
        raise
    return server


def tcp_connect(port: int) -> StreamTransport:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    return StreamTransport(sock)
