"""Frame packing and reply parsing for the SCP wire protocol (src/net/wire.h).

The smoke probes in scripts/check.sh import this module (run them with
PYTHONPATH=scripts from the repository root), so a change to the frame
format is made here once.

A frame is [u32 payload length][u8 type][u32 request id][fields], all big
endian. A reply carries the id of the request it answers.
"""
import socket
import struct
from typing import NamedTuple

GET, VALUE, MISS, REDIRECT = 1, 2, 3, 4
ERROR = 9
PUT, WRITE_REPLY, QUORUM_GET = 12, 14, 15

_HEADER = struct.Struct(">BI")  # type, request id


def frame(msg_type, fields=b"", request_id=0):
    """One complete frame: length prefix, type, id, then `fields`."""
    payload = _HEADER.pack(msg_type, request_id) + fields
    return struct.pack(">I", len(payload)) + payload


def get(key, request_id=0):
    return frame(GET, struct.pack(">Q", key), request_id)


def put(key, value, request_id=0):
    return frame(PUT, struct.pack(">QI", key, len(value)) + value, request_id)


def quorum_get(key, request_id=0):
    return frame(QUORUM_GET, struct.pack(">Q", key), request_id)


class Reply(NamedTuple):
    type: int
    id: int
    key: int
    value: bytes  # kValue bytes or kError reason; empty otherwise


def parse(payload):
    """Decodes the reply shapes the probes expect (kValue, kMiss,
    kRedirect, kError, kWriteReply): type, id, key and any value bytes."""
    msg_type, request_id = _HEADER.unpack_from(payload)
    key = 0
    value = b""
    if len(payload) >= _HEADER.size + 8:
        (key,) = struct.unpack_from(">Q", payload, _HEADER.size)
    if msg_type in (VALUE, ERROR):
        (length,) = struct.unpack_from(">I", payload, _HEADER.size + 8)
        start = _HEADER.size + 12
        value = bytes(payload[start:start + length])
    return Reply(msg_type, request_id, key, value)


def read_reply(sock):
    """Blocks for the next frame on `sock` and parses it."""
    header = sock.recv(4, socket.MSG_WAITALL)
    (length,) = struct.unpack(">I", header)
    return parse(sock.recv(length, socket.MSG_WAITALL))


def call(sock, request):
    """Sends one request frame on `sock` and returns its parsed reply."""
    sock.sendall(request)
    return read_reply(sock)


def roundtrip(port, request, timeout=3.0):
    """One request/reply round trip on a fresh connection to `port`."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.settimeout(timeout)
        return call(s, request)
