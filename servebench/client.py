"""Client side of the server's wire protocol and reader of its audit log.

Both are written from the formats as documented in the server's wire
codec and the WAL module, not by linking them, so the benchmark observes
the program from outside.

Wire: every message is [u32 length | payload], big-endian. Requests:
'H' user token (Hello), 'X' u32 seq, line (Exec), 'Q' (Quit). Replies:
'G' u32 session, server (Greeting), 'R' text (Result), 'E' text (Failed),
'O' u32 retry_after_ms (Overloaded), 'B' (Goodbye). Strings are u32
length-prefixed.

WAL: the magic "AUDWAL01", then frames [u32 length | u32 crc32 | payload].
"""

import socket
import struct
import time
import zlib

_U32 = struct.Struct(">I")


def _str(s):
    b = s.encode()
    return _U32.pack(len(b)) + b


class ProtocolError(Exception):
    pass


class Conn:
    """One client connection; a session on the server.

    With spin, the connection busy-polls its socket for each reply instead
    of sleeping until it arrives, so the time the scheduler takes to wake
    this process is not part of the reply time. Only for a caller that has
    a CPU of its own: the poll keeps that CPU busy."""

    def __init__(self, path, user, timeout=120.0, spin=False):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.timeout = timeout
        self.spin = False
        self.user = user
        tag, body = self._call(b"H" + _str(user) + _str(""))
        if tag != "G":
            raise ProtocolError("expected a greeting, got %r" % tag)
        self.session = _U32.unpack_from(body, 0)[0]
        self.spin = spin
        if spin:
            self.sock.settimeout(None)

    def _recv_exact(self, n, deadline):
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            if self.spin:
                try:
                    k = self.sock.recv_into(view[got:], n - got,
                                            socket.MSG_DONTWAIT)
                except BlockingIOError:
                    if time.perf_counter() > deadline:
                        raise socket.timeout("no reply")
                    continue
            else:
                k = self.sock.recv_into(view[got:], n - got)
            if k == 0:
                raise ProtocolError("connection closed by server")
            got += k
        return bytes(buf)

    def _call(self, payload):
        self.sock.sendall(_U32.pack(len(payload)) + payload)
        deadline = time.perf_counter() + self.timeout
        (n,) = _U32.unpack(self._recv_exact(4, deadline))
        body = self._recv_exact(n, deadline)
        if not body:
            raise ProtocolError("empty reply frame")
        return chr(body[0]), body[1:]

    def execute(self, seq, line):
        """Run one statement; returns (tag, text): 'R' result, 'E' error,
        'O' shed by admission control."""
        tag, body = self._call(b"X" + _U32.pack(seq) + _str(line))
        if tag in ("R", "E"):
            (n,) = _U32.unpack_from(body, 0)
            return tag, body[4:4 + n].decode()
        if tag == "O":
            return tag, "overloaded"
        raise ProtocolError("unexpected reply tag %r" % tag)

    def close(self):
        try:
            self._call(b"Q")
        except (OSError, ProtocolError):
            pass
        self.sock.close()


def _get_str(b, pos):
    (n,) = _U32.unpack_from(b, pos)
    pos += 4
    if pos + n > len(b):
        raise ValueError("truncated string")
    return b[pos:pos + n].decode(), pos + n


def decode_record(payload):
    """One WAL record as a dict; raises ValueError on a malformed one."""
    tag = payload[0]
    pos = 1
    if tag == 1:
        session, seq = struct.unpack_from(">II", payload, pos)
        pos += 8
        user, pos = _get_str(payload, pos)
        sql, pos = _get_str(payload, pos)
        audit, pos = _get_str(payload, pos)
        (n,) = _U32.unpack_from(payload, pos)
        pos += 4
        ids = []
        for _ in range(n):
            s, pos = _get_str(payload, pos)
            ids.append(s)
        if pos + 1 != len(payload):
            raise ValueError("bad ACCESSED record length")
        return {"type": "accessed", "session": session, "seq": seq,
                "user": user, "sql": sql, "audit": audit, "ids": ids,
                "complete": payload[pos] == 1}
    if tag == 2:
        session, seq = struct.unpack_from(">II", payload, pos)
        pos += 8
        trigger, pos = _get_str(payload, pos)
        audit, pos = _get_str(payload, pos)
        timing, pos = _get_str(payload, pos)
        return {"type": "trigger", "session": session, "seq": seq,
                "trigger": trigger, "audit": audit, "timing": timing}
    if tag == 3:
        session, seq = struct.unpack_from(">II", payload, pos)
        msg, _ = _get_str(payload, pos + 8)
        return {"type": "notify", "session": session, "seq": seq, "msg": msg}
    if tag == 4:
        return {"type": "note", "msg": _get_str(payload, pos)[0]}
    raise ValueError("unknown record tag %d" % tag)


def read_wal(data):
    """Parse a whole single-file log. Returns (records, torn_bytes) where
    each record carries its framed size in "bytes"."""
    if data[:8] != b"AUDWAL01":
        raise ValueError("missing WAL magic")
    pos = 8
    out = []
    while pos + 8 <= len(data):
        n, crc = struct.unpack_from(">II", data, pos)
        payload = data[pos + 8:pos + 8 + n]
        if len(payload) < n or zlib.crc32(payload) != crc:
            break
        rec = decode_record(payload)
        rec["bytes"] = 8 + n
        out.append(rec)
        pos += 8 + n
    return out, len(data) - pos
