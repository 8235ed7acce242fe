"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix column by
column (for each column j = 1..n-1 the bits x(0,j)..x(j-1,j)) into 6-bit
groups, most significant bit first, each group offset by 63 into the
printable ASCII range. The vertex count precedes the body: a single byte
n+63 for n <= 62, the escape byte 126 followed by three 6-bit bytes for
n <= 258047, and 126 126 plus six 6-bit bytes above that.

An optional ">>graph6<<" header is tolerated on input and never written.
"""

from __future__ import annotations

HEADER = b">>graph6<<"

_BITS6 = [format(i, "06b") for i in range(64)]


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError("vertex count too large for graph6")


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, offset of the adjacency body)."""
    if not data:
        raise Graph6Error("empty input", 0)
    b0 = data[0]
    if b0 != 126:
        if not 63 <= b0 <= 126:
            raise Graph6Error(f"size byte {b0} out of range", 0)
        return b0 - 63, 1
    if len(data) >= 2 and data[1] == 126:
        body = data[2:8]
        if len(body) < 6:
            raise Graph6Error("truncated 8-byte size prefix", len(data))
        start = 2
    else:
        body = data[1:4]
        if len(body) < 3:
            raise Graph6Error("truncated 4-byte size prefix", len(data))
        start = 1
    n = 0
    for k, b in enumerate(body):
        if not 63 <= b <= 126:
            raise Graph6Error(f"size byte {b} out of range", start + k)
        n = (n << 6) | (b - 63)
    return n, start + len(body)


def encode(n: int, adj: tuple[int, ...]) -> bytes:
    """Encode an adjacency list of neighbor bitmasks as graph6 bytes."""
    cols = [format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)]
    s = "".join(cols)
    if len(s) % 6:
        s += "0" * (6 - len(s) % 6)
    body = bytes(int(s[i : i + 6], 2) + 63 for i in range(0, len(s), 6))
    return _encode_size(n) + body


def decode(data: bytes) -> tuple[int, list[int]]:
    """Decode graph6 bytes into (n, adjacency bitmask list).

    A single trailing newline (LF or CRLF) is accepted; anything else past
    the adjacency body is an error.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as err:
            raise Graph6Error("non-ASCII character", err.start) from None
    if data.startswith(HEADER):
        data = data[len(HEADER) :]
    if data.endswith(b"\r\n"):
        data = data[:-2]
    elif data.endswith(b"\n"):
        data = data[:-1]
    n, off = _decode_size(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) < off + nbytes:
        raise Graph6Error(f"adjacency body truncated, need {nbytes} bytes", len(data))
    chunks = []
    for k in range(nbytes):
        b = data[off + k]
        if not 63 <= b <= 126:
            raise Graph6Error(f"body byte {b} out of range", off + k)
        chunks.append(_BITS6[b - 63])
    if len(data) > off + nbytes:
        raise Graph6Error("trailing garbage after adjacency body", off + nbytes)
    s = "".join(chunks)
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        col = int(s[pos : pos + j][::-1], 2)
        pos += j
        if col:
            adj[j] |= col
            rem = col
            while rem:
                low = rem & -rem
                adj[low.bit_length() - 1] |= 1 << j
                rem ^= low
    return n, adj
