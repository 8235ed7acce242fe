"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix column by
column (for each column j = 1..n-1 the bits x(0,j)..x(j-1,j)) into 6-bit
groups, most significant bit first, each group offset by 63 into the
printable ASCII range. The vertex count precedes the body: a single byte
n+63 for n <= 62, the escape byte 126 followed by three 6-bit bytes for
n <= 258047, and 126 126 plus six 6-bit bytes above that.

The body bytes 63..126 are the 6-bit values 0..63, so ``bytes.translate``
turns them into the base64 alphabet and back, and ``binascii`` moves the
6-bit groups to and from whole bytes. Read through a 256-entry bit-reverse
table, those bytes hold the bit stream least significant bit first, so
column j is the low j bits of an int and needs no reversal. Encode ORs
the columns into an accumulator and writes out its whole bytes once it
holds more than ``_WINDOW`` bits. No Python loop runs per bit or per
6-bit group, and no int grows with the body.

Decode runs every check and the base64 step first, so a malformed input
fails with its offset before anything sized by n is allocated. One loop
then takes the columns from a window of ``_WINDOW`` bits that it refills
as they use it up, and stores column j, the neighbours of j below j, as
``adj[j]``. The neighbours above each vertex are the transpose of those
columns. For n <= 64 decode builds them with one bit-matrix transpose of
an m x m tile, m the smallest of 8, 16, 32 and 64 with n <= m: a
``struct`` packs the columns as m-bit rows of one int t, bit (r, c) at
r*m + c, and for s = m/2, ..., 1 a delta swap (Warren, Hacker's Delight,
2nd ed., section 7-3) ``x = ((t >> d) ^ t) & mask; t ^= x ^ (x << d)``
with d = (m - 1)s exchanges each bit (r, c) with r & s == 0 and
c & s != 0, which the mask holds, with bit (r + s, c - s). After the
log2(m) rounds, row i of t holds the neighbours of i above i. That is
3 to 6 big-int rounds in place of one Python step per edge. Measured
against the scatter (2 vCPUs, CPython 3.11.7): on the bench's G(n, p),
n <= 40 and about 90 edges, decode takes 0.59-0.64 of the time, and on
``complete(64)`` about a tenth. The smallest tile keeps the fixed cost
of the packing and the rounds low, but tiny sparse graphs still pay
1-3 us more than the scatter did (``edgeless(1)`` 1.3 -> 2.7 us,
``random_tree(15, 3)`` 5.4 -> 7 us).

For n > 64 a second pass scatters each column bit by bit into the rows
it names. Tiling such an n into 64 x 64 blocks was measured and not
taken: dense graphs gained (``complete(2000)`` 0.47 -> 0.014 s), but
sparse ones lost (``path(5000)`` 0.015 -> 0.047 s), and nothing reads
graphs that large today.

An optional ">>graph6<<" header is tolerated on input and never written.
"""

from __future__ import annotations

import binascii
import struct

HEADER = b">>graph6<<"

_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
# a byte outside 63..126 becomes "*", which is not in the base64 alphabet
_FROM_G6 = bytes(_B64[b - 63] if 63 <= b <= 126 else ord("*") for b in range(256))
_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_WINDOW = 4096
_WINDOW_BYTES = _WINDOW // 8


def _transpose_rounds(m: int) -> tuple[tuple[int, int], ...]:
    """(distance, mask) of the delta swaps that transpose an m x m bit tile."""
    rounds = []
    s = m // 2
    while s:
        # bit (r, c) sits at r*m + c: the swap trades (r, c) in the mask, r & s == 0
        # and c & s != 0, with (r + s, c - s), (m - 1)s bits above it
        row = sum(1 << c for c in range(m) if c & s)
        rounds.append(((m - 1) * s, sum(row << r * m for r in range(m) if not r & s)))
        s //= 2
    return tuple(rounds)


_TILE_SIZES = [(m, struct.Struct(f"<{m}{code}"), _transpose_rounds(m))
               for m, code in ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))]
# by n <= 64, the smallest tile that holds n columns
_TILES = [next(t for t in _TILE_SIZES if n <= t[0]) for n in range(65)]


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
    chunks = []
    acc = pos = 0
    for j in range(1, n):
        acc |= (adj[j] & ((1 << j) - 1)) << pos
        pos += j
        if pos > _WINDOW:
            k = pos // 8
            chunks.append((acc & ((1 << 8 * k) - 1)).to_bytes(k, "little"))
            acc >>= 8 * k
            pos -= 8 * k
    chunks.append(acc.to_bytes((pos + 7) // 8, "little"))
    packed = binascii.b2a_base64(b"".join(chunks).translate(_REVERSE), newline=False)
    return _encode_size(n) + packed[: (n * (n - 1) // 2 + 5) // 6].translate(_TO_G6)


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
    b64 = data[off : off + nbytes].translate(_FROM_G6)
    bad = b64.find(b"*")
    if bad >= 0:
        raise Graph6Error(f"body byte {data[off + bad]} out of range", off + bad)
    if len(data) > off + nbytes:
        raise Graph6Error("trailing garbage after adjacency body", off + nbytes)
    raw = binascii.a2b_base64(b64 + b"A" * (-nbytes % 4)).translate(_REVERSE)
    tile = _TILES[n] if n <= 64 else None
    adj = [0] * (tile[0] if tile else n)
    acc = have = pos = 0
    for j in range(1, n):
        # a column can be longer than the window
        while have < j:
            acc |= int.from_bytes(raw[pos : pos + _WINDOW_BYTES], "little") << have
            pos += _WINDOW_BYTES
            have += _WINDOW
        adj[j] = acc & ((1 << j) - 1)
        acc >>= j
        have -= j
    if tile:
        _, packer, rounds = tile
        t = int.from_bytes(packer.pack(*adj), "little")
        for d, mask in rounds:
            x = ((t >> d) ^ t) & mask
            t ^= x ^ (x << d)
        rows = packer.unpack(t.to_bytes(packer.size, "little"))
        return n, [c | r for c, r in zip(adj[:n], rows)]
    for j in range(1, n):
        col = adj[j]
        bit = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    return n, adj
