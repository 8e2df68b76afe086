"""Header-less graph6 text encoding for graphs with up to 64 vertices.

Follows the published format: n <= 62 in the one-byte short form, larger n
in the '~'-escaped three-byte form.  Bits of the upper triangle are packed
column by column into 6-bit groups, each offset by 63.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import MAX_VERTICES, Graph, GraphError


def graph6_encode(g: Graph) -> str:
    return graph6_rows(g.rows)


def graph6_rows(rows: Sequence[int]) -> str:
    """The graph6 text of the graph whose neighbour bitmasks are rows."""
    n = len(rows)
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 0x3F)) for s in (12, 6, 0))
    acc = 0
    nbits = 0
    payload = []
    for v in range(1, n):
        col = rows[v]
        for u in range(v):
            acc = (acc << 1) | ((col >> u) & 1)
            nbits += 1
            if nbits == 6:
                payload.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        payload.append(chr(63 + acc))
    return head + "".join(payload)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise GraphError("graph6 byte out of range")
    if data[0] == 63:  # '~' escape
        if len(data) < 4:
            raise GraphError("truncated graph6 size field")
        if data[1] == 63:
            raise GraphError("8-byte graph6 size field not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > MAX_VERTICES:
        raise GraphError(f"graph6 order {n} exceeds {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 payload length {len(body)}, expected {need}")
    rows = [0] * n
    bit = 0
    for v in range(1, n):
        for u in range(v):
            byte = body[bit // 6]
            if (byte >> (5 - bit % 6)) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
    # padding bits beyond the triangle must be zero
    if need:
        used = bit % 6
        if used and body[-1] & ((1 << (6 - used)) - 1):
            raise GraphError("nonzero graph6 padding bits")
    return Graph(n, tuple(rows))
