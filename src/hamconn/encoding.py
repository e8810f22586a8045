"""graph6 / sparse6 / edge-list serialization.

The two six-bit formats follow the published byte layouts exactly: graph6
stores the upper triangle of a simple graph's adjacency matrix in the order
(0,1), (0,2), (1,2), (0,3), ... with zero padding; sparse6 stores (1+k)-bit
groups with a leading ':' and preserves parallel edges and loops.  The edge
list format is one edge per line with an ``n m`` header, ``#`` comments,
duplicate lines meaning parallel edges, and ``u u`` meaning a loop.
"""

from __future__ import annotations

from .errors import GraphError
from .multigraph import Multigraph, SimpleGraph


class EncodingError(GraphError):
    """Malformed serialized graph data."""


def _encode_n(n: int) -> list[int]:
    if n < 0:
        raise EncodingError("vertex count cannot be negative")
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63] + [(n >> 12) & 63, (n >> 6) & 63, n & 63]
    if n <= 68719476735:
        return [63, 63] + [(n >> (6 * i)) & 63 for i in range(5, -1, -1)]
    raise EncodingError("graph too large for the six-bit formats")


def _decode_n(data: list[int]) -> tuple[int, list[int]]:
    if not data:
        raise EncodingError("empty data: missing vertex count")
    if data[0] <= 62:
        return data[0], data[1:]
    if len(data) >= 2 and data[1] <= 62:
        if len(data) < 4:
            raise EncodingError("truncated vertex count")
        return (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    if len(data) < 8:
        raise EncodingError("truncated vertex count")
    n = 0
    for d in data[2:8]:
        n = (n << 6) | d
    return n, data[8:]


def _pack(n: int, bits: list[int]) -> str:
    """The six-bit text of vertex count ``n`` followed by ``bits``, six bits
    per character, most significant first; a short last group is padded
    with zeros in place: each caller builds ``bits`` for this call alone,
    and a padded copy of a large graph6 body would double its peak memory."""
    bits.extend([0] * (-len(bits) % 6))
    data = _encode_n(n)
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        data.append(word)
    return "".join(chr(d + 63) for d in data)


def _unpack(text: str) -> tuple[int, list[int]]:
    """The inverse of ``_pack``: the vertex count and the body's bits."""
    data = []
    for ch in text:
        value = ord(ch) - 63
        if not (0 <= value <= 63):
            raise EncodingError(f"character {ch!r} outside the six-bit range")
        data.append(value)
    n, body = _decode_n(data)
    return n, [(word >> shift) & 1 for word in body for shift in range(5, -1, -1)]


# -- graph6 -----------------------------------------------------------------------


def encode_graph6(g: SimpleGraph) -> str:
    """The graph6 line for a simple graph (no trailing newline)."""
    masks = g.adjacency_masks()
    return _pack(g.n, [(masks[i] >> j) & 1 for j in range(1, g.n) for i in range(j)])


def decode_graph6(line: str) -> SimpleGraph:
    """Parse one graph6 line; strict about length and zero padding."""
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if text.startswith(":"):
        raise EncodingError("sparse6 data passed to the graph6 decoder")
    n, bits = _unpack(text)
    need = n * (n - 1) // 2
    if len(bits) != 6 * ((need + 5) // 6):
        raise EncodingError(f"graph6 body has {len(bits) // 6} words, expected {(need + 5) // 6}")
    if any(bits[need:]):
        raise EncodingError("nonzero padding bits in graph6 data")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return SimpleGraph(n, edges)


# -- sparse6 -----------------------------------------------------------------------


def _sparse6_k(n: int) -> int:
    k = 1
    while (1 << k) < n:
        k += 1
    return k


def encode_sparse6(h: Multigraph) -> str:
    """The sparse6 line for a multigraph (loops and parallels preserved)."""
    n = h.n
    k = _sparse6_k(n)
    bits: list[int] = []

    def enc(x: int) -> None:
        for i in range(k - 1, -1, -1):
            bits.append((x >> i) & 1)

    edges = sorted((max(u, v), min(u, v)) for u, v in h.endpoints)
    curv = 0
    for v, u in edges:
        if v == curv:
            bits.append(0)
            enc(u)
        elif v == curv + 1:
            curv += 1
            bits.append(1)
            enc(u)
        else:
            curv = v
            bits.append(1)
            enc(v)
            bits.append(0)
            enc(u)
    pad = (-len(bits)) % 6
    if k < 6 and n == (1 << k) and pad >= k and curv < n - 1:
        # All-ones padding would decode as a loop at n-1; prefix a zero bit.
        bits.append(0)
        pad = (-len(bits)) % 6
    bits.extend([1] * pad)
    return ":" + _pack(n, bits)


def decode_sparse6(line: str) -> Multigraph:
    """Parse one sparse6 line into a multigraph."""
    text = line.strip()
    if text.startswith(">>sparse6<<"):
        text = text[len(">>sparse6<<") :]
    if not text.startswith(":"):
        raise EncodingError("sparse6 data must start with ':'")
    n, bits = _unpack(text[1:])
    k = _sparse6_k(n)
    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for i in range(pos + 1, pos + 1 + k):
            x = (x << 1) | bits[i]
        pos += 1 + k
        if b:
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return Multigraph(n, edges)


# -- edge list ------------------------------------------------------------------------


def encode_edgelist(h: Multigraph) -> str:
    """Multi-line text: ``n m`` header then one ``u v`` line per edge."""
    lines = [f"{h.n} {h.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in h.endpoints)
    return "\n".join(lines) + "\n"


def decode_edgelist(text: str) -> Multigraph:
    """Parse edge-list text; duplicates are parallel edges, ``u u`` a loop."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise EncodingError("empty edge list")
    head = rows[0].split()
    if len(head) != 2:
        raise EncodingError("edge list header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EncodingError("edge list header must be two integers") from exc
    if len(rows) - 1 != m:
        raise EncodingError(f"edge list declares {m} edges but has {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise EncodingError(f"bad edge line: {row!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EncodingError(f"bad edge line: {row!r}") from exc
        if not (0 <= u < n) or not (0 <= v < n):
            raise EncodingError(f"vertex index out of range in line {row!r}")
        edges.append((u, v))
    return Multigraph(n, edges)

