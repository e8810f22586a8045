"""graph6 / sparse6 / edge-list serialization.

The two six-bit formats follow the published byte layouts exactly: graph6
stores the upper triangle of a simple graph's adjacency matrix in the order
(0,1), (0,2), (1,2), (0,3), ... with zero padding; sparse6 stores (1+k)-bit
groups with a leading ':' and preserves parallel edges and loops.  The body
of either is built and read as a bit string of ``'0'``/``'1'`` characters, so
``format``, ``int(..., 2)`` and ``str.find`` do the bit work.  The edge
list format is one edge per line with an ``n m`` header, ``#`` comments,
duplicate lines meaning parallel edges, and ``u u`` meaning a loop.
"""

from __future__ import annotations

from typing import Iterator

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


_CHUNK_CHARS = {format(word, "06b"): chr(word + 63) for word in range(64)}


def _pack(n: int, bits: str) -> str:
    """The six-bit text of vertex count ``n`` followed by the bit string
    ``bits`` (``'0'``/``'1'`` characters), six bits per character, most
    significant first; a short last chunk is padded with ``'0'``."""
    bits += "0" * (-len(bits) % 6)
    head = "".join(chr(d + 63) for d in _encode_n(n))
    return head + "".join([_CHUNK_CHARS[bits[i : i + 6]] for i in range(0, len(bits), 6)])


def _unpack(text: str) -> tuple[int, str]:
    """The inverse of ``_pack``: the vertex count and the body as a bit
    string, six ``'0'``/``'1'`` characters per body character."""
    data = []
    for ch in text:
        value = ord(ch) - 63
        if not (0 <= value <= 63):
            raise EncodingError(f"character {ch!r} outside the six-bit range")
        data.append(value)
    n, body = _decode_n(data)
    return n, "".join([format(word, "06b") for word in body])


# -- graph6 -----------------------------------------------------------------------


def encode_graph6(g: SimpleGraph) -> str:
    """The graph6 line for a simple graph (no trailing newline).  Column j
    of the upper triangle is bits 0..j-1 of vertex j's neighbor mask, low
    bit first."""
    masks = g.adjacency_masks()
    columns = [format(masks[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)]
    return _pack(g.n, "".join(columns))


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
    if "1" in bits[need:]:
        raise EncodingError("nonzero padding bits in graph6 data")
    edges = []
    start = 0
    for j in range(1, n):
        i = bits.find("1", start, start + j)
        while i >= 0:
            edges.append((i - start, j))
            i = bits.find("1", i + 1, start + j)
        start += j
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
    groups = []
    edges = sorted((max(u, v), min(u, v)) for u, v in h.endpoints)
    curv = 0
    for v, u in edges:
        if v == curv:
            groups.append(f"0{u:0{k}b}")
        elif v == curv + 1:
            curv += 1
            groups.append(f"1{u:0{k}b}")
        else:
            curv = v
            groups.append(f"1{v:0{k}b}0{u:0{k}b}")
    bits = "".join(groups)
    pad = (-len(bits)) % 6
    if k < 6 and n == (1 << k) and pad >= k and curv < n - 1:
        # All-ones padding would decode as a loop at n-1; prefix a zero bit.
        bits += "0"
        pad = (-len(bits)) % 6
    return ":" + _pack(n, bits + "1" * pad)


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
    for pos in range(0, len(bits) - k, 1 + k):
        if bits[pos] == "1":
            v += 1
        x = int(bits[pos + 1 : pos + 1 + k], 2)
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return Multigraph(n, edges)


# -- edge list ------------------------------------------------------------------------


def edgelist_lines(h: Multigraph) -> Iterator[str]:
    """The edge-list lines, each with its newline, made one at a time: the
    ``n m`` header then one ``u v`` line per edge."""
    yield f"{h.n} {h.edge_count}\n"
    for u, v in h.endpoints:
        yield f"{u} {v}\n"


def encode_edgelist(h: Multigraph) -> str:
    """Multi-line text: ``n m`` header then one ``u v`` line per edge."""
    return "".join(edgelist_lines(h))


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
    if n < 0:
        raise EncodingError("vertex count cannot be negative")
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

