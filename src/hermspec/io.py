"""Graph serialization.

Oriented graphs use the standard digraph6 ASCII encoding ('&' header, the
order in one byte, or '~' and three bytes for 63 <= n <= 258047, then the
row-major adjacency bits).  Mixed and signed graphs use a small line format:

    mixed <n>          signed <n>
    u > v   (arc)      u + v   (positive edge)
    u - v   (edge)     u - v   (negative edge)
"""

from __future__ import annotations

from .graphs import GraphError, MixedGraph, OrientedGraph, SignedGraph


DIGRAPH6_MAX_N = 258047


def _size_header(n: int) -> str:
    """digraph6 N(n): one byte up to 62, else '~' and 18 bits in three bytes."""
    if n <= 62:
        return chr(n + 63)
    if n > DIGRAPH6_MAX_N:
        raise GraphError(f"digraph6 supports n <= {DIGRAPH6_MAX_N}, got {n}")
    return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))


def _parse_size(data: str):
    """(n, rest of data) from a digraph6 N(n) prefix."""
    if not data:
        raise GraphError("digraph6 string has no size")
    if data[0] != "~":
        if not 0 <= ord(data[0]) - 63 <= 62:
            raise GraphError(f"invalid digraph6 size byte {data[0]!r}")
        return ord(data[0]) - 63, data[1:]
    if data[1:2] == "~":
        raise GraphError(f"digraph6 reader supports n <= {DIGRAPH6_MAX_N}")
    if len(data) < 4 or any(not 0 <= ord(ch) - 63 <= 63 for ch in data[1:4]):
        raise GraphError("truncated or invalid digraph6 size header")
    n = 0
    for ch in data[1:4]:
        n = (n << 6) | (ord(ch) - 63)
    return n, data[4:]


def encode_digraph6(D: OrientedGraph) -> str:
    if not D.is_oriented:
        raise GraphError("digraph6 encodes oriented graphs only")
    n = D.n
    header = _size_header(n)
    bits = [0] * (n * n)
    for u, v in D.arcs:
        bits[u * n + v] = 1
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "&" + header + "".join(chars)


def decode_digraph6(s: str) -> OrientedGraph:
    s = s.strip()
    if s.startswith(">>digraph6<<"):
        s = s[12:]
    if not s.startswith("&"):
        raise GraphError("not a digraph6 string (missing '&' header)")
    n, body = _parse_size(s[1:])
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise GraphError(f"invalid digraph6 character {ch!r}")
        bits.extend((val >> (5 - i)) & 1 for i in range(6))
    if len(bits) < n * n:
        raise GraphError("digraph6 string too short")
    arcs = [(i // n, i % n) for i in range(n * n) if bits[i]]
    return OrientedGraph(n, arcs)


def encode_mixed(D: MixedGraph) -> str:
    lines = [f"mixed {D.n}"]
    lines += [f"{u} > {v}" for u, v in D.arcs]
    lines += [f"{u} - {v}" for u, v in D.edges]
    return "\n".join(lines) + "\n"


def encode_signed(S: SignedGraph) -> str:
    lines = [f"signed {S.n}"]
    lines += [f"{u} {'+' if sign > 0 else '-'} {v}" for u, v, sign in S.signed_edges]
    return "\n".join(lines) + "\n"


def _parse_relation_lines(lines):
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] not in (">", "-", "+"):
            raise GraphError(f"cannot parse relation line {line!r}")
        yield int(parts[0]), parts[1], int(parts[2])


def decode_mixed(text: str) -> MixedGraph:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("mixed "):
        raise GraphError("missing 'mixed <n>' header")
    n = int(lines[0].split()[1])
    arcs, edges = [], []
    for u, op, v in _parse_relation_lines(lines[1:]):
        if op == ">":
            arcs.append((u, v))
        elif op == "-":
            edges.append((u, v))
        else:
            raise GraphError("'+' is not valid in mixed format")
    return MixedGraph(n, tuple(arcs), tuple(edges))


def decode_signed(text: str) -> SignedGraph:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("signed "):
        raise GraphError("missing 'signed <n>' header")
    n = int(lines[0].split()[1])
    signed = []
    for u, op, v in _parse_relation_lines(lines[1:]):
        if op == ">":
            raise GraphError("'>' is not valid in signed format")
        signed.append((u, v, 1 if op == "+" else -1))
    return SignedGraph(n, tuple(signed))


def load_graph(text: str):
    """Dispatch on content: digraph6, mixed or signed format."""
    stripped = text.strip()
    if stripped.startswith("&") or stripped.startswith(">>digraph6<<"):
        return decode_digraph6(stripped.splitlines()[0])
    if stripped.startswith("mixed "):
        return decode_mixed(stripped)
    if stripped.startswith("signed "):
        return decode_signed(stripped)
    raise GraphError("unrecognized graph format")


def dump_graph(G) -> str:
    if isinstance(G, SignedGraph):
        return encode_signed(G)
    if isinstance(G, MixedGraph):
        if G.is_oriented:
            return encode_digraph6(OrientedGraph(G.n, G.arcs)) + "\n"
        return encode_mixed(G)
    raise GraphError(f"cannot serialize {type(G).__name__}")
