"""Finite fields GF(2^m) and linear multicast codes on given path families.

The shared messages are h0 field symbols injected at the source. Every coded
edge carries a linear combination of the symbols just before it on its paths;
the global vector of an edge expresses its symbol directly in terms of the
messages. With two terminals a binary code suffices, so the code is built
deterministically over GF(2), edge by edge, keeping each terminal's vectors
independent; its 0/1 coefficients are written in the requested GF(2^m), a
field fixed by m alone through its modulus DEFAULT_MODULI[m].

The code is linear, so one evaluation can carry many message tuples, one in
each m-bit lane of every symbol. With message i set to 1 << m*i, lane j
carries the unit message e_j, and lane j of each edge's symbol is entry j of
its global vector: one evaluation yields them all (coding_vectors).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import CyclicSupportError, InputError
from .flow import EdgePath
# Unused here; perfbench/tracer.py wraps nccode.max_flow and nccode.decompose_paths.
from .flow import decompose_paths, max_flow  # noqa: F401
from .netgraph import EdgeId

# One primitive polynomial per field size (top bit included): x has order
# 2^m - 1 modulo each, so the powers of x are every nonzero element. A field
# is fixed by its size alone; the degree-8 entry is x^8+x^4+x^3+x^2+1.
DEFAULT_MODULI: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

MAX_FIELD_BITS = 16
# Fields up to this size multiply through log tables; larger ones do without.
LOG_TABLE_BITS = 12


def _poly_mod(a: int, m: int) -> int:
    shift = a.bit_length() - m.bit_length()
    while shift >= 0:
        a ^= m << shift
        shift = a.bit_length() - m.bit_length()
    return a


def _window(c: int) -> tuple[int, ...]:
    """The carry-less products c * k in GF(2)[x] for every k < 16."""
    c2 = c << 1
    c3 = c2 ^ c
    c4 = c << 2
    c8 = c << 3
    c12 = c8 ^ c4
    return (0, c, c2, c3, c4, c4 ^ c, c4 ^ c2, c4 ^ c3,
            c8, c8 ^ c, c8 ^ c2, c8 ^ c3, c12, c12 ^ c, c12 ^ c2, c12 ^ c3)


class GF:
    """Arithmetic in GF(2^bits) modulo DEFAULT_MODULI[bits].

    Elements are plain ints in [0, 2^bits). Addition is XOR. Fields of up to
    12 bits multiply through log/antilog tables, the powers of x. Larger
    fields keep no table of 2^bits entries: a product takes four bits of one
    factor at a time from a 16-entry window of multiples of the other, then
    folds the high half back through two byte tables of (h << bits) mod
    modulus, and mat_vec builds each window once and reuses it down a column.
    An inverse runs the extended Euclidean algorithm over GF(2)[x].

    mul_lanes multiplies many elements at once, packed side by side into the
    bits-wide lanes of one int; since addition is XOR, adding two packed ints
    adds lane by lane.
    """

    def __init__(self, bits: int):
        if not 1 <= bits <= MAX_FIELD_BITS:
            raise InputError(f"field bits must be in 1..{MAX_FIELD_BITS}, got {bits}")
        self.bits = bits
        self.modulus = DEFAULT_MODULI[bits]
        self.size = 1 << bits
        self._exp: list[int] = []
        self._log: list[int] | None = None  # None: no log tables
        self._fold_lo: list[int] = []
        self._fold_hi: list[int] = []
        if bits <= LOG_TABLE_BITS:
            exp, x = [], 1
            for _ in range(self.size - 1):
                exp.append(x)
                x <<= 1
                if x & self.size:
                    x ^= self.modulus
            log = [0] * self.size
            for i, v in enumerate(exp):
                log[v] = i
            self._exp = exp + exp  # twice over: log a + log b needs no modulo
            self._log = log
        else:
            # A window product has at most 2*bits-1 bits, so its high half
            # h = p >> bits has at most bits-1: one table per byte of h.
            self._fold_lo = self._fold_table(0, 8)
            self._fold_hi = self._fold_table(8, bits - 9)

    def _fold_table(self, first: int, count: int) -> list[int]:
        """(h << (bits + first)) mod modulus for every h < 2^count."""
        table = [0]
        for i in range(first, first + count):
            step = _poly_mod(1 << (self.bits + i), self.modulus)
            table += [t ^ step for t in table]
        return table

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        w = _window(a)
        p = w[b & 15] ^ w[b >> 4 & 15] << 4 ^ w[b >> 8 & 15] << 8 ^ w[b >> 12] << 12
        h = p >> self.bits
        return p & (self.size - 1) ^ self._fold_lo[h & 255] ^ self._fold_hi[h >> 8]

    def mul_lanes(self, c: int, x: int) -> int:
        """c times each bits-wide lane of x; lane j is bits [bits*j, bits*(j+1)).

        Multiplying by c is linear over GF(2): the product is the XOR, over
        the bit positions i of a lane, of c*x^i placed in every lane whose
        bit i is set. Gathering those bits at the lanes' bottoms leaves 0 or
        1 in each lane, so an integer multiply by c*x^i, which is below
        2^bits, places it without a carry. For x < size this is mul(c, x).
        """
        if x < self.size or not c:
            return self.mul(c, x)
        bits, size = self.bits, self.size
        lanes = -(-x.bit_length() // bits)
        ones = ((1 << bits * lanes) - 1) // (size - 1)  # bit 0 of every lane
        acc = 0
        for i in range(bits):
            acc ^= (x >> i & ones) * c
            c <<= 1
            if c & size:
                c ^= self.modulus
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        # Extended Euclid over GF(2)[x], keeping u = g1*a and v = g2*a mod modulus.
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def mat_vec(self, a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
        log = self._log
        if log is not None:
            exp = self._exp  # mul inlined: this is decoding's inner loop
            out = []
            for row in a:
                acc = 0
                for x, y in zip(row, v):
                    if x and y:
                        acc ^= exp[log[x] + log[y]]
                out.append(acc)
            return out
        # One window per entry of v, shared by every row; each row folds once.
        windows = [_window(x) for x in v]
        bits, mask = self.bits, self.size - 1
        lo, hi = self._fold_lo, self._fold_hi
        out = []
        for row in a:
            p = 0
            for w, x in zip(windows, row):
                p ^= w[x & 15] ^ w[x >> 4 & 15] << 4 ^ w[x >> 8 & 15] << 8 ^ w[x >> 12] << 12
            h = p >> bits
            out.append(p & mask ^ lo[h & 255] ^ hi[h >> 8])
        return out

    # Unused in src/; perfbench/tracer.py wraps GF.mat_inv (CI: python3 -m pytest perfbench).
    def mat_inv(self, a: Sequence[Sequence[int]]) -> list[list[int]] | None:
        """Gauss-Jordan inverse, or None if the matrix is singular."""
        n = len(a)
        mul = self.mul
        work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                return None
            work[col], work[pivot] = work[pivot], work[col]
            scale = self.inv(work[col][col])
            work[col] = pivot_row = [mul(scale, x) for x in work[col]]
            for r in range(n):
                factor = work[r][col]
                if r != col and factor:
                    work[r] = [x ^ mul(factor, y) for x, y in zip(work[r], pivot_row)]
        return [row[n:] for row in work]


# perfbench/tracer.py wraps get_field by name to count field lookups.
@lru_cache(maxsize=None)
def get_field(bits: int) -> GF:
    """The field GF(2^bits), one object per size so its tables are built once."""
    return GF(bits)


# A coded edge's inputs are either coded edges just before it on its paths
# ("edge", eid) or, where a path starts, message indices ("msg", i).
InputKey = tuple[str, int]


@dataclass(frozen=True)
class MulticastCode:
    """A rate-h0 linear code delivering the same h0 symbols to both terminals.

    Its local coefficients define it; coding_vectors derives the global vectors.
    """

    field_bits: int
    h0: int
    support: tuple[EdgeId, ...]  # coded edges in evaluation order
    local_coeffs: dict[EdgeId, dict[InputKey, int]]
    inputs_t1: tuple[EdgeId, ...]
    inputs_t2: tuple[EdgeId, ...]
    decode_t1: tuple[tuple[int, ...], ...]
    decode_t2: tuple[tuple[int, ...], ...]

    @property
    def field(self) -> GF:
        return get_field(self.field_bits)


def _evaluation_order(feeders: dict[EdgeId, set[EdgeId]]) -> list[EdgeId]:
    """Coded edges, each after the edges feeding it, the smallest ready id first.

    One Kahn pass over the feeding relation. Edges left over wait on each
    other; CyclicSupportError names a cycle among them.
    """
    waiting = {eid: len(f) for eid, f in feeders.items()}
    fed: dict[EdgeId, list[EdgeId]] = {}
    for eid, f in feeders.items():
        for j in f:
            fed.setdefault(j, []).append(eid)
    ready = [eid for eid, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    order: list[EdgeId] = []
    while ready:
        eid = heapq.heappop(ready)
        order.append(eid)
        for k in fed.get(eid, ()):
            waiting[k] -= 1
            if not waiting[k]:
                heapq.heappush(ready, k)
    if len(order) < len(feeders):
        # Each edge left waits on a feeder left: walk back until one repeats.
        walk = [min(e for e, n in waiting.items() if n)]
        while (eid := min(j for j in feeders[walk[-1]] if waiting[j])) not in walk:
            walk.append(eid)
        cycle = walk[walk.index(eid) :][::-1]
        raise CyclicSupportError(f"the coded paths make edges {cycle} feed each other in a cycle")
    return order


def build_multicast_code(
    paths_t1: Sequence[EdgePath],
    paths_t2: Sequence[EdgePath],
    *,
    field_bits: int,
) -> MulticastCode:
    """A binary linear multicast code of rate h0 on two path families.

    paths_t1 and paths_t2 hold h0 edge-disjoint source paths each, to T1 and
    to T2; their union is the coded support. Each coded edge combines the
    edges just before it on its paths, or the messages where a path starts
    (Jaggi et al., IEEE Trans. IT 2005); two paths that share edges in
    opposite orders make that cyclic and raise CyclicSupportError. Two
    terminals need only GF(2) (Fragouli & Soljanin, IEEE Trans. IT 2006): the
    0/1 coefficients are written in GF(2^field_bits), which contains GF(2).

    Vectors are h0-bit ints. Each terminal keeps the vector f_l on its path l,
    first the unit vector e_l, and a dual basis with <d_k, f_l> = [k == l].
    In evaluation order, an edge takes the first of a, b, a+b (its feeders'
    vectors) whose parity against the dual of each path it continues is 1:
    a suits its own path and b its own, so a+b suits both if neither suits
    the other. The f_l stay a basis, and decode[i][k] is bit i of d_k. An
    edge used twice by one family, or the first edge of a path that another
    path feeds, raises InputError.
    """
    h0 = len(paths_t1)
    if len(paths_t2) != h0:
        raise InputError(f"need as many paths to T2 as to T1, got {len(paths_t2)} and {h0}")
    field = get_field(field_bits)
    # Per coded edge, the (terminal, path, input) of each path it continues:
    # the input is the path's edge before it, or its message where it starts.
    continues: dict[EdgeId, list[tuple[int, int, InputKey]]] = {}
    for t, paths in enumerate((paths_t1, paths_t2)):
        for l, p in enumerate(paths):
            prev: InputKey = ("msg", l)
            for eid in p.edges:
                on = continues.setdefault(eid, [])
                if on and on[-1][0] == t:
                    raise InputError(f"edge {eid} is used twice by the paths to T{t + 1}")
                on.append((t, l, prev))
                prev = ("edge", eid)
    feeders: dict[EdgeId, set[EdgeId]] = {}
    for eid, on in continues.items():
        if len({kind for _, _, (kind, _) in on}) > 1:
            raise InputError(f"edge {eid} starts a path but another path feeds it")
        feeders[eid] = {ref for _, _, (kind, ref) in on if kind == "edge"}
    ordered = _evaluation_order(feeders)

    vector: dict[InputKey, int] = {("msg", j): 1 << j for j in range(h0)}
    duals = [[1 << j for j in range(h0)] for _ in range(2)]
    local: dict[EdgeId, dict[InputKey, int]] = {}
    for eid in ordered:
        on = continues[eid]
        fed = sorted({key for _, _, key in on})
        a, b = vector[fed[0]], vector[fed[-1]]
        # Copying a suits the paths a feeds, and so every path when a == b.
        for coeffs in ((1, 0), (0, 1), (1, 1)):
            v = a * coeffs[0] ^ b * coeffs[1]
            if all((duals[t][l] & v).bit_count() & 1 for t, l, _ in on):
                break
        for t, l, key in on:
            if v != vector[key]:
                dl = duals[t][l]
                duals[t] = [dk ^ dl if (dk & v).bit_count() & 1 else dk for dk in duals[t]]
                duals[t][l] = dl
        vector[("edge", eid)] = v
        if fed[0][0] == "msg":
            local[eid] = {("msg", j): v >> j & 1 for j in range(h0)}
        else:
            local[eid] = dict(zip(fed, coeffs))
    d1, d2 = (tuple(tuple(dk >> i & 1 for dk in d) for i in range(h0)) for d in duals)
    return MulticastCode(
        field_bits=field.bits,
        h0=h0,
        support=tuple(ordered),
        local_coeffs=local,
        inputs_t1=tuple(p.edges[-1] for p in paths_t1),
        inputs_t2=tuple(p.edges[-1] for p in paths_t2),
        decode_t1=d1,
        decode_t2=d2,
    )


def unit_lanes(bits: int, h0: int) -> list[int]:
    """The h0 unit messages packed into bits-wide lanes: e_j is 1 in lane j."""
    return [1 << bits * j for j in range(h0)]


def unpack_lanes(bits: int, x: int, n: int) -> list[int]:
    """The field elements in the first n bits-wide lanes of x, lane 0 first."""
    mask = (1 << bits) - 1
    return [x >> shift & mask for shift in range(0, bits * n, bits)]


def coding_vectors(code: MulticastCode) -> dict[EdgeId, tuple[int, ...]]:
    """The global vector of every coded edge, as its local coefficients define it.

    One evaluation on the packed unit messages: lane j of an edge's symbol is
    its value under the j-th unit message, entry j of its vector.
    """
    bits, h0 = code.field_bits, code.h0
    symbols = apply_code(code, unit_lanes(bits, h0))
    return {eid: tuple(unpack_lanes(bits, v, h0)) for eid, v in symbols.items()}


def apply_code(code: MulticastCode, x0: Sequence[int]) -> dict[EdgeId, int]:
    """Forward-evaluate the code: the symbol carried by every coded edge.

    Each edge, in support order, applies its local coefficients to its tail's
    incoming symbols (messages themselves at the source). A coefficient of 0
    is skipped and one of 1, all a synthesized code holds, adds its symbol
    without a field multiply; any other goes through GF.mul_lanes. So a
    symbol may pack several field elements into bits-wide lanes, each
    evaluated as if alone: on the packed unit messages unit_lanes(bits, h0)
    one call yields every global vector.
    """
    if len(x0) != code.h0:
        raise InputError(f"expected {code.h0} message symbols, got {len(x0)}")
    symbols: dict[EdgeId, int] = {}
    mul_lanes = code.field.mul_lanes
    local_coeffs = code.local_coeffs
    for eid in code.support:
        acc = 0
        for (kind, ref), c in local_coeffs[eid].items():
            if c == 1:
                acc ^= x0[ref] if kind == "msg" else symbols[ref]
            elif c:
                acc ^= mul_lanes(c, x0[ref] if kind == "msg" else symbols[ref])
        symbols[eid] = acc
    return symbols
