"""Binary linear multicast codes on given path families.

The shared messages are h0 symbols of m bits each, injected at the source.
With two terminals a binary code suffices, so the code is a set of XORs:
every coded edge carries the XOR of some of the symbols just before it on
its paths (its local inputs), and each terminal recovers message i as the
XOR of some of the symbols entering it (decode row i, a list of positions
in its inputs). The code is built deterministically over GF(2), edge by
edge, keeping each terminal's vectors independent. XOR is the addition of
every GF(2^m), so the symbol width m, which the plan records, changes
nothing in the code.

Over GF(2) an h0-bit int is a vector. With message j set to 1 << j, every
edge's symbol is its global vector: one evaluation yields them all
(coding_vectors).

GF and get_field, arithmetic in GF(2^m), are not used by the pipeline.
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


def _check_field_bits(bits: int) -> None:
    """Refuse a symbol width outside 1..MAX_FIELD_BITS."""
    if not 1 <= bits <= MAX_FIELD_BITS:
        raise InputError(f"field bits must be in 1..{MAX_FIELD_BITS}, got {bits}")


# Unused in src/; perfbench/tracer.py wraps get_field and GF.mat_inv by name.
class GF:
    """Arithmetic in GF(2^bits) modulo DEFAULT_MODULI[bits].

    Elements are plain ints in [0, 2^bits). Addition is XOR; a product is a
    shift-and-add over the bits of one factor, reducing the other modulo the
    modulus as it shifts; an inverse runs the extended Euclidean algorithm
    over GF(2)[x].
    """

    def __init__(self, bits: int):
        _check_field_bits(bits)
        self.bits = bits
        self.modulus = DEFAULT_MODULI[bits]
        self.size = 1 << bits

    def mul(self, a: int, b: int) -> int:
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.size:
                a ^= self.modulus
        return p

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


@lru_cache(maxsize=None)
def get_field(bits: int) -> GF:
    """The field GF(2^bits), one object per size."""
    return GF(bits)


# A coded edge's inputs are either coded edges just before it on its paths
# ("edge", eid) or, where a path starts, message indices ("msg", i).
InputKey = tuple[str, int]


@dataclass(frozen=True)
class MulticastCode:
    """A rate-h0 binary code delivering the same h0 symbols to both terminals.

    Each coded edge XORs its local inputs, listed in increasing order; each
    decode row lists, in increasing order, the positions in its terminal's
    inputs that it XORs. field_bits is the symbol width m, 1..16.
    """

    field_bits: int
    h0: int
    support: tuple[EdgeId, ...]  # coded edges in evaluation order
    local_inputs: dict[EdgeId, tuple[InputKey, ...]]
    inputs_t1: tuple[EdgeId, ...]
    inputs_t2: tuple[EdgeId, ...]
    decode_t1: tuple[tuple[int, ...], ...]
    decode_t2: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_field_bits(self.field_bits)


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
    terminals need only GF(2) (Fragouli & Soljanin, IEEE Trans. IT 2006), so
    the code holds only which inputs each edge and decode row XORs, and
    field_bits is only recorded as the symbol width.

    Vectors are h0-bit ints. Each terminal keeps the vector f_l on its path l,
    first the unit vector e_l, and a dual basis with <d_k, f_l> = [k == l].
    In evaluation order, an edge takes the first of a, b, a+b (its feeders'
    vectors) whose parity against the dual of each path it continues is 1:
    a suits its own path and b its own, so a+b suits both if neither suits
    the other. The f_l stay a basis, and decode row i lists the k whose d_k
    has bit i set. An edge used twice by one family, or the first edge of a
    path that another path feeds, raises InputError.
    """
    h0 = len(paths_t1)
    if len(paths_t2) != h0:
        raise InputError(f"need as many paths to T2 as to T1, got {len(paths_t2)} and {h0}")
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
    local: dict[EdgeId, tuple[InputKey, ...]] = {}
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
            local[eid] = tuple(("msg", j) for j in range(h0) if v >> j & 1)
        else:
            local[eid] = tuple(key for key, c in zip(fed, coeffs) if c)
    d1, d2 = (_decode_rows(d) for d in duals)
    return MulticastCode(
        field_bits=field_bits,
        h0=h0,
        support=tuple(ordered),
        local_inputs=local,
        inputs_t1=tuple(p.edges[-1] for p in paths_t1),
        inputs_t2=tuple(p.edges[-1] for p in paths_t2),
        decode_t1=d1,
        decode_t2=d2,
    )


def _decode_rows(duals: list[int]) -> tuple[tuple[int, ...], ...]:
    """Row i: the k, increasing, whose dual d_k has bit i set."""
    rows: list[list[int]] = [[] for _ in duals]
    for k, dk in enumerate(duals):
        while dk:
            low = dk & -dk
            rows[low.bit_length() - 1].append(k)
            dk ^= low
    return tuple(map(tuple, rows))


def coding_vectors(code: MulticastCode) -> dict[EdgeId, tuple[int, ...]]:
    """The global vector of every coded edge, as its local inputs define it.

    One evaluation on the unit messages 1 << j: bit j of an edge's symbol is
    entry j of its vector.
    """
    h0 = code.h0
    symbols = apply_code(code, [1 << j for j in range(h0)])
    return {eid: tuple(v >> j & 1 for j in range(h0)) for eid, v in symbols.items()}


def apply_code(code: MulticastCode, x0: Sequence[int]) -> dict[EdgeId, int]:
    """Forward-evaluate the code: the symbol carried by every coded edge.

    Each edge, in support order, XORs its local inputs: messages at the
    source, and the symbols of the coded edges just before it elsewhere.
    Symbols are ints of any width; on the unit messages 1 << j each symbol
    is its edge's global vector.
    """
    if len(x0) != code.h0:
        raise InputError(f"expected {code.h0} message symbols, got {len(x0)}")
    symbols: dict[EdgeId, int] = {}
    local_inputs = code.local_inputs
    for eid in code.support:
        acc = 0
        for kind, ref in local_inputs[eid]:
            acc ^= x0[ref] if kind == "msg" else symbols[ref]
        symbols[eid] = acc
    return symbols
