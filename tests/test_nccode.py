from __future__ import annotations

import random
from functools import reduce
from itertools import product
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcast.errors import CyclicSupportError, InputError
from dualcast.flow import EdgePath
from dualcast.nccode import (
    DEFAULT_MODULI,
    GF,
    apply_code,
    build_multicast_code,
    coding_vectors,
    get_field,
)
from dualcast.planner import synthesize
from dualcast.recolor import symmetric_pass

from conftest import random_feasible_instances
from oracles import (
    build_multicast_code_reference,
    decode_symbols,
    evaluate_code,
    gf2_rank,
    gf_mat_mul,
    gf_mul_reference,
    gf_rank,
    is_irreducible_reference,
    multiplicative_order_of_x,
)
from strategies import crossing_instances, feasible_instances

GF256 = get_field(8)

FIELDS = [(bits, DEFAULT_MODULI[bits]) for bits in range(1, 17)]

# The butterfly fixture's edges: 0=s->a, 1=s->b, 2=a->t1, 3=b->t2, 4=a->m,
# 5=b->m, 6=m->n, 7=n->t1, 8=n->t2. Two edge-disjoint paths to each terminal,
# both through the bottleneck m->n.
BUTTERFLY_T1 = (EdgePath((0, 2)), EdgePath((1, 5, 6, 7)))
BUTTERFLY_T2 = (EdgePath((1, 3)), EdgePath((0, 4, 6, 8)))


def butterfly_code_for(field_bits=8):
    return build_multicast_code(BUTTERFLY_T1, BUTTERFLY_T2, field_bits=field_bits)


def code_fields(code):
    return (code.support, code.local_inputs, code.inputs_t1, code.inputs_t2,
            code.decode_t1, code.decode_t2)


def outcome(build, paths_t1, paths_t2):
    """The code's fields, or the type and text of the error the builder raises."""
    try:
        return code_fields(build(paths_t1, paths_t2, field_bits=8))
    except (InputError, CyclicSupportError) as exc:
        return type(exc), str(exc)


class TestFieldBasics:
    @given(st.integers(0, 255))
    def test_adding_an_element_to_itself_vanishes(self, x):
        assert x ^ x == 0

    @given(st.integers(0, 255))
    def test_one_is_the_multiplicative_identity(self, x):
        assert GF256.mul(1, x) == x

    def test_documented_product_with_default_modulus(self):
        # 0x02 * 0x80 lifts to x^8, which reduces by one XOR with 0x11D.
        assert GF256.mul(0x02, 0x80) == 0x1D
        assert 0x100 ^ 0x11D == 0x1D

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_every_nonzero_element_has_an_inverse(self, bits):
        f = get_field(bits)
        for a in range(1, f.size):
            assert f.mul(a, f.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    @pytest.mark.parametrize("bits", sorted(DEFAULT_MODULI))
    def test_default_moduli_are_irreducible(self, bits):
        poly = DEFAULT_MODULI[bits]
        assert poly.bit_length() == bits + 1
        assert is_irreducible_reference(poly)

    @pytest.mark.parametrize("bits", sorted(DEFAULT_MODULI))
    def test_default_moduli_are_primitive(self, bits):
        # x generates every nonzero element of each field.
        assert multiplicative_order_of_x(DEFAULT_MODULI[bits]) == (1 << bits) - 1

    @pytest.mark.parametrize("bits, modulus", FIELDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_matches_schoolbook_reference(self, bits, modulus, data):
        field = get_field(bits)
        a = data.draw(st.integers(0, field.size - 1))
        b = data.draw(st.integers(0, field.size - 1))
        assert field.mul(a, b) == gf_mul_reference(a, b, bits, modulus)

    @pytest.mark.parametrize("bits, modulus", FIELDS)
    def test_extreme_products_match_schoolbook_reference(self, bits, modulus):
        # All-ones and top-bit operands give the longest carry-less products.
        field = get_field(bits)
        top = field.size - 1
        operands = {x & top for x in (0, 1, 2, 3, top, top - 1, top >> 1, (top >> 1) + 1, 0x5555)}
        for a, b in product(operands, repeat=2):
            assert field.mul(a, b) == gf_mul_reference(a, b, bits, modulus)

    @pytest.mark.parametrize("bits, modulus", [f for f in FIELDS if f[0] > 12])
    def test_inverse_in_large_fields(self, bits, modulus):
        f = get_field(bits)
        rng = random.Random(3)
        samples = [1, 2, f.size - 1, f.size >> 1] + [rng.randrange(1, f.size) for _ in range(500)]
        for a in samples:
            b = f.inv(a)
            assert 0 < b < f.size
            assert gf_mul_reference(a, b, bits, modulus) == 1

    def test_one_field_object_per_field(self):
        for bits in sorted(DEFAULT_MODULI):
            assert get_field(bits) is get_field(bits)
            assert get_field(bits).modulus == DEFAULT_MODULI[bits]

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_field_axioms_sampled(self, a, b, c):
        f = GF256
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    def test_bad_field_parameters_rejected(self):
        with pytest.raises(InputError):
            GF(0)
        with pytest.raises(InputError):
            GF(17)


class TestMatrices:
    @pytest.mark.parametrize("bits, modulus", [(8, 0x11D), (16, 0x1100B)])
    def test_inverse_round_trip(self, bits, modulus):
        f = get_field(bits)
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = [[rng.randrange(f.size) for _ in range(n)] for _ in range(n)]
            inv = f.mat_inv(m)
            if inv is None:
                assert gf_rank(f, m) < n
                continue
            prod = gf_mat_mul(f, inv, m)
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("bits, modulus", [(8, 0x11D), (16, 0x1100B)])
    def test_singular_matrix_has_no_inverse(self, bits, modulus):
        f = get_field(bits)
        assert f.mat_inv([[1, 1], [1, 1]]) is None
        assert gf_rank(f, [[1, 1], [1, 1]]) == 1
        rng = random.Random(2)
        rows = [[rng.randrange(f.size) for _ in range(4)] for _ in range(3)]
        c = rng.randrange(2, f.size)
        m = rows + [[x ^ f.mul(c, y) for x, y in zip(rows[0], rows[2])]]
        assert f.mat_inv(m) is None
        assert gf_rank(f, m) == 3


class TestButterflyExhaustive:
    def test_gf2_bottleneck_vector_is_forced(self, butterfly):
        """With unit vectors on the two source branches, every decodable GF(2)
        assignment puts the all-ones combination on the bottleneck edge."""
        # Edge roles: 2=a->t1, 3=b->t2, 4=a->m, 5=b->m, 6=m->n, 7=n->t1, 8=n->t2.
        decodable = 0
        for c2, c3, c4, c5, c6a, c6b, c7, c8 in product((0, 1), repeat=8):
            g = {0: (1, 0), 1: (0, 1)}
            g[2] = tuple(c2 & x for x in g[0])
            g[4] = tuple(c4 & x for x in g[0])
            g[3] = tuple(c3 & x for x in g[1])
            g[5] = tuple(c5 & x for x in g[1])
            g[6] = tuple((c6a & x) ^ (c6b & y) for x, y in zip(g[4], g[5]))
            g[7] = tuple(c7 & x for x in g[6])
            g[8] = tuple(c8 & x for x in g[6])
            det_t1 = (g[2][0] & g[7][1]) ^ (g[2][1] & g[7][0])
            det_t2 = (g[3][0] & g[8][1]) ^ (g[3][1] & g[8][0])
            if det_t1 and det_t2:
                decodable += 1
                assert g[6] == (1, 1)
        assert decodable > 0


class TestBuildMulticastCode:
    def test_zero_rate_gives_empty_code(self):
        code = build_multicast_code((), (), field_bits=8)
        assert code.support == ()
        assert code.h0 == 0
        assert apply_code(code, []) == {}

    def test_disjoint_parallel_routes_code_trivially(self):
        # parallel_net(2, 2): edges 0, 1 go s->t1 and edges 2, 3 go s->t2.
        paths_t1 = (EdgePath((0,)), EdgePath((1,)))
        paths_t2 = (EdgePath((2,)), EdgePath((3,)))
        code = build_multicast_code(paths_t1, paths_t2, field_bits=8)
        x0 = [17, 202]
        symbols = apply_code(code, x0)
        assert decode_symbols(code, 1, symbols) == x0
        assert decode_symbols(code, 2, symbols) == x0

    def test_butterfly_code_decodes_random_messages(self):
        code = butterfly_code_for()
        rng = random.Random(7)
        for _ in range(10):
            x0 = [rng.randrange(256) for _ in range(2)]
            symbols = apply_code(code, x0)
            assert decode_symbols(code, 1, symbols) == x0
            assert decode_symbols(code, 2, symbols) == x0

    def test_butterfly_support_is_within_the_coded_core(self, butterfly):
        code = butterfly_code_for()
        assert set(code.support) <= {e.eid for e in butterfly.edges}
        assert len(code.inputs_t1) == 2 and len(code.inputs_t2) == 2
        for eid in code.inputs_t1:
            assert butterfly.edge(eid).head == "t1"

    def test_each_coded_edge_xors_its_path_predecessors(self):
        code = butterfly_code_for()
        # Edge 0 starts T1's path 0 and T2's path 1, so neither unit vector
        # alone keeps both frontiers independent: it takes e0 + e1. Edge 6,
        # where the paths meet, XORs both symbols before it.
        assert code.local_inputs == {
            0: (("msg", 0), ("msg", 1)),
            1: (("msg", 0),),
            2: (("edge", 0),),
            3: (("edge", 1),),
            4: (("edge", 0),),
            5: (("edge", 1),),
            6: (("edge", 4), ("edge", 5)),
            7: (("edge", 6),),
            8: (("edge", 6),),
        }
        assert code.support == (0, 1, 2, 3, 4, 5, 6, 7, 8)  # smallest ready id first
        assert (code.inputs_t1, code.inputs_t2) == ((2, 7), (3, 8))
        # T1 receives e0 + e1 on edge 2 and e0 on edge 7: message 0 is the
        # XOR of both, message 1 is edge 7's symbol.
        assert (code.decode_t1, code.decode_t2) == (((0, 1), (1,)), ((0,), (1,)))

    def test_families_of_different_sizes_are_rejected(self):
        with pytest.raises(InputError, match=r"^need as many paths to T2 as to T1, got 1 and 2$"):
            build_multicast_code(BUTTERFLY_T1, BUTTERFLY_T2[:1], field_bits=8)

    def test_construction_is_deterministic_and_the_same_in_every_field(self):
        assert butterfly_code_for() == butterfly_code_for()
        gf2 = butterfly_code_for(1)
        for bits in (1, 8, 16):
            code = butterfly_code_for(bits)
            assert code.field_bits == bits
            assert code.local_inputs == gf2.local_inputs
            assert (code.decode_t1, code.decode_t2) == (gf2.decode_t1, gf2.decode_t2)

    @pytest.mark.parametrize("bits", [0, 17, -1])
    def test_symbol_width_outside_1_to_16_is_refused(self, bits):
        with pytest.raises(InputError, match=rf"field bits must be in 1\.\.16, got {bits}"):
            butterfly_code_for(bits)

    @pytest.mark.parametrize(
        "paths_t1, paths_t2, named",
        [
            # Both paths to T1 take edge 0.
            ((EdgePath((0, 2)), EdgePath((0, 4, 6, 7))), BUTTERFLY_T2,
             "edge 0 is used twice by the paths to T1"),
            # A path to T2 starts on edge 6, which edge 5 feeds on a path to T1.
            (BUTTERFLY_T1, (EdgePath((1, 3)), EdgePath((6, 8))),
             "edge 6 starts a path but another path feeds it"),
            # Both faults: T2's first path starts on the fed edge 6, and its
            # second takes edge 8 again. The reuse is named, though the walk
            # met the fed start first.
            (BUTTERFLY_T1, (EdgePath((6, 8)), EdgePath((1, 8))),
             "edge 8 is used twice by the paths to T2"),
            # Edges 6 and 2 both start a path to T2 and are fed on paths to T1.
            # The walk meets 6 first on T2's paths, but 2 first on T1's.
            (BUTTERFLY_T1, (EdgePath((6, 8)), EdgePath((2,))),
             "edge 2 starts a path but another path feeds it"),
        ],
    )
    def test_malformed_families_are_refused(self, paths_t1, paths_t2, named):
        assert outcome(build_multicast_code, paths_t1, paths_t2) == (InputError, named)
        assert outcome(build_multicast_code_reference, paths_t1, paths_t2) == (InputError, named)

    def test_paths_sharing_edges_in_opposite_orders_name_the_cycle(self):
        # Edges 0=s->a, 1=s->b, 2=a->b, 3=b->a, 4=a->t1, 5=b->t2: the path to
        # t1 takes 2 before 3 and the path to t2 takes 3 before 2, so each of
        # the two edges would combine the other's symbol.
        to_t1 = (EdgePath((0, 2, 3, 4)),)
        to_t2 = (EdgePath((1, 3, 2, 5)),)
        message = "the coded paths make edges [3, 2] feed each other in a cycle"
        for build in (build_multicast_code, build_multicast_code_reference):
            assert outcome(build, to_t1, to_t2) == (CyclicSupportError, message)


class TestBuilderMatchesReference:
    """The one-walk builder against the separate-pass reference in tests/oracles.py."""

    @pytest.mark.parametrize(
        "instances",
        [feasible_instances(), feasible_instances(cyclic=True), crossing_instances()],
        ids=["acyclic", "cyclic", "crossing"],
    )
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_same_code_on_pass_two_coded_paths(self, instances, data):
        net, d = data.draw(instances)
        paths = symmetric_pass(net, d).coded_paths
        assert outcome(build_multicast_code, *paths) == outcome(
            build_multicast_code_reference, *paths
        )

    def test_a_shared_edge_whose_feeders_carry_one_vector_copies_the_smaller(self):
        # Edge 0 starts both paths; they part on edges 1 and 2, which copy its
        # vector, and meet again on edge 3, which copies edge 1's.
        paths_t1, paths_t2 = (EdgePath((0, 1, 3)),), (EdgePath((0, 2, 3)),)
        code = build_multicast_code(paths_t1, paths_t2, field_bits=8)
        assert code.local_inputs[3] == (("edge", 1),)
        assert code == build_multicast_code_reference(paths_t1, paths_t2, field_bits=8)

    def test_same_code_on_the_butterfly_and_in_evaluation_order(self):
        code = butterfly_code_for()
        ref = build_multicast_code_reference(BUTTERFLY_T1, BUTTERFLY_T2, field_bits=8)
        assert code == ref
        assert list(code.local_inputs) == list(code.support)


@pytest.fixture(scope="module")
def butterfly_code():
    return butterfly_code_for()


class TestApplyCode:
    def test_zero_messages_give_zero_symbols(self, butterfly, butterfly_code):
        symbols = apply_code(butterfly_code, [0, 0])
        assert set(symbols.values()) == {0}

    def test_unit_messages_read_out_global_coefficients(self, butterfly, butterfly_code):
        code = butterfly_code
        vectors = coding_vectors(code)
        for i in range(2):
            x0 = [int(i == j) for j in range(2)]
            symbols = apply_code(code, x0)
            for eid in code.support:
                assert symbols[eid] == vectors[eid][i]

    @given(
        st.lists(st.integers(0, 255), min_size=2, max_size=2),
        st.lists(st.integers(0, 255), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_evaluation_is_linear(self, butterfly, butterfly_code, x, y):
        code = butterfly_code
        sx = apply_code(code, x)
        sy = apply_code(code, y)
        sxy = apply_code(code, [a ^ b for a, b in zip(x, y)])
        for eid in code.support:
            assert sx[eid] ^ sy[eid] == sxy[eid]

    def test_wrong_message_count_rejected(self, butterfly, butterfly_code):
        with pytest.raises(InputError):
            apply_code(butterfly_code, [1, 2, 3])

    @pytest.mark.parametrize("field_bits", [1, 8, 16])
    def test_evaluation_matches_the_reference_and_unit_messages_give_every_vector(
        self, field_bits
    ):
        rng = random.Random(field_bits)
        coded = 0
        for i, (net, d) in enumerate(random_feasible_instances(seed=31, count=80)):
            if not d.h0:
                continue
            code = synthesize(net, d, seed=i, field_bits=field_bits).multicast
            for _ in range(3):
                x0 = [rng.randrange(2**field_bits) for _ in range(d.h0)]
                assert apply_code(code, x0) == evaluate_code(code, x0)
            # On the unit messages 1 << j, bit j of each symbol is its value under e_j.
            units = apply_code(code, [1 << j for j in range(d.h0)])
            vectors = coding_vectors(code)
            for j in range(d.h0):
                column = evaluate_code(code, [int(i == j) for i in range(d.h0)])
                for eid in code.support:
                    assert units[eid] >> j & 1 == vectors[eid][j] == column[eid]
            coded += 1
        assert coded >= 20

    def test_decode_rows_invert_the_transfer_matrices(self, butterfly_code):
        code = butterfly_code
        h0 = code.h0
        vectors = coding_vectors(code)
        for inputs, rows in (
            (code.inputs_t1, code.decode_t1),
            (code.inputs_t2, code.decode_t2),
        ):
            transfer = [vectors[eid] for eid in inputs]
            assert gf2_rank(transfer) == h0
            prod = [[reduce(xor, (transfer[k][j] for k in row), 0) for j in range(h0)]
                    for row in rows]
            assert prod == [[int(i == j) for j in range(h0)] for i in range(h0)]
