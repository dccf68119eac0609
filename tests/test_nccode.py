from __future__ import annotations

import dataclasses
import random
from itertools import product

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

from conftest import random_feasible_instances
from oracles import (
    decode_symbols,
    gf_mat_mul,
    gf_mul_reference,
    gf_rank,
    is_irreducible_reference,
    multiplicative_order_of_x,
)

GF256 = get_field(8)


def pack(xs, bits):
    """Field elements side by side in bits-wide lanes, xs[0] in the lowest."""
    return sum(x << bits * j for j, x in enumerate(xs))


FIELDS = [(bits, DEFAULT_MODULI[bits]) for bits in range(1, 17)]

# The butterfly fixture's edges: 0=s->a, 1=s->b, 2=a->t1, 3=b->t2, 4=a->m,
# 5=b->m, 6=m->n, 7=n->t1, 8=n->t2. Two edge-disjoint paths to each terminal,
# both through the bottleneck m->n.
BUTTERFLY_T1 = (EdgePath((0, 2)), EdgePath((1, 5, 6, 7)))
BUTTERFLY_T2 = (EdgePath((1, 3)), EdgePath((0, 4, 6, 8)))


def butterfly_code_for(field_bits=8):
    return build_multicast_code(BUTTERFLY_T1, BUTTERFLY_T2, field_bits=field_bits)


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
        # The log tables are the powers of x, so x must generate every nonzero element.
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
    def test_inverse_in_large_tableless_field(self, bits, modulus):
        f = get_field(bits)
        rng = random.Random(3)
        samples = [1, 2, f.size - 1, f.size >> 1] + [rng.randrange(1, f.size) for _ in range(500)]
        for a in samples:
            b = f.inv(a)
            assert 0 < b < f.size
            assert gf_mul_reference(a, b, bits, modulus) == 1

    @pytest.mark.parametrize("bits, modulus", [(8, 0x11D), (13, 0x201B), (16, 0x1100B)])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mat_vec_matches_schoolbook_reference(self, bits, modulus, data):
        f = get_field(bits)
        n = data.draw(st.integers(0, 6))
        element = st.integers(0, f.size - 1)
        v = data.draw(st.lists(element, min_size=n, max_size=n))
        a = data.draw(st.lists(st.lists(element, min_size=n, max_size=n), max_size=6))
        expected = []
        for row in a:
            acc = 0
            for x, y in zip(row, v):
                acc ^= gf_mul_reference(x, y, bits, modulus)
            expected.append(acc)
        assert f.mat_vec(a, v) == expected

    @pytest.mark.parametrize("bits, modulus", FIELDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lane_product_matches_schoolbook_reference_in_every_lane(self, bits, modulus, data):
        field = get_field(bits)
        element = st.integers(0, field.size - 1)
        c = data.draw(element)
        xs = data.draw(st.lists(element, max_size=8))
        want = [gf_mul_reference(c, x, bits, modulus) for x in xs]
        assert want == [field.mul(c, x) for x in xs]
        assert field.mul_lanes(c, pack(xs, bits)) == pack(want, bits)

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

    def test_each_coded_edge_combines_its_path_predecessors(self):
        code = butterfly_code_for()
        inputs = {eid: set(keys) for eid, keys in code.local_coeffs.items()}
        messages = {("msg", 0), ("msg", 1)}
        assert inputs == {
            0: messages,
            1: messages,
            2: {("edge", 0)},
            3: {("edge", 1)},
            4: {("edge", 0)},
            5: {("edge", 1)},
            6: {("edge", 4), ("edge", 5)},
            7: {("edge", 6)},
            8: {("edge", 6)},
        }
        assert code.support == (0, 1, 2, 3, 4, 5, 6, 7, 8)  # smallest ready id first
        assert (code.inputs_t1, code.inputs_t2) == ((2, 7), (3, 8))
        # Edge 0 starts T1's path 0 and T2's path 1, so neither unit vector
        # alone keeps both frontiers independent: it takes e0 + e1.
        assert code.local_coeffs[0] == {("msg", 0): 1, ("msg", 1): 1}

    def test_families_of_different_sizes_are_rejected(self):
        with pytest.raises(InputError, match="as many paths"):
            build_multicast_code(BUTTERFLY_T1, BUTTERFLY_T2[:1], field_bits=8)

    def test_construction_is_deterministic_and_binary_in_every_field(self):
        assert butterfly_code_for() == butterfly_code_for()
        gf2 = butterfly_code_for(1)
        for bits in (1, 8, 16):
            code = butterfly_code_for(bits)
            assert code.field_bits == bits
            assert code.local_coeffs == gf2.local_coeffs
            assert (code.decode_t1, code.decode_t2) == (gf2.decode_t1, gf2.decode_t2)
            assert {c for keys in code.local_coeffs.values() for c in keys.values()} <= {0, 1}
            assert {c for row in code.decode_t1 + code.decode_t2 for c in row} <= {0, 1}

    @pytest.mark.parametrize(
        "paths_t1, paths_t2, named",
        [
            # Both paths to T1 take edge 0.
            ((EdgePath((0, 2)), EdgePath((0, 4, 6, 7))), BUTTERFLY_T2,
             "edge 0 is used twice by the paths to T1"),
            # A path to T2 starts on edge 6, which edge 5 feeds on a path to T1.
            (BUTTERFLY_T1, (EdgePath((1, 3)), EdgePath((6, 8))),
             "edge 6 starts a path but another path feeds it"),
        ],
    )
    def test_malformed_families_are_refused(self, paths_t1, paths_t2, named):
        with pytest.raises(InputError, match=named):
            build_multicast_code(paths_t1, paths_t2, field_bits=8)

    def test_paths_sharing_edges_in_opposite_orders_name_the_cycle(self):
        # Edges 0=s->a, 1=s->b, 2=a->b, 3=b->a, 4=a->t1, 5=b->t2: the path to
        # t1 takes 2 before 3 and the path to t2 takes 3 before 2, so each of
        # the two edges would combine the other's symbol.
        to_t1 = (EdgePath((0, 2, 3, 4)),)
        to_t2 = (EdgePath((1, 3, 2, 5)),)
        with pytest.raises(CyclicSupportError, match=r"edges \[3, 2\] feed each other in a cycle"):
            build_multicast_code(to_t1, to_t2, field_bits=8)



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

    @pytest.mark.parametrize("field_bits", [8, 16])
    def test_packed_evaluation_matches_scalar_runs_lane_by_lane(self, field_bits):
        # Synthesized codes are binary; random coefficients make every edge
        # with a coefficient other than 0 and 1 go through mul_lanes.
        rng = random.Random(field_bits)
        size = 1 << field_bits
        coded = 0
        for i, (net, d) in enumerate(random_feasible_instances(seed=31, count=80)):
            if not d.h0:
                continue
            code = synthesize(net, d, seed=i, field_bits=field_bits).multicast
            local = {
                eid: {key: rng.choice((0, 1, rng.randrange(size))) for key in keys}
                for eid, keys in code.local_coeffs.items()
            }
            code = dataclasses.replace(code, local_coeffs=local)
            coded += any(c > 1 for keys in local.values() for c in keys.values())
            tuples = [[rng.randrange(size) for _ in range(d.h0)] for _ in range(rng.randint(1, 8))]
            tuples += [[int(i == j) for i in range(d.h0)] for j in range(d.h0)]
            scalar = [apply_code(code, x0) for x0 in tuples]
            packed = apply_code(code, [pack(col, field_bits) for col in zip(*tuples)])
            assert packed.keys() == set(code.support)
            for eid, v in packed.items():
                assert v == pack([symbols[eid] for symbols in scalar], field_bits)
            vectors = coding_vectors(code)
            for j, symbols in enumerate(scalar[-d.h0 :]):
                assert all(vectors[eid][j] == symbols[eid] for eid in code.support)
        assert coded >= 20

    def test_decode_matrices_invert_the_transfer_matrices(self, butterfly_code):
        code = butterfly_code
        f = code.field
        vectors = coding_vectors(code)
        for inputs, matrix in (
            (code.inputs_t1, code.decode_t1),
            (code.inputs_t2, code.decode_t2),
        ):
            transfer = [vectors[eid] for eid in inputs]
            assert gf_rank(f, transfer) == code.h0
            prod = gf_mat_mul(f, [list(r) for r in matrix], transfer)
            assert prod == [[int(i == j) for j in range(code.h0)] for i in range(code.h0)]
