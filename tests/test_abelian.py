"""Group arithmetic, characters, the Hermite routine and data validation.

The Smith normal form of conftest, which shares no code with the package,
is the oracle: `hermite` must keep the row lattice of its input, and
`validate_data` must agree with the Smith-based reference on seeded data.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbgkz.abelian import (AbelianGroup, NoDegreeFunctional, NotSpanning,
                           char_value, hermite, validate_data)
from bbgkz.linalg import field, mul, root_of_unity
from bbgkz.polyhedral import _degree_kernel_basis
from conftest import (FIXTURE_BUILDERS, degree_of, make_problem, reference_validate_data,
                      smith_normal_form)


class TestAbelianGroup:
    def test_invariant_factor_validation(self):
        AbelianGroup(2, (2, 4))
        with pytest.raises(ValueError):
            AbelianGroup(1, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(1, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(-1)

    def test_torsion_order(self):
        assert AbelianGroup(3).torsion_order == 1
        assert AbelianGroup(1, (2, 6)).torsion_order == 12

    def test_element_reduction(self):
        N = AbelianGroup(1, (4,))
        assert N.element((2,), (7,)).torsion == (3,)
        assert N.element((2,), (-1,)).torsion == (3,)

    def test_element_arithmetic(self):
        N = AbelianGroup(1, (3,))
        a = N.element((2,), (2,))
        b = N.element((1,), (2,))
        assert (a + b) == N.element((3,), (1,))
        assert (b + a) == N.element((3,), (1,))
        assert (a + a + a) == N.element((6,), (0,))

    def test_hash_is_stored_and_consistent(self):
        """The hash kept at construction is that of (free, torsion), and
        elements built by element(), by + and by a semigroup's layers hash
        and compare alike, also across equal groups that are not one object."""
        from bbgkz.polyhedral import build_semigroup
        N = AbelianGroup(2, (2,))
        A = (N.element((0, 1), (0,)), N.element((1, 1), (1,)), N.element((-1, 1), (1,)))
        S = build_semigroup(N, A)
        for c in S.layer(2):
            assert hash(c) == hash((c.free, c.torsion))
            rest = N.element([x - y for x, y in zip(c.free, A[0].free)],
                             [x - y for x, y in zip(c.torsion, A[0].torsion)])
            for built in (N.element(c.free, c.torsion), A[0] + rest,
                          AbelianGroup(2, (2,)).element(c.free, c.torsion)):
                assert built == c and hash(built) == hash(c)
                assert {c: 1}[built] == 1
        assert N.element((0, 2), (1,)) != N.element((0, 2), (0,))
        assert N.element((0, 2)) != AbelianGroup(2, (4,)).element((0, 2))
        assert not hasattr(N.element((0, 0)), "__dict__")

    def test_enumerations(self):
        N = AbelianGroup(1, (2, 2))
        assert len(N.characters()) == 4
        assert len(N.torsion_elements()) == 4
        assert N.characters()[0].torsion_exponents == (0, 0)


def value(t, m):
    """The parts of exp(2 pi i t) in Q(zeta_m), t a Fraction."""
    return root_of_unity(t.numerator, t.denominator, m)


def char_fraction(rho, c):
    """char_value (k, E) as the Fraction k / E, after checking 0 <= k < E
    and that E is the exponent of the torsion part."""
    k, E = char_value(rho, c)
    inv = rho.group.torsion_invariants
    assert 0 <= k < E == (inv[-1] if inv else 1)
    return Fraction(k, E)


class TestCharacters:
    def test_z2_nontrivial_value(self):
        N = AbelianGroup(0, (2,))
        rho = N.character((1,))
        t = char_fraction(rho, N.element((), (1,)))
        assert t == Fraction(1, 2)
        assert value(t, field(2)) == [-1]

    def test_z4_exponent_one_on_three(self):
        N = AbelianGroup(0, (4,))
        rho = N.character((1,))
        t = char_fraction(rho, N.element((), (3,)))
        assert t == Fraction(3, 4)
        assert value(t, 4) == [0, -1]

    def test_trivial_character(self):
        N = AbelianGroup(1, (3,))
        rho = N.character((0,))
        t = char_fraction(rho, N.element((5,), (2,)))
        assert t == 0 and value(t, 3) == [1, 0]

    @pytest.mark.parametrize("invariants", [(2,), (3,), (4,), (2, 2), (2, 6)])
    def test_character_table_unitary(self, invariants):
        """Orthogonality, exactly in Q(zeta_m): sum_c rho_i(c) conj rho_j(c)
        is |G| for i == j and 0 otherwise."""
        N = AbelianGroup(0, invariants)
        G, m = N.torsion_order, field(*invariants)
        chars = N.characters()
        elems = N.torsion_elements()
        assert len(chars) == G and len(elems) == G
        T = [[char_fraction(rho, c) for c in elems] for rho in chars]
        for i in range(G):
            for j in range(G):
                s = [sum(v) for v in zip(*(value(a - b, m) for a, b in zip(T[i], T[j])))]
                assert s == [G if i == j else 0] + [0] * (len(s) - 1)

    def test_multiplicativity(self):
        N = AbelianGroup(0, (8,))
        rho = N.character((3,))
        a, b = N.element((), (5,)), N.element((), (6,))
        ta, tb, tab = (char_fraction(rho, c) for c in (a, b, a + b))
        assert (ta + tb) % 1 == tab
        assert mul(value(ta, 8), value(tb, 8), 8) == value(tab, 8)


int_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestSmithNormalForm:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices)
    def test_snf_properties(self, A):
        m, n = len(A), len(A[0])
        U, D, V = smith_normal_form(A)
        # U A V == D
        UA = [[sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)]
              for i in range(m)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)]
               for i in range(m)]
        assert UAV == D
        # diagonal, nonnegative, divisibility chain
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # unimodular transforms: the Smith form U2 M V2 = I of M = U, V gives
        # the integer inverse V2 U2, which exists exactly when det M = +-1
        for M in (U, V):
            U2, _, V2 = smith_normal_form(M)
            k = len(M)
            inv = [[sum(V2[i][t] * U2[t][j] for t in range(k)) for j in range(k)]
                   for i in range(k)]
            assert [[sum(M[i][t] * inv[t][j] for t in range(k)) for j in range(k)]
                    for i in range(k)] == [[int(i == j) for j in range(k)] for i in range(k)]

    def test_known_example(self):
        _, D, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert [D[i][i] for i in range(3)] == [2, 6, 12]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def nonzero_smith_diagonal(A):
    _, D, _ = smith_normal_form(A)
    return [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i]]


class TestHermite:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(int_matrices)
    def test_hermite_properties(self, M):
        """H = U M, W is the inverse of U, H is in echelon form with positive
        pivots, and H has the nonzero Smith diagonal of M: the row lattice is
        kept."""
        H, U, W = hermite(M)
        m = len(M)
        identity = [[int(i == j) for j in range(m)] for i in range(m)]
        assert H == matmul(U, M)
        assert matmul(U, W) == identity and matmul(W, U) == identity
        pivots = [next((c for c, x in enumerate(h) if x), None) for h in H]
        nonzero = [p for p in pivots if p is not None]
        assert pivots == nonzero + [None] * (m - len(nonzero))
        assert all(a < b for a, b in zip(nonzero, nonzero[1:]))
        assert all(H[i][p] > 0 for i, p in enumerate(nonzero))
        assert nonzero_smith_diagonal(H) == nonzero_smith_diagonal(M)


free_data = st.integers(0, 4).flatmap(lambda r: st.tuples(st.just(r), st.lists(
    st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=5)))


def outcome(check, N, A):
    """The degree covector that `check` returns, or the class it raises."""
    try:
        return check(N, A)
    except (NoDegreeFunctional, NotSpanning) as err:
        return type(err)


def degree_covectors():
    """The degree covectors of the fixtures, then 20 seeded primitive ones
    of length 2 to 4."""
    out = [make_problem(name)[0].deg for name in sorted(FIXTURE_BUILDERS)]
    rng = random.Random(5)
    while len(out) < len(FIXTURE_BUILDERS) + 20:
        h = tuple(rng.randint(-6, 6) for _ in range(rng.randint(2, 4)))
        if math.gcd(*h) == 1:
            out.append(h)
    return out


class TestDegreeKernelBasis:
    @pytest.mark.parametrize("h", degree_covectors(), ids=str)
    def test_coordinates_and_degree(self, h):
        """Every basis vector has degree 0, and to_coords reads back the
        seeded integer coordinates of a combination of them."""
        basis, to_coords = _degree_kernel_basis(h)
        assert len(basis) == len(h) - 1
        assert all(sum(x * y for x, y in zip(h, b)) == 0 for b in basis)
        rng = random.Random(sum(h))
        for _ in range(5):
            a = tuple(rng.randint(-9, 9) for _ in basis)
            w = tuple(sum(aj * b[i] for aj, b in zip(a, basis)) for i in range(len(h)))
            assert to_coords(w) == a


class TestValidateData:
    def test_z2_example(self):
        N = AbelianGroup(1, (2,))
        A = (N.element((1,), (0,)), N.element((1,), (1,)))
        deg = validate_data(N, A)
        assert deg == (1,)

    def test_projective_plane_degree(self):
        N = AbelianGroup(3)
        A = tuple(N.element(v) for v in [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)])
        deg = validate_data(N, A)
        assert all(degree_of(deg, v) == 1 for v in A)

    def test_no_degree_functional(self):
        N = AbelianGroup(1)
        A = (N.element((1,)), N.element((2,)))
        with pytest.raises(NoDegreeFunctional):
            validate_data(N, A)

    def test_not_spanning(self):
        # (0,1), (3,1) generate an index-3 sublattice of Z^2
        N = AbelianGroup(2)
        A = (N.element((0, 1)), N.element((3, 1)))
        with pytest.raises(NotSpanning):
            validate_data(N, A)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(free_data)
    def test_matches_smith_reference(self, data):
        """The same degree covector, or the same exception class, as the
        Smith-based reference, on rank 0-4 and 1-5 free vectors."""
        r, vectors = data
        N = AbelianGroup(r)
        A = tuple(N.element(v) for v in vectors)
        assert outcome(validate_data, N, A) == outcome(reference_validate_data, N, A)
