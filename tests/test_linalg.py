"""Exact scalar and linear algebra against independent oracles.

The test oracles' reference scalar QQI, a Gaussian rational, keeps its
values canonical, and its arithmetic is cross-checked against Python's
complex and Fraction arithmetic; the matrix
routines are checked by direct substitution (A x = b, A v = 0) and against
numpy's floating-point rank.
"""

import cmath
import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bbgkz.linalg import (RowSpace, cyclotomic, degree, embed, field, galois, mul, numerators,
                          powers, root_of_unity, solve_sparse)
from conftest import QQI, QQI_I, QQI_ONE, QQI_ZERO, add_values

small_int = st.integers(-20, 20)
nonzero_den = st.integers(1, 12)


def gr(a, b, d):
    return QQI(a, b, d)


@st.composite
def gaussian_rationals(draw):
    return gr(draw(small_int), draw(small_int), draw(nonzero_den))


class TestGaussianRational:
    """The Gaussian rationals of the reference scalar QQI: its canonical
    constructor, then its arithmetic."""

    def test_normalization(self):
        x = QQI(2, 4, 6)
        assert (x.a, x.b, x.d) == (1, 2, 3)
        y = QQI(3, -3, -3)
        assert (y.a, y.b, y.d) == (-1, 1, 1)
        z = QQI(Fraction(1, 2), Fraction(-1, 3))
        assert (z.a, z.b, z.d, z.real, z.imag) == (3, -2, 6, Fraction(1, 2), Fraction(-1, 3))
        assert QQI((Fraction(2, 4), Fraction(0))) == QQI(1, 0, 2) == Fraction(1, 2)
        assert type(QQI(4, 0, -6)) is QQI and QQI(QQI(0, 4, 6)) == QQI(0, 2, 3)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            QQI(1, 0, 0)

    @given(gaussian_rationals(), gaussian_rationals())
    def test_arithmetic_matches_fractions(self, x, y):
        def to_frac(z):
            return (z.real, z.imag)

        xr, xi = to_frac(x)
        yr, yi = to_frac(y)
        assert to_frac(x + y) == (xr + yr, xi + yi)
        assert to_frac(x - y) == (xr - yr, xi - yi)
        assert to_frac(x * y) == (xr * yr - xi * yi, xr * yi + xi * yr)
        if y:
            n = yr * yr + yi * yi
            assert to_frac(x / y) == ((xr * yr + xi * yi) / n,
                                      (xi * yr - xr * yi) / n)

    @given(gaussian_rationals(),
           st.one_of(gaussian_rationals(), small_int,
                     st.fractions(max_denominator=12).filter(lambda q: abs(q) <= 20)))
    def test_results_are_canonical(self, x, y):
        """Every result has gcd(a, b, d) == 1 and d > 0, also where a fast
        path (equal denominators, d == 1, real factors) skips the gcd."""
        def canonical(z):
            return (isinstance(z, QQI) and z.d > 0
                    and gcd(z.a, z.b, z.d) == 1)

        results = [x + y, y + x, x - y, y - x, x * y, y * x, -x, x.conjugate(), x * x * x]
        if y:
            results.append(x / y)
        if x:
            results.append(y / x)
        assert all(canonical(z) for z in results)

    @given(gaussian_rationals())
    def test_field_identities(self, x):
        assert x + QQI_ZERO == x
        assert x * QQI_ONE == x
        assert x - x == QQI_ZERO
        if x:
            assert x / x == QQI_ONE
        assert QQI_I * QQI_I == -QQI_ONE

    def test_mixed_arithmetic(self):
        x = gr(1, 2, 3)
        assert x + 1 == gr(4, 2, 3)
        assert 2 * x == gr(2, 4, 3)
        assert x - Fraction(1, 3) == gr(0, 2, 3)
        assert Fraction(1, 2) / gr(1, 0, 2) == QQI(1)

    def test_hash_agrees_with_fraction_when_real(self):
        assert hash(gr(3, 0, 2)) == hash(Fraction(3, 2))
        assert gr(3, 0, 2) == Fraction(3, 2)

    def test_complex_conversion(self):
        assert complex(gr(1, -2, 4)) == complex(0.25, -0.5)


def random_matrix(rng, m, n):
    return [[QQI(rng.randint(-4, 4), rng.randint(-2, 2),
                              rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)]


def sparse(A):
    return [{j: v for j, v in enumerate(row) if v} for row in A]


def numeric_rank(A):
    """Independent reference: numpy's rank of the complex matrix."""
    return int(np.linalg.matrix_rank(np.array([[complex(v) for v in row] for row in A])))


def apply(A, vec):
    """A times a sparse vector, as a dense list."""
    out = []
    for row in A:
        s = QQI_ZERO
        for j, x in vec.items():
            s = s + row[j] * x
        out.append(s)
    return out


def vector_values(P, den, t, width):
    """Germ t of a `RowSpace.read` layer (P, den) over Q or Q(i) on `width`
    unknowns, as {column: value} of its nonzero values."""
    re, im = P[0], P[1] if len(P) > 1 else [0] * len(P[0])
    return {c: QQI(re[i], im[i], den)
            for c, i in enumerate(range(t * width, (t + 1) * width)) if re[i] or im[i]}


def as_values(layer, width, nrhs=0, bad=()):
    """(solutions, kernel) of a `RowSpace.read` layer on `width` unknowns:
    germs 0..nrhs - 1 the solutions, None at the indices in bad, then the
    kernel vectors, each as `vector_values`, after checking that the layer
    is in lowest terms over its one denominator."""
    P, den = layer
    assert type(den) is int and den > 0 and gcd(den, *chain.from_iterable(P)) == 1
    germs = [vector_values(P, den, t, width) for t in range(len(P[0]) // width)]
    return [None if t in bad else v for t, v in enumerate(germs[:nrhs])], germs[nrhs:]


def integer_system(rows, rhs_list):
    """(rows, right-hand sides, d, m) for solve_sparse from rows of values
    and right-hand sides (re, im, d_t) of numerator sequences (im None when
    real): each row as integer parts over Q(zeta_m), m = 4 if a value is not
    real, and each right-hand side entry times its row's scale and brought
    over d, the lcm of the d_t."""
    out, scales, m = [], [], 1
    for row in rows:
        cols = list(row)
        rm, parts, den = numerators([row[c] for c in cols])
        out.append([{c: v for c, v in zip(cols, part) if v} for part in parts])
        scales.append(den)
        m = max(m, rm)
    rhs, d = [], lcm(*(d for *_, d in rhs_list))
    for re, im, dt in rhs_list:
        parts = [re] if im is None else [re, im]
        m = m if im is None else 4
        rhs.append([[v * k * (d // dt) for v, k in zip(part, scales)] for part in parts])
    return out, rhs, d, m


def solve(rows, ncols, rhs_list):
    """solve_sparse on right-hand sides given as lists of values, its
    vectors as `vector_values`."""
    cols = []
    for b in rhs_list:
        m, parts, d = numerators(b)
        cols.append((parts[0], parts[1] if m == 4 else None, d))
    rows, cols, d, m = integer_system(rows, cols)
    layer, bad = solve_sparse(rows, ncols, cols, d, m)
    return as_values(layer, ncols, len(cols), bad)


class TestSolveSparse:
    def test_known_kernel(self):
        rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
        sols, kernel = solve(rows, 2, [[Fraction(3), Fraction(6)]])
        assert sols == [{0: Fraction(3)}]
        assert kernel == [{0: Fraction(-2), 1: 1}]

    def test_kernel_vectors_are_in_kernel(self):
        rng = random.Random(7)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            A = random_matrix(rng, m, n)
            _, kernel = solve(sparse(A), n, [])
            assert len(kernel) == n - numeric_rank(A)
            for v in kernel:
                assert not any(apply(A, v))

    def test_empty_matrix(self):
        sols, kernel = solve([], 3, [[]])
        assert sols == [{}]
        assert kernel == [{0: 1}, {1: 1}, {2: 1}]

    def test_substitution(self):
        rng = random.Random(11)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = random_matrix(rng, m, n)
            xs = {j: QQI(rng.randint(-3, 3)) for j in range(n)}
            b = apply(A, xs)
            sols, _ = solve(sparse(A), n, [b])
            assert sols[0] is not None
            assert apply(A, sols[0]) == b

    def test_mixed_consistency(self):
        """A right-hand side that is a multiple of an earlier inconsistent one
        is inconsistent too, although its column is no pivot."""
        A = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
        good = [Fraction(2), Fraction(2)]
        bad = [Fraction(2), Fraction(3)]
        worse = [Fraction(4), Fraction(6)]
        sols, kernel = solve(A, 2, [good, bad, worse, good])
        assert sols == [{0: Fraction(2)}, None, None, {0: Fraction(2)}]
        assert kernel == [{0: Fraction(-1), 1: 1}]


class TestRowSpace:
    def test_rank_matches_dense(self):
        rng = random.Random(13)
        for _ in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = random_matrix(rng, m, n)
            space = RowSpace()
            for row in A:
                add_values(space, {j: v for j, v in enumerate(row) if v})
            assert space.rank == numeric_rank(A)

    def test_contains(self):
        """A row of the span leaves the space as it is; another enlarges a
        fresh one with the same rows."""
        def fresh():
            space = RowSpace()
            add_values(space, {0: Fraction(1), 1: Fraction(2)})
            add_values(space, {1: Fraction(1)})
            return space

        space = fresh()
        assert not add_values(space, {0: Fraction(3), 1: Fraction(5)})
        assert add_values(fresh(), {2: Fraction(1)})
        assert space.rank == 2 and space.rows == fresh().rows

    def test_custom_pivot_order(self):
        space = RowSpace(key=lambda c: -c)
        add_values(space, {0: Fraction(1), 5: Fraction(1)})
        assert 5 in space.rows
        assert space.rank == 1


class ReferenceRowSpace:
    """The field RowSpace that the fraction-free one replaced, kept as its
    reference: QQI rows normalised to 1 at their pivot."""

    def __init__(self, key=None):
        self.key = key
        self.rows = {}

    def add(self, vec):
        vec = {c: QQI(v) for c, v in vec.items() if v}
        for c in [c for c in vec if c in self.rows]:
            self._eliminate(vec, c, self.rows[c])
        if not vec:
            return False
        p = min(vec, key=self.key)
        inv = QQI_ONE / vec[p]
        vec = {c: v * inv for c, v in vec.items()}
        for row in self.rows.values():
            if p in row:
                self._eliminate(row, p, vec)
        self.rows[p] = vec
        return True

    @staticmethod
    def _eliminate(vec, col, row):
        f = vec.pop(col)
        for c, v in row.items():
            if c != col:
                vec[c] = vec.get(c, QQI_ZERO) - f * v
                if not vec[c]:
                    del vec[c]


def reference_kernel(space, ncols):
    """The kernel read off the reference space, as `as_values` gives it."""
    R = space.rows
    pivots = sorted(p for p in R if p < ncols)
    kernel = []
    for fc in range(ncols):
        if fc not in R:
            kernel.append({p: -R[p][fc] for p in pivots if fc in R[p]})
            kernel[-1][fc] = QQI_ONE
            kernel[-1] = dict(sorted(kernel[-1].items()))
    return kernel


def reference_solve(rows, ncols, rhs_list):
    """solve_sparse read off the reference space, as `solve` gives it."""
    space = ReferenceRowSpace()
    for i, row in enumerate(rows):
        aug = dict(row)
        aug.update((ncols + t, rhs[i]) for t, rhs in enumerate(rhs_list) if rhs[i])
        space.add(aug)
    R = space.rows
    bad = {c for p in R if p >= ncols for c in R[p]}
    pivots = sorted(p for p in R if p < ncols)
    sols = [None if ncols + t in bad else
            {p: R[p][ncols + t] for p in pivots if ncols + t in R[p]}
            for t in range(len(rhs_list))]
    return sols, reference_kernel(space, ncols)


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.builds(QQI, st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def systems(draw):
    """Sparse rows over n columns (zeros included) and right-hand sides, one
    of them consistent when there are rows."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(1, 6))
    rows = [{j: draw(entries) for j in range(n) if draw(st.booleans())} for _ in range(m)]
    rhs = [[draw(entries) for _ in range(m)] for _ in range(draw(st.integers(0, 2)))]
    x = {j: QQI(draw(entries)) for j in range(n)}
    rhs.append([sum((QQI(v) * x[j] for j, v in row.items()), QQI_ZERO)
                for row in rows])
    return rows, n, rhs


@st.composite
def numerator_systems(draw):
    """A system of `systems` with right-hand sides in numerator form: real,
    complex and all-zero columns over random denominators, a consistent one,
    and the consistent one again with its numerators and denominator scaled
    by a common factor."""
    rows, n, rhs = draw(systems())
    m = len(rows)
    nums = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    cols = []
    for kind in draw(st.lists(st.sampled_from(["real", "complex", "zero"]), max_size=3)):
        re = [0] * m if kind == "zero" else draw(nums)
        cols.append((re, draw(nums) if kind == "complex" else None, draw(st.integers(1, 12))))
    m, parts, d = numerators(rhs[-1])
    re, im = parts[0], parts[1] if m == 4 else [0] * len(parts[0])
    k = draw(st.integers(2, 5))
    cols += [(re, im, d), ([k * v for v in re], [k * v for v in im], k * d)]
    return rows, n, cols


class TestFractionFree:
    @given(numerator_systems())
    def test_numerator_columns_match_reference(self, system):
        """Right-hand sides given as integer numerators over one denominator
        solve as the values they stand for do in the field reference."""
        rows, n, cols = system
        values = [[QQI(a, 0 if im is None else im[i], d) for i, a in enumerate(re)]
                  for re, im, d in cols]
        int_rows, int_cols, d, m = integer_system(rows, cols)
        layer, bad = solve_sparse(int_rows, n, int_cols, d, m)
        sols, kernel = as_values(layer, n, len(int_cols), bad)
        assert (sols, kernel) == reference_solve(rows, n, values)
        if rows:
            assert sols[-1] is not None and sols[-1] == sols[-2]

    @given(systems(), st.booleans())
    def test_matches_reference(self, system, reverse):
        """Rank, pivots, kernel and solutions equal the field reference's,
        over Q and over Q(i), with integer rows of content 1 stored."""
        rows, n, rhs = system
        key = (lambda c: -c) if reverse else None
        space, ref = RowSpace(key), ReferenceRowSpace(key)
        for row in rows:
            assert add_values(space, row) == ref.add(row)
        assert space.rank == len(ref.rows)
        assert space.pivots == sorted(ref.rows)
        assert space.n == (2 if any(QQI(v).b for row in rows
                                    for v in row.values()) else 1)
        for row in space.rows.values():
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1
        again = RowSpace(key)
        for row in rows:
            add_values(again, row)
        assert not any(add_values(again, row) for row in rows)
        [layer] = space.read([0, n], space.m)
        assert as_values(layer, n)[1] == reference_kernel(ref, n)
        assert solve(rows, n, rhs) == reference_solve(rows, n, rhs)

    @pytest.mark.parametrize("m", [1, 4])
    @given(system=systems(), data=st.data())
    def test_ranges_read_as_slices(self, m, system, data):
        """A read with random cuts gives per range that range's slice of a
        one-range read, as values and in lowest terms, over Q (the real parts
        of the draw) and over Q(i), and keeps no row pivoting inside a read
        range."""
        rows, n, rhs = system
        if m == 1:
            rows = [{j: QQI(v).real for j, v in row.items()} for row in rows]
            rhs = [[QQI(v).real for v in b] for b in rhs]
        cuts = [0, *sorted(data.draw(st.sets(st.integers(1, n - 1)))), n] if n > 1 else [0, n]

        def fresh():
            space = RowSpace()
            for i, row in enumerate(rows):
                add_values(space, {**row, **{n + t: b[i] for t, b in enumerate(rhs) if b[i]}})
            return space

        sols, kernel = as_values(fresh().read([0, n], m, len(rhs))[0], n, len(rhs))
        space = fresh()
        layers = space.read(cuts, m, len(rhs))
        assert not [q for q in space.rows if q < space.n * n]
        assert len(layers) == len(cuts) - 1
        for a, b, layer in zip(cuts, cuts[1:], layers):
            assert len(layer[0]) == degree(m)
            assert as_values(layer, b - a, len(rhs)) == tuple(
                [{c - a: v for c, v in germ.items() if a <= c < b} for germ in germs]
                for germs in (sols, kernel))

    def test_realified_readers(self):
        """A space of real rows meets (1 + i, 1): each real row becomes two,
        the new row two more, and the readers answer in Q(i) terms."""
        def fresh():
            space = RowSpace(key=lambda c: -c)
            add_values(space, {0: 1, 2: 3})
            assert space.n == 1
            assert add_values(space, {0: QQI(1, 1), 1: 1})
            return space

        space = fresh()
        assert (space.m, space.n, len(space.rows)) == (4, 2, 4)
        assert (space.rank, space.pivots) == (2, [1, 2])
        [layer] = space.read([0, 3], 4)
        assert as_values(layer, 3)[1] == [{0: QQI_ONE, 1: -QQI(1, 1), 2: QQI(-1, 0, 3)}]
        # a read drops the rows it read, so the second one reads a fresh space
        assert fresh().read([0, 3], 4) == [([[3, -3, -1], [0, -3, 0]], 3)]
        assert not add_values(fresh(), {0: QQI(3, 4), 1: 3, 2: QQI(0, 3)})
        assert add_values(fresh(), {0: QQI(0, 1)})

    def test_complex_solve(self):
        """(1 + i) x = 2 and (1 + i) x = 2i over the realified system."""
        sols, kernel = solve([{0: QQI(1, 1)}], 1, [[2], [QQI_I * 2]])
        assert sols == [{0: QQI(1, -1)}, {0: QQI(1, 1)}]
        assert kernel == []

    def test_back_elimination_only_where_needed(self):
        """Under descending insertion no stored row holds the new pivot, and
        a pivot behind a stored one is still eliminated from it."""
        space = RowSpace()
        add_values(space, {2: 1, 3: 1})
        add_values(space, {1: 1, 2: 1})
        assert space.rows == {2: {2: 1, 3: 1}, 1: {1: 1, 3: -1}}
        add_values(space, {3: 1})
        assert space.rows == {2: {2: 1}, 1: {1: 1}, 3: {3: 1}}


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def embedded(parts, m):
    """A value of Q(zeta_m) given by its parts, as a complex number."""
    return sum(complex(p) * cmath.exp(2j * cmath.pi * s / m) for s, p in enumerate(parts))


ORDERS = [1, 3, 4, 5, 7, 8, 9, 12, 15]


class TestCyclotomic:
    @pytest.mark.parametrize("m", range(1, 25))
    def test_divisor_product(self, m):
        """x^m - 1 is the product of Phi_d over the divisors d of m, and
        Phi_m has degree phi(m)."""
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, cyclotomic(d))
        assert prod == [-1] + [0] * (m - 1) + [1]
        assert degree(m) == sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)

    def test_known_polynomials(self):
        assert cyclotomic(3) == (1, 1, 1) and cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(5) == (1, 1, 1, 1, 1) and cyclotomic(12) == (1, 0, -1, 0, 1)
        assert (field(2), field(6), field(3, 4), field(2, 2)) == (1, 3, 12, 1)
        # i = zeta_12^3, and zeta_3 = zeta_12^4 = zeta_12^2 - 1 mod Phi_12
        assert embed([0, 1], 4, 12) == list(powers(12)[3]) == [0, 0, 0, 1]
        assert embed([1, 2], 3, 12) == [-1, 0, 2, 0]

    @pytest.mark.parametrize("m", ORDERS)
    def test_powers_embed_to_roots(self, m):
        for e, parts in enumerate(powers(m)):
            assert abs(embedded(parts, m) - cmath.exp(2j * cmath.pi * e / m)) < 1e-12

    @pytest.mark.parametrize("m", ORDERS)
    def test_products_galois_and_roots(self, m):
        rng = random.Random(m)
        n = degree(m)
        for _ in range(20):
            a, b = ([rng.randint(-5, 5) for _ in range(n)] for _ in range(2))
            assert abs(embedded(mul(a, b, m), m) - embedded(a, m) * embedded(b, m)) < 1e-9
            for k in range(1, m):
                if gcd(k, m) == 1:
                    image = galois(a, k, m)
                    assert galois(image, pow(k, -1, m), m) == a
                    assert mul(galois(a, k, m), galois(b, k, m), m) == galois(mul(a, b, m), k, m)
        for t in (Fraction(e, 2 * m) for e in range(2 * m)):
            if (t * m).denominator == 1 or m % 2:
                assert abs(embedded(root_of_unity(t, m), m) - cmath.exp(2j * cmath.pi * t)) < 1e-12


def random_rows(rng, m, nrows, ncols):
    """Sparse rows over Q(zeta_m) as integer parts, some of them rational."""
    n = degree(m)
    rows = []
    for _ in range(nrows):
        cols = [c for c in range(ncols) if rng.random() < 0.7]
        real = rng.random() < 0.3
        rows.append([{c: rng.randint(-3, 3) for c in cols if not (real and s)}
                     for s in range(n)])
    return [[{c: v for c, v in part.items() if v} for part in row] for row in rows]


class TestRestrictionOfScalars:
    """RowSpace and solve_sparse over Q(zeta_m) against the complex matrix
    the rows embed to: rank by numpy, kernel and solutions by substitution in
    exact arithmetic."""

    @pytest.mark.parametrize("m", [3, 5, 8, 12])
    def test_rank_kernel_and_solutions(self, m):
        rng = random.Random(m)
        for _ in range(15):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            rows = random_rows(rng, m, nrows, ncols)
            dense = np.array([[embedded([part.get(c, 0) for part in row], m)
                               for c in range(ncols)] for row in rows])
            rank = int(np.linalg.matrix_rank(dense)) if rows else 0
            space = RowSpace()
            for row in rows:
                space.add([dict(part) for part in row], m)
            assert space.rank == rank
            xs = {c: [rng.randint(-2, 2) for _ in range(degree(m))] for c in range(ncols)}
            b = [[0] * degree(m) for _ in rows]
            for i, row in enumerate(rows):
                for c in range(ncols):
                    v = mul([part.get(c, 0) for part in row], xs[c], m)
                    b[i] = [u + w for u, w in zip(b[i], v)]
            (P, den), bad = solve_sparse([[dict(part) for part in row] for row in rows],
                                         ncols, [list(zip(*b)) or [[]]], 1, m)
            assert bad == []
            germs = [[dict(enumerate(part[t * ncols:(t + 1) * ncols])) for part in P]
                     for t in range(len(P[0]) // ncols)]
            sols, kernel = germs[:1], germs[1:]
            assert len(kernel) == ncols - rank
            for parts in [sols[0], *kernel]:
                for i, row in enumerate(rows):
                    total = [0] * degree(m)
                    for c in range(ncols):
                        v = mul([part.get(c, 0) for part in row],
                                [part.get(c, 0) for part in parts], m)
                        total = [u + w for u, w in zip(total, v)]
                    want = [den * v for v in b[i]] if parts is sols[0] else [0] * degree(m)
                    assert total == want
