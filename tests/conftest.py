"""Shared problem data, the reference scalar, the reference Smith normal
form and degree functional, the reference interior rank, and reference germ
builders used across the test modules."""

import copy
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest

from bbgkz.abelian import AbelianGroup, NoDegreeFunctional, NotSpanning, pair
from bbgkz.linalg import RowSpace, degree, numerators
from bbgkz.polyhedral import GradedSemigroup, build_semigroup
from bbgkz.ring import FVector, random_rational_x
from bbgkz.solver import GermStack, exact_rank


class QQI:
    """The reference scalar of the test oracles: the Gaussian rational
    (a + b*i)/d with integer a, b and d > 0, kept canonical (gcd(a, b, d) ==
    1), with the field arithmetic of Q(i), which the package does on integer
    parts instead.  QQI(a, b, d) takes ints, QQI(re, im) Fractions, and
    QQI((re, im)) a pair of them.
    Mixed arithmetic with int and Fraction gives a QQI; equality compares
    values, and a real value hashes as its Fraction."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, a=0, b=0, d=1):
        if isinstance(a, QQI):
            return a
        if isinstance(a, tuple):
            a, b = a
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            a, b = Fraction(a), Fraction(b)
            d = lcm(a.denominator, b.denominator)
            a, b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        return _raw(-a, -b, -d) if d < 0 else _raw(a, b, d)

    @property
    def real(self):
        return Fraction(self.a, self.d)

    @property
    def imag(self):
        return Fraction(self.b, self.d)

    def conjugate(self):
        return _raw(self.a, -self.b, self.d)

    def __add__(self, o):
        if (o := _qqi(o)) is None:
            return NotImplemented
        if self.d == o.d:
            return _raw(self.a + o.a, self.b + o.b, self.d)
        return _raw(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, o):
        if (o := _qqi(o)) is None:
            return NotImplemented
        if self.d == o.d:
            return _raw(self.a - o.a, self.b - o.b, self.d)
        return _raw(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __rsub__(self, o):
        return NotImplemented if (o := _qqi(o)) is None else o - self

    def __mul__(self, o):
        if (o := _qqi(o)) is None:
            return NotImplemented
        return _raw(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if (o := _qqi(o)) is None:
            return NotImplemented
        n = o.a * o.a + o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero QQI")
        return _raw((self.a * o.a + self.b * o.b) * o.d, (self.b * o.a - self.a * o.b) * o.d,
                    self.d * n)

    def __rtruediv__(self, o):
        return NotImplemented if (o := _qqi(o)) is None else o / self

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, o):
        if (o := _qqi(o)) is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash(Fraction(self.a, self.d)) if self.b == 0 else hash((self.a, self.b, self.d))

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        if self.b == 0:
            return str(self.real)
        return f"({self.real}{'+' if self.b >= 0 else '-'}{abs(self.imag)}i)"


_new = object.__new__


def _raw(a, b, d):
    """The QQI (a + b*i)/d for d > 0, canonical by one gcd, none when d == 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    self = _new(QQI)
    self.a, self.b, self.d = a, b, d
    return self


def _qqi(v):
    """v as a QQI if it is a QQI, int or Fraction, else None."""
    if type(v) is QQI:
        return v
    if isinstance(v, (int, Fraction)):
        return _raw(v.numerator, 0, v.denominator)
    return None


QQI_ZERO, QQI_ONE, QQI_I = QQI(0), QQI(1), QQI(0, 1)


def qqi_values(stack, t, k):
    """GermStack.values, integer parts over the den of layer k, with its
    values over Q and Q(i) as QQIs, over another field as the tuple of their
    Fraction parts."""
    den = stack.layers[k][1]
    return {p: QQI(*(*v, 0)[:2], den) if stack.m in (1, 4) else
            tuple(Fraction(a, den) for a in v) for p, v in stack.values(t, k).items()}


def qqi_entries(vec):
    """The entries of an FVector over Q or Q(i), or of the values one is
    built from, as QQIs read off its numerators."""
    vec = as_fvector(vec)
    assert vec.m in (1, 4)
    im = vec.parts[1] if vec.m == 4 else (0,) * len(vec)
    return tuple(QQI(a, b, vec.den) for a, b in zip(vec.parts[0], im))


def add_values(space, vec):
    """Insert a row {column: value} of int, Fraction and QQI values into a RowSpace, over Q(i) if a value is not real: True if it
    enlarged the space."""
    cols = list(vec)
    m, parts, _ = numerators([vec[c] for c in cols])
    return space.add([{c: v for c, v in zip(cols, part) if v} for part in parts], m)


def smith_normal_form(A):
    """The reference Smith normal form U*A*V = D with unimodular U, V.

    A is a list of integer rows.  D is diagonal with d_1 | d_2 | ...; U and V
    have determinant +-1.  Total function: works for any shape including
    zero matrices.  It shares no code with the package, whose Hermite
    routine it checks.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i1, i2, a, b, c, d):
        # (row i1, row i2) <- (a*r1 + b*r2, c*r1 + d*r2), same on U
        for M in (D, U):
            r1, r2 = M[i1], M[i2]
            M[i1] = [a * x + b * y for x, y in zip(r1, r2)]
            M[i2] = [c * x + d * y for x, y in zip(r1, r2)]

    def col_op(j1, j2, a, b, c, d):
        for M in (D, V):
            for row in M:
                x, y = row[j1], row[j2]
                row[j1] = a * x + b * y
                row[j2] = c * x + d * y

    def xgcd(a, b):
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        return a, x0, y0

    t = 0
    while t < min(m, n):
        # find a nonzero entry in the trailing submatrix
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_op(t, i, 0, 1, 1, 0)
        if j != t:
            col_op(t, j, 0, 1, 1, 0)
        while True:
            # clear column t and row t with gcd operations
            for i in range(t + 1, m):
                if D[i][t]:
                    a, b = D[t][t], D[i][t]
                    if b % a == 0:
                        row_op(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        row_op(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, n):
                if D[t][j]:
                    a, b = D[t][t], D[t][j]
                    if b % a == 0:
                        col_op(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        col_op(t, j, x, y, -(b // g), a // g)
            if any(D[i][t] for i in range(t + 1, m)):
                continue  # column ops disturbed column t; clear again
            # divisibility: D[t][t] must divide every remaining entry
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, 1, 1, 0, 1)  # row t += offending row
        t += 1

    for i in range(min(m, n)):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return U, D, V


def reference_validate_data(N, A):
    """The reference degree covector of (N, A), through the Smith normal form
    of the n x r matrix of the free parts: deg solves rows . y = (1, ..., 1)
    over the integers, and the free parts span exactly when the first r
    invariant factors are 1.  Raises NoDegreeFunctional, or else
    NotSpanning, as `validate_data` must."""
    if not A:
        raise ValueError("empty vector tuple")
    r = N.rank
    rows = [list(v.free) for v in A]
    U, D, V = smith_normal_form(rows)
    ones = [1] * len(A)
    w = [sum(U[i][k] * ones[k] for k in range(len(A))) for i in range(len(A))]
    z = [0] * r
    for i in range(len(A)):
        d = D[i][i] if i < min(len(A), r) else 0
        if i < r and d != 0:
            if w[i] % d != 0:
                raise NoDegreeFunctional("no integral functional takes value 1 on all vectors")
            z[i] = w[i] // d
        else:
            if w[i] != 0:
                raise NoDegreeFunctional("no integral functional takes value 1 on all vectors")
    y = [sum(V[i][k] * z[k] for k in range(r)) for i in range(r)]
    deg = N.dual_element(y)
    if any(pair(deg, v) != 1 for v in A):
        raise NoDegreeFunctional("degree functional reconstruction failed")
    invariants = [abs(D[i][i]) for i in range(min(len(A), r))]
    if len(invariants) < r or any(d != 1 for d in invariants):
        raise NotSpanning("free parts of the vectors do not span the free lattice")
    return deg


@functools.lru_cache(maxsize=4096)
def multi_index_terms(S, c, dz, remaining):
    """(c + sum l_i v_i, prod dz_i^l_i / l_i!) over the multi-indices l with
    sum l_i <= remaining, in lexicographic order, by a recursive walk over
    group elements; germs of one semigroup, base point and truncation share
    it."""
    terms = []

    def rec(i, elem, coeff, remaining):
        if i == len(dz):
            terms.append((elem, coeff))
            return
        for l in range(remaining + 1):
            rec(i + 1, elem, coeff, remaining - l)
            elem = elem + S.A[i]
            coeff = coeff * dz[i] / (l + 1)

    rec(0, c, 1.0 + 0.0j, remaining)
    return terms


def reference_series(table, c, z):
    """Truncated Taylor value of the component at c of a LambdaTable near
    the base: the sum of lambda_{c + sum l_i v_i} prod (z_i - x_i)^{l_i} / l_i!
    over the multi-indices l with deg c + sum l_i <= truncation, as a Python
    complex sum in lexicographic order of the multi-indices.  No report
    evaluates a series; the closed-form tests compare germs with power
    functions through it."""
    dz = tuple(zz - complex(xx) for zz, xx in zip(z, qqi_entries(table.base_x)))
    total = 0.0 + 0.0j
    for elem, coeff in multi_index_terms(table.semigroup, c, dz,
                                         table.truncation - table.degree(c)):
        lam = table.entries.get(elem)
        if lam is not None:
            total += complex(lam) * coeff
    return total


def z2_data():
    N = AbelianGroup(1, (2,))
    A = (N.element((1,), (0,)), N.element((1,), (1,)))
    return N, A


def ex51_data():
    N = AbelianGroup(1)
    return N, (N.element((1,)),)


def ex52_data():
    N = AbelianGroup(3)
    A = tuple(N.element(v) for v in [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)])
    return N, A


def p1_data():
    N = AbelianGroup(2)
    A = tuple(N.element(v) for v in [(-1, 1), (0, 1), (1, 1)])
    return N, A


def p2_data():
    N = AbelianGroup(3)
    A = tuple(N.element(v) for v in [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)])
    return N, A


def square_z2_data():
    N = AbelianGroup(3, (2,))
    A = (N.element((0, 0, 1), (0,)), N.element((0, 1, 1), (1,)),
         N.element((1, 1, 1), (0,)), N.element((1, 0, 1), (1,)))
    return N, A


def repeated_data():
    N = AbelianGroup(2)
    A = tuple(N.element(v) for v in [(1, 1), (1, 1), (0, 1)])
    return N, A


def g3_data():
    N = AbelianGroup(1, (3,))
    A = (N.element((1,), (0,)), N.element((1,), (1,)), N.element((1,), (2,)))
    return N, A


FIXTURE_BUILDERS = {
    "z2": z2_data,
    "ex51": ex51_data,
    "ex52": ex52_data,
    "p1": p1_data,
    "p2": p2_data,
    "square_z2": square_z2_data,
    "repeated": repeated_data,
    "g3": g3_data,
}

# deterministic nondegenerate base points (explicit where a simple one exists)
EXPLICIT_X = {
    "z2": (Fraction(2), Fraction(1)),
    "ex51": (Fraction(3),),
    "repeated": (Fraction(2), Fraction(1), Fraction(3)),
    "g3": (Fraction(1), Fraction(1, 2), Fraction(1, 3)),
}

# generic beta values used where the specific value does not matter
GENERIC_BETA = {
    "z2": (Fraction(3, 2),),
    "ex51": (Fraction(5, 2),),
    "ex52": (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 7)),
    "p1": (Fraction(1, 2), Fraction(-1, 3)),
    "p2": (Fraction(1, 3), Fraction(-1, 2), Fraction(7, 5)),
    "square_z2": (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5)),
    "repeated": (Fraction(1, 2), Fraction(-2, 3)),
    "g3": (Fraction(2, 5),),
}


def make_problem(name):
    """(semigroup, nondegenerate x, generic beta) for a named fixture."""
    N, A = FIXTURE_BUILDERS[name]()
    S = build_semigroup(N, A)
    if name in EXPLICIT_X:
        f = FVector(EXPLICIT_X[name])
    else:
        f, _ = random_rational_x(S, seed=1)
    return S, f, GENERIC_BETA[name]


@pytest.fixture(params=sorted(FIXTURE_BUILDERS))
def named_problem(request):
    S, f, beta = make_problem(request.param)
    return request.param, S, f, beta


@dataclass
class LambdaTable:
    """One germ as a dict of its nonzero values keyed by group element: the
    per-germ form that the solver's layer lists replaced, kept to build
    germs by hand and as the reference that the lists are checked against."""
    semigroup: GradedSemigroup
    base_x: tuple
    beta: tuple
    truncation: int
    entries: dict           # GroupElement -> scalar; absent means zero
    leading_degree: int

    def degree(self, c):
        return pair(self.semigroup.deg, c)


def as_fvector(values):
    return values if isinstance(values, FVector) else FVector(values)


def stack_of(tables):
    """The GermStack of LambdaTables that share their data, built value by
    value: per layer, the numerators of every value over the lcm of their
    canonical denominators, over Q(i) where a value, x or beta is not real
    and over Q otherwise; and the tables' leading degrees."""
    first = tables[0]
    S, x, beta = first.semigroup, as_fvector(first.base_x), as_fvector(first.beta)
    rows = [[t.entries.get(c, 0) for t in tables for c in S.layer(k)]
            for k in range(first.truncation + 1)]
    values = [numerators(row) for row in rows]
    m = max(x.m, beta.m, *(row_m for row_m, _, _ in values))
    layers = []
    for row, (_, parts, den) in zip(rows, values):
        parts += [[0] * len(row)] * (degree(m) - len(parts))
        layers.append((parts, den))
    return GermStack(S, x, beta, first.truncation, layers,
                     [t.leading_degree for t in tables], m)


def tables_of(stack):
    """The LambdaTables of a GermStack, one per germ, of its values as
    `qqi_values` gives them: canonical QQIs over Q and Q(i)."""
    S = stack.semigroup
    return [LambdaTable(S, stack.base_x, stack.beta, stack.truncation,
                        {S.layer(k)[p]: v for k in range(stack.truncation + 1)
                         for p, v in qqi_values(stack, t, k).items()}, lead)
            for t, lead in enumerate(stack.leading)]


def restricted_rank(basis):
    """The germs' exact rank on the interior points of degree <= rank, as the
    restrict task takes it: exact_rank on the interior point masks."""
    S, masks = basis.semigroup, []
    for k in range(S.rank + 1):
        inner = set(S.layer(k, "interior"))
        masks.append([c in inner for c in S.layer(k)])
    return exact_rank([basis], masks)


def reference_interior_rank(space, S, degrees):
    """dim(R + E) - dim R as the package counted it before it read the rank
    off R: the unit vectors of the interior points join a copy of the space
    (over Q, on the stored columns n c + t of each point c, so the count is
    n times the one over Q(zeta_m)).  The copy is made here by adding the
    stored rows to a new space; of the package only RowSpace.add is used."""
    n, fresh = space.n, RowSpace()
    for row in space.rows.values():
        fresh.add([dict(row)])
    index = {c: i for i, c in enumerate(c for k in degrees for c in S.layer(k))}
    return sum(fresh.add([{n * index[c] + t: 1}]) for k in degrees
               for c in S.layer(k, "interior") for t in range(n)) // n


def replaced(obj, **changes):
    """A shallow copy of `obj` with the named attributes set to new values,
    as dataclasses.replace makes one of a dataclass; an attribute `obj` does
    not have is an error."""
    out = copy.copy(obj)
    for name, value in changes.items():
        getattr(obj, name)
        setattr(out, name, value)
    return out


def slot_values(obj):
    """The values of the slots of `obj`, in order: the package's plain
    classes compare by identity, so tests compare their values."""
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def assert_leading_degrees(stack):
    """Every layer of a GermStack holds len(stack) germs in lowest terms over
    a positive denominator, germ t is zero on the layers below leading[t] and
    not on layer leading[t], and the leading degrees ascend."""
    S = stack.semigroup
    for k, (P, den) in enumerate(stack.layers):
        assert all(len(part) == len(stack) * len(S.layer(k)) for part in P)
        assert den > 0 and gcd(den, *chain.from_iterable(P)) == 1
    assert stack.leading == sorted(stack.leading)
    for t, lead in enumerate(stack.leading):
        assert not any(stack.values(t, k) for k in range(lead))
        assert stack.values(t, lead)


def assert_stacks_equal(a, b):
    """Two GermStacks hold the same data, list for list and den for den, and
    the same leading degrees."""
    assert (a.semigroup.A, a.base_x, a.beta, a.truncation, a.leading, a.m) == \
        (b.semigroup.A, b.base_x, b.beta, b.truncation, b.leading, b.m)
    assert a.layers == b.layers
