"""Shared problem data, the reference scalar and reference germ builders
used across the test modules."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from bbgkz.abelian import AbelianGroup, pair
from bbgkz.linalg import GaussianRational, degree, numerators
from bbgkz.polyhedral import GradedSemigroup, build_semigroup
from bbgkz.ring import FVector, random_rational_x
from bbgkz.solver import GermStack, SolutionBasis, _germ_floats, _series, exact_rank


class QQI(GaussianRational):
    """The reference scalar of the test oracles: a GaussianRational with the
    field arithmetic of Q(i), which the package does on integer parts
    instead.  Mixed arithmetic with int, Fraction and GaussianRational gives
    a QQI; equality compares values, and a real value hashes as its
    Fraction."""

    __slots__ = ()

    def __new__(cls, a=0, b=0, d=1):
        if isinstance(a, GaussianRational):
            return a if type(a) is QQI else _raw(a.a, a.b, a.d)
        return super().__new__(cls, a, b, d)

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
    """v as a QQI if it is an int, Fraction or GaussianRational, else None."""
    if type(v) is QQI:
        return v
    if isinstance(v, (int, Fraction)):
        return _raw(v.numerator, 0, v.denominator)
    return QQI(v) if isinstance(v, GaussianRational) else None


QQI_ZERO, QQI_ONE, QQI_I = QQI(0), QQI(1), QQI(0, 1)


def qqi_values(stack, t, k):
    """GermStack.values with its GaussianRationals as QQIs."""
    return {p: QQI(v) if isinstance(v, GaussianRational) else v
            for p, v in stack.values(t, k).items()}


def add_values(space, vec):
    """Insert a row {column: value} of int, Fraction and GaussianRational
    values into a RowSpace, over Q(i) if a value is not real: True if it
    enlarged the space."""
    cols = list(vec)
    m, parts, _ = numerators([vec[c] for c in cols])
    return space.add([{c: v for c, v in zip(cols, part) if v} for part in parts], m)


def evaluate_series(stack, t, c, z):
    """Truncated Taylor value of the component at c of germ t of the stack,
    near the base: the sum of lambda_{c + sum l_i v_i} prod (z_i - x_i)^{l_i}
    / l_i! over the multi-indices l with deg c + sum l_i <= truncation, by
    the package's evaluator `solver._series`."""
    S, D, k = stack.semigroup, stack.truncation, pair(stack.semigroup.deg, c)
    if k > D:
        raise ValueError("component degree exceeds the truncation")
    q = sum(len(S.layer(m)) for m in range(k)) + S.layer(k).index(c)
    dz = [zz - xx for zz, xx in zip(z, stack.base_x.complex())]
    return complex(_series(S, D, _germ_floats(stack), [dz])[0, t, q])


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
    per-germ form that the solver's layer arrays replaced, kept to build
    germs by hand and as the reference that the arrays are checked against."""
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
    and over Q otherwise."""
    first, n = tables[0], len(tables)
    S, x, beta = first.semigroup, as_fvector(first.base_x), as_fvector(first.beta)
    rows = [[t.entries.get(c, 0) for t in tables for c in S.layer(k)]
            for k in range(first.truncation + 1)]
    values = [numerators(row) for row in rows]
    m = max(x.m, beta.m, *(row_m for row_m, _, _ in values))
    layers = []
    for row, (_, parts, den) in zip(rows, values):
        parts += [[0] * len(row)] * (degree(m) - len(parts))
        layers.append((np.array(parts, dtype=object).reshape(len(parts), n, -1), den))
    return GermStack(S, x, beta, first.truncation, layers, m)


def tables_of(basis):
    """The LambdaTables of a SolutionBasis, one per germ, of its values as
    `qqi_values` gives them: canonical QQIs over Q and Q(i)."""
    stack = basis.stack
    S = stack.semigroup
    return [LambdaTable(S, stack.base_x, stack.beta, stack.truncation,
                        {S.layer(k)[p]: v for k in range(stack.truncation + 1)
                         for p, v in qqi_values(stack, t, k).items()}, lead)
            for t, lead in enumerate(basis.leading)]


def basis_of(tables):
    """The SolutionBasis of LambdaTables: their stack and leading degrees."""
    return SolutionBasis(stack_of(tables), [t.leading_degree for t in tables])


def restricted_rank(basis):
    """The germs' exact rank on the interior points of degree <= rank, as the
    restrict task takes it: exact_rank on the interior point masks."""
    S, masks = basis.semigroup, []
    for k in range(S.rank + 1):
        inner = set(S.layer(k, "interior"))
        masks.append(np.array([c in inner for c in S.layer(k)]))
    return exact_rank([basis.stack], masks)


def assert_stacks_equal(a, b):
    """Two GermStacks hold the same data, array for array and den for den."""
    assert (a.semigroup.A, a.base_x, a.beta, a.truncation, a.m) == \
        (b.semigroup.A, b.base_x, b.beta, b.truncation, b.m)
    assert len(a.layers) == len(b.layers)
    for (parts, den), (parts2, den2) in zip(a.layers, b.layers):
        assert den == den2 and parts.shape == parts2.shape
        assert parts.tolist() == parts2.tolist()
