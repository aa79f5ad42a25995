"""Shared problem data and reference germ builders used across the test
modules."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from bbgkz.abelian import AbelianGroup, pair
from bbgkz.linalg import degree, numerators
from bbgkz.polyhedral import GradedSemigroup, build_semigroup
from bbgkz.ring import FVector, random_rational_x
from bbgkz.solver import GermStack, SolutionBasis


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
    m = max(x.m, beta.m, *(numerators(row)[0] for row in rows))
    layers = []
    for row in rows:
        _, parts, den = numerators(row)
        parts += [[0] * len(row)] * (degree(m) - len(parts))
        layers.append((np.array(parts, dtype=object).reshape(len(parts), n, -1), den))
    return GermStack(S, x, beta, first.truncation, layers, m)


def tables_of(basis):
    """The LambdaTables of a SolutionBasis, one per germ, of its values as
    GermStack.values gives them: canonical GaussianRationals over Q and
    Q(i)."""
    stack = basis.stack
    S = stack.semigroup
    return [LambdaTable(S, stack.base_x, stack.beta, stack.truncation,
                        {S.layer(k)[p]: v for k in range(stack.truncation + 1)
                         for p, v in stack.values(t, k).items()}, lead)
            for t, lead in enumerate(basis.leading)]


def basis_of(tables):
    """The SolutionBasis of LambdaTables: their stack and leading degrees."""
    return SolutionBasis(stack_of(tables), [t.leading_degree for t in tables])


def assert_stacks_equal(a, b):
    """Two GermStacks hold the same data, array for array and den for den."""
    assert (a.semigroup.A, a.base_x, a.beta, a.truncation, a.m) == \
        (b.semigroup.A, b.base_x, b.beta, b.truncation, b.m)
    assert len(a.layers) == len(b.layers)
    for (parts, den), (parts2, den2) in zip(a.layers, b.layers):
        assert den == den2 and parts.shape == parts2.shape
        assert parts.tolist() == parts2.tolist()
