"""Graded and filtered linear algebra at a fixed coefficient vector.

All computations happen on the degree layers of the semigroup: multiplication
by the log-derivatives of f = sum x_i [v_i] maps layer k to layer k + 1, and
every dimension reported here is a difference of exact matrix ranks over the
Gaussian rationals.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import GaussianRational, RowSpace
from .polyhedral import GradedSemigroup

Scalar = GaussianRational


class NondegeneracyRetriesExhausted(RuntimeError):
    """No nondegenerate coefficient vector found within the retry cap."""


def as_scalar(value) -> Scalar:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    raise TypeError(f"cannot convert {value!r} to an exact scalar")


@dataclass(frozen=True)
class FVector:
    """Coefficients of the degree-one element sum x_i [v_i]."""
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(as_scalar(v) for v in self.x))

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        return self.x[i]


@dataclass(frozen=True)
class DimReport:
    per_degree: tuple
    total: int

    @classmethod
    def of(cls, per_degree):
        per_degree = tuple(int(d) for d in per_degree)
        return cls(per_degree, sum(per_degree))

    def __iter__(self):
        return iter(self.per_degree)


def _scaled(values):
    """(values times X, X) for X the lcm of the denominators of exact values,
    as ints where real; float values pass unscaled, with X = 1."""
    if not all(type(v) is GaussianRational for v in values):
        return list(values), 1
    X = lcm(*(v.d for v in values))
    return [v * X if v.b else v.a * (X // v.d) for v in values], X


def _image_rows(f, S, k, region="full"):
    """Sparse generators of (I C[S])_k: the columns f_j * [c], c in layer k-1,
    times X, the lcm of the denominators of x.

    Row r * p + j is X * sum_i x_i * mu_j(v_i) * [c + v_i] for
    c = layer(k-1)[p], over the layer-k index; a zero x_i or cancelling
    repeated v_i leave no explicit 0.  Its entries are ints for a real x,
    Gaussian integers for a complex one, and complex floats (X = 1) for a
    float x.  A system on these rows needs right-hand sides times X.
    """
    if k == 0:
        return []
    x, _ = _scaled(tuple(f))
    terms = [[(i, x[i] * v.free[j]) for i, v in enumerate(S.A) if v.free[j] and x[i]]
             for j in range(S.rank)]
    rows = []
    for targets in S.shift(k - 1, region).tolist():
        for row_terms in terms:
            row = {}
            for i, coeff in row_terms:
                d = targets[i]
                row[d] = row[d] + coeff if d in row else coeff
            # only terms that meet at one target can cancel
            rows.append(row if len(row) == len(row_terms) else
                        {d: v for d, v in row.items() if v})
    return rows


def _image_space(f, S, k, region="full"):
    """The RowSpace of `_image_rows(f, S, k, region)`, reduced once per
    (x, k, region) and cached on S; rows go in from the last leading column."""
    key = (f.x, k, region)
    space = S._images.get(key)
    if space is None:
        space = S._images[key] = RowSpace()
        for row in sorted(filter(None, _image_rows(f, S, k, region)), key=min, reverse=True):
            space.add(row)
    return space


def jacobian_dims(f: FVector, S: GradedSemigroup, max_degree, region="full") -> DimReport:
    """Graded dimensions of C[S]_k modulo the log-derivative image."""
    return DimReport.of(len(S.layer(k, region)) - _image_space(f, S, k, region).rank
                        for k in range(max_degree + 1))


@dataclass(frozen=True)
class NondegeneracyCertificate:
    total: int
    expected_total: int
    per_degree: tuple
    tail_degrees_zero: bool
    expected_per_degree: tuple

    @classmethod
    def of(cls, per_degree, S: GradedSemigroup, max_degree=None):
        """Certificate of the quotient dims of degrees 0..max_degree (default
        rank + 1): each is at least its generic value h*_k (upper
        semicontinuity), so they total sum(h*) = vol * |N_tors| exactly when
        they equal S.h_star, padded with zeros, degree by degree."""
        dims = DimReport.of(per_degree[:(S.rank + 1 if max_degree is None else max_degree) + 1])
        expected = S.h_star + (0,) * (len(dims.per_degree) - len(S.h_star))
        return cls(dims.total, sum(S.h_star), dims.per_degree,
                   not any(dims.per_degree[S.rank + 1:]), expected)

    @property
    def ok(self):
        return self.per_degree == self.expected_per_degree

    def __bool__(self):
        return self.ok


def is_nondegenerate(f: FVector, S: GradedSemigroup, max_degree=None):
    """Dimension-count test for regularity of the log-derivative sequence.

    True iff the graded quotient dims equal the Ehrhart h*-vector of the
    layers degree by degree (Batyrev, 1993): total vol * torsion order, zero
    above degree rank(N).  Returns the boolean together with the certificate.
    """
    max_degree = S.rank + 1 if max_degree is None else max_degree
    if max_degree < S.rank + 1:
        raise ValueError("max_degree must be at least rank + 1")
    cert = NondegeneracyCertificate.of(jacobian_dims(f, S, max_degree).per_degree, S, max_degree)
    return cert.ok, cert


def dual_kernel_dims(f: FVector, S: GradedSemigroup, max_degree, region="full") -> DimReport:
    """Per-degree solution counts of the homogeneous adjoint system.

    Degree k counts the coefficient vectors on layer k annihilated by
    sum_i x_i lambda_{c+v_i} v_i = 0 for every c in layer k-1: the kernel
    of the same sparse rows `_image_rows` feeds to `jacobian_dims`, so the
    two agree by construction rather than by an independent route: the
    kernel dimension is ncols - rank of the one shared reduction.
    """
    return jacobian_dims(f, S, max_degree, region)


def _hat_rows(f, beta, S, region, max_src_degree):
    """Sparse rows mu_j . hat[n] over the point index of degrees 0..D, times
    B * X: B the lcm of the denominators of beta, X that of x.

    Points are indexed in (degree, layer) order; the shift part of each row
    is B times the `_image_rows` row of n, moved to the next layer's
    indices, and the diagonal entry is (n_j * B - beta_j * B) * X.
    """
    (bB, B), X = _scaled(beta), _scaled(tuple(f))[1]
    rows = []
    start = 0
    for k in range(max_src_degree + 1):
        layer = S.layer(k, region)
        up = start + len(layer)
        image = iter(_image_rows(f, S, k + 1, region))
        for p, n in enumerate(layer):
            for j in range(S.rank):
                row = {up + d: v * B for d, v in next(image).items()}
                diag = (n.free[j] * B - bB[j]) * X
                if diag:
                    row[start + p] = diag
                rows.append(row)
        start = up
    return rows


def _hat_key(f, beta, region, D):
    """Where the hat space of (x, beta, region, D) is kept on S._images."""
    return ("hat", f.x, tuple(beta), region, D)


def _hat_space(f, beta, S, region, D):
    """The RowSpace of the `_hat_rows` generators with deg n <= D - 1, kept on
    S until a solve takes it (extend a copy).  Pivots: highest degree, then
    lowest index; rows go in from the last leading column (less fill-in)."""
    key = _hat_key(f, beta, region, D)
    space = S._images.get(key)
    if space is None:
        degree = [k for k in range(D + 1) for _ in S.layer(k, region)]
        order = [(D - k) * len(degree) + c for c, k in enumerate(degree)].__getitem__
        space = S._images[key] = RowSpace(key=order)
        rows = [row for row in _hat_rows(f, beta, S, region, D - 1) if row]
        for row in sorted(rows, key=lambda row: order(min(row, key=order)), reverse=True):
            space.add(row)
    return space


def _hat_free_counts(space, S, region, D):
    """|layer k| minus the pivots of a hat space in degree k, for k = 0..D."""
    pivots, counts, start = space.pivots, [], 0
    for k in range(D + 1):
        stop = start + len(S.layer(k, region))
        counts.append(stop - start - bisect_left(pivots, stop) + bisect_left(pivots, start))
        start = stop
    return tuple(counts)


def hat_quotient_dims(f: FVector, beta, S: GradedSemigroup, region="full",
                      filtration_bound=None) -> DimReport:
    """Filtration-graded dimensions of the twisted module modulo the ideal.

    beta: tuple of Scalars, coordinates in the free part.  The quotient is
    computed at filtration bound D as dim C[S]_{<=D} minus the rank of the
    generators mu_j . hat[n] with deg n <= D - 1; the reported per-degree
    numbers are the jumps of the induced filtration: as each row pivots on
    its highest degree, the jump at k is |layer k| minus the pivots there.
    """
    r = S.rank
    D = filtration_bound if filtration_bound is not None else r + 1
    if D < r + 1:
        raise ValueError("filtration bound must be at least rank + 1")
    beta = tuple(as_scalar(b) for b in beta)
    return DimReport.of(_hat_free_counts(_hat_space(f, beta, S, region, D), S, region, D))


def r1_dims(f: FVector, S: GradedSemigroup, max_degree=None) -> DimReport:
    """Graded dimensions of the interior image inside the Jacobian quotient.

    Degree k is dim (C[K°]_k + (I C[K])_k) / (I C[K])_k.  Computed once per
    (x, max_degree) and cached on S.
    """
    max_degree = S.rank + 1 if max_degree is None else max_degree
    key = ("r1", f.x, max_degree)
    if key not in S._images:
        dims = []
        for k in range(max_degree + 1):
            space = _image_space(f, S, k).copy()
            idx = {c: i for i, c in enumerate(S.layer(k, "full"))}
            dims.append(sum(space.add({idx[c]: 1}) for c in S.layer(k, "interior")))
        S._images[key] = DimReport.of(dims)
    return S._images[key]


def hat_restriction_rank(f: FVector, S: GradedSemigroup, filtration_bound=None) -> int:
    """Rank of the interior-to-full map of twisted quotients at beta = 0."""
    r = S.rank
    D = filtration_bound if filtration_bound is not None else r + 1
    if D < r + 1:
        raise ValueError("filtration bound must be at least rank + 1")
    space = _hat_space(f, (as_scalar(0),) * r, S, "full", D).copy()
    index = {c: i for i, c in enumerate(c for k in range(D + 1) for c in S.layer(k))}
    return sum(space.add({index[c]: 1}) for k in range(D + 1) for c in S.layer(k, "interior"))


def random_rational_x(S: GradedSemigroup, seed=0, denominator_bound=4, max_retries=16):
    """Seeded random small-rational coefficients, retried until nondegenerate.

    Returns (FVector, certificate).  Raises NondegeneracyRetriesExhausted
    after `max_retries` failures.
    """
    rng = random.Random(seed)
    n = len(S.A)
    for _ in range(max_retries):
        vals = []
        for _ in range(n):
            num = rng.randint(1, 9) * rng.choice((1, -1))
            den = rng.randint(1, denominator_bound)
            vals.append(Fraction(num, den))
        f = FVector(tuple(vals))
        ok, cert = is_nondegenerate(f, S)
        if ok:
            return f, cert
    raise NondegeneracyRetriesExhausted(
        f"no nondegenerate x within {max_retries} draws (seed {seed})")
