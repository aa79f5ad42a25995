"""Graded and filtered linear algebra at a fixed coefficient vector.

All computations happen on the degree layers of the semigroup: multiplication
by the log-derivatives of f = sum x_i [v_i] maps layer k to layer k + 1, and
every dimension reported here is a difference of exact matrix ranks over the
field of x (and beta), on the integer numerators that FVector holds.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .linalg import (GaussianRational, RowSpace, complex_basis, degree, embed, field, galois,
                     numerators)
from .polyhedral import GradedSemigroup

class NondegeneracyRetriesExhausted(RuntimeError):
    """No nondegenerate coefficient vector found within the retry cap."""


class FVector:
    """A vector over Q(zeta_m) as integer numerators: part s of entry i is
    parts[s][i] / den, den their least common denominator; a rational vector
    has m = 1 and one part.  It holds the coefficients x of f = sum x_i [v_i],
    or beta.  Built from int, Fraction and GaussianRational values, or from
    numerators by `of`; equal vectors have equal numerators, which the caches
    on a semigroup key on."""

    __slots__ = ("m", "parts", "den", "key")

    def __init__(self, values):
        self._set(*numerators(values))

    def _set(self, m, parts, den):
        g = gcd(den, *(v for part in parts for v in part))
        if not any(v for part in parts[1:] for v in part):
            m, parts = 1, parts[:1]
        self.m, self.den = m, den // g
        self.parts = tuple(tuple(v // g for v in part) for part in parts)
        self.key = (self.m, self.parts, self.den)

    @classmethod
    def of(cls, m, parts, den):
        """The vector of the numerators parts[s][i] / den over Q(zeta_m)."""
        out = cls.__new__(cls)
        out._set(m, parts, den)
        return out

    def __eq__(self, other):
        return isinstance(other, FVector) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __len__(self):
        return len(self.parts[0])

    @property
    def x(self):
        """The entries as GaussianRationals, for a vector over Q or Q(i)."""
        if self.m not in (1, 4):
            raise ValueError(f"entries of Q(zeta_{self.m}) are no GaussianRationals")
        im = self.parts[1] if self.m == 4 else (0,) * len(self)
        return tuple(GaussianRational(a, b, self.den) for a, b in zip(self.parts[0], im))

    def __getitem__(self, i):
        """Entry i as a GaussianRational; perfbench's tracer iterates base
        points through it."""
        return self.x[i]

    def _map(self, fn, m):
        """The vector over Q(zeta_m) whose parts fn makes of these, as arrays."""
        out = fn([np.array(part, dtype=object) for part in self.parts])
        return FVector.of(m, [np.broadcast_to(v, (len(self),)).tolist() for v in out], self.den)

    def embed(self, m):
        """The vector over Q(zeta_m), a field that holds Q(zeta_self.m)."""
        if m == self.m or self.m == 1:
            return self
        return self._map(lambda parts: embed(parts, self.m, m), m)

    def galois(self, a):
        """sigma_a (zeta -> zeta^a) of every entry."""
        return self._map(lambda parts: galois(parts, a, self.m), self.m)

    def numerators(self, m):
        """The parts over Q(zeta_m) and den, degree(m) parts of integers."""
        parts = self.embed(m).parts
        return list(parts) + [(0,) * len(self)] * (degree(m) - len(parts)), self.den

    def complex(self):
        """The entries under zeta -> exp(2 pi i / m), as a complex array; over Q
        and Q(i) each part is its numerator over den by Python int division,
        the complex() of the GaussianRational."""
        return sum(w * np.array([v / self.den for v in part], dtype=float)
                   for w, part in zip(complex_basis(self.m), self.parts)) + 0j


@dataclass(frozen=True)
class DimReport:
    per_degree: tuple
    total: int

    @classmethod
    def of(cls, per_degree):
        per_degree = tuple(int(d) for d in per_degree)
        return cls(per_degree, sum(per_degree))


def _image_rows(f, S, k, region="full"):
    """Sparse generators of (I C[S])_k: the columns f_j * [c], c in layer k-1,
    times X = f.den.

    Row r * p + j is X * sum_i x_i * mu_j(v_i) * [c + v_i] for
    c = layer(k-1)[p], over the layer-k index, as a tuple of one dict of
    integer numerators per part of x (`RowSpace.add` over Q(zeta_m),
    m = f.m); a zero x_i or cancelling repeated v_i leave no
    explicit 0.  A system on these rows needs right-hand sides times X.
    """
    if k == 0:
        return []
    shifts = S.shift(k - 1, region).tolist()
    per_part = []
    for x in f.parts:
        terms = [[(i, x[i] * v.free[j]) for i, v in enumerate(S.A) if v.free[j] and x[i]]
                 for j in range(S.rank)]
        rows = []
        for targets in shifts:
            for row_terms in terms:
                row = {}
                for i, coeff in row_terms:
                    d = targets[i]
                    row[d] = row[d] + coeff if d in row else coeff
                # only terms that meet at one target can cancel
                rows.append(row if len(row) == len(row_terms) else
                            {d: v for d, v in row.items() if v})
        per_part.append(rows)
    return list(zip(*per_part))


def _image_space(f, S, k, region="full"):
    """The RowSpace of `_image_rows(f, S, k, region)`, reduced once per
    (x, k, region) and cached on S."""
    key = (f, k, region)
    space = S._images.get(key)
    if space is None:
        space = S._images[key] = RowSpace()
        space.extend(_image_rows(f, S, k, region), f.m)
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
    def of(cls, per_degree, S: GradedSemigroup):
        """Certificate of the quotient dims of degrees 0..rank + 1: each is at
        least its generic value h*_k (upper semicontinuity), so they total
        sum(h*) = vol * |N_tors| exactly when they equal S.h_star, padded
        with zeros, degree by degree."""
        dims = DimReport.of(per_degree[:S.rank + 2])
        expected = S.h_star + (0,) * (len(dims.per_degree) - len(S.h_star))
        return cls(dims.total, sum(S.h_star), dims.per_degree,
                   not any(dims.per_degree[S.rank + 1:]), expected)

    @property
    def ok(self):
        return self.per_degree == self.expected_per_degree

    def __bool__(self):
        return self.ok


def is_nondegenerate(f: FVector, S: GradedSemigroup):
    """Dimension-count test for regularity of the log-derivative sequence.

    True iff the graded quotient dims equal the Ehrhart h*-vector of the
    layers degree by degree (Batyrev, 1993): total vol * torsion order, zero
    above degree rank(N).  Returns the boolean together with the certificate.
    """
    cert = NondegeneracyCertificate.of(jacobian_dims(f, S, S.rank + 1).per_degree, S)
    return cert.ok, cert


def _hat_rows(f, beta, S, max_src_degree):
    """Sparse rows mu_j . hat[n] over the point index of degrees 0..D, times
    B * X, as parts over Q(zeta_m) for the field m of x and beta: B = beta.den
    and X the den of x over that field.

    Points are indexed in (degree, layer) order; the shift part of each row
    is B times the `_image_rows` row of n, moved to the next layer's
    indices, and the diagonal entry is (n_j * B - beta_j * B) * X.
    """
    m = field(f.m, beta.m)
    f = f.embed(m)
    bB, B = beta.numerators(m)
    X = f.den
    rows = []
    start = 0
    for k in range(max_src_degree + 1):
        layer = S.layer(k)
        up = start + len(layer)
        image = iter(_image_rows(f, S, k + 1))
        for p, n in enumerate(layer):
            for j in range(S.rank):
                row = [{up + d: v * B for d, v in part.items()} for part in next(image)]
                row += [{} for _ in range(len(row), len(bB))]
                for s, b in enumerate(bB):
                    diag = ((n.free[j] * B if s == 0 else 0) - b[j]) * X
                    if diag:
                        row[s][start + p] = diag
                rows.append(row)
        start = up
    return rows


def _hat_key(f, beta, D):
    """Where the hat space of (x, beta, D) is kept on S._images."""
    return ("hat", f, beta, D)


def _hat_space(f, beta, S, D):
    """The RowSpace of the `_hat_rows` generators with deg n <= D - 1, kept on
    S until a solve takes it (extend a copy).  Pivots: highest degree, then
    lowest index."""
    key = _hat_key(f, beta, D)
    space = S._images.get(key)
    if space is None:
        degrees = [k for k in range(D + 1) for _ in S.layer(k)]
        order = [(D - k) * len(degrees) + c for c, k in enumerate(degrees)].__getitem__
        space = S._images[key] = RowSpace(key=order)
        space.extend(_hat_rows(f, beta, S, D - 1), field(f.m, beta.m))
    return space


def _hat_free_counts(space, S, D):
    """|layer k| minus the pivots of a hat space in degree k, for k = 0..D."""
    pivots, counts, start = space.pivots, [], 0
    for k in range(D + 1):
        stop = start + len(S.layer(k))
        counts.append(stop - start - bisect_left(pivots, stop) + bisect_left(pivots, start))
        start = stop
    return tuple(counts)


def hat_quotient_dims(f: FVector, beta, S: GradedSemigroup, filtration_bound=None) -> DimReport:
    """Filtration-graded dimensions of the twisted module modulo the ideal.

    beta: an FVector or values, coordinates in the free part.  The quotient is
    computed at filtration bound D as dim C[S]_{<=D} minus the rank of the
    generators mu_j . hat[n] with deg n <= D - 1; the reported per-degree
    numbers are the jumps of the induced filtration: as each row pivots on
    its highest degree, the jump at k is |layer k| minus the pivots there.
    """
    r = S.rank
    D = filtration_bound if filtration_bound is not None else r + 1
    if D < r + 1:
        raise ValueError("filtration bound must be at least rank + 1")
    beta = beta if isinstance(beta, FVector) else FVector(beta)
    return DimReport.of(_hat_free_counts(_hat_space(f, beta, S, D), S, D))


def _interior_rank(space, S, degrees):
    """dim(R + E) - dim R for R the row space of a space over the points of
    the given layers, indexed in that order, and E spanned by the unit
    vectors of their interior points; R is left as it was."""
    space = space.copy()
    index = {c: i for i, c in enumerate(c for k in degrees for c in S.layer(k))}
    return sum(space.add([{index[c]: 1}]) for k in degrees for c in S.layer(k, "interior"))


def r1_dims(f: FVector, S: GradedSemigroup) -> DimReport:
    """Graded dimensions of the interior image inside the Jacobian quotient.

    Degree k <= rank + 1 is dim (C[K°]_k + (I C[K])_k) / (I C[K])_k.
    Computed once per x and cached on S.
    """
    key = ("r1", f)
    if key not in S._images:
        S._images[key] = DimReport.of(_interior_rank(_image_space(f, S, k), S, [k])
                                      for k in range(S.rank + 2))
    return S._images[key]


def hat_restriction_rank(f: FVector, S: GradedSemigroup, filtration_bound=None) -> int:
    """Rank of the interior-to-full map of twisted quotients at beta = 0."""
    r = S.rank
    D = filtration_bound if filtration_bound is not None else r + 1
    if D < r + 1:
        raise ValueError("filtration bound must be at least rank + 1")
    return _interior_rank(_hat_space(f, FVector((0,) * r), S, D), S, range(D + 1))


MAX_RETRIES = 16  # draws of random_rational_x before it gives up


def random_rational_x(S: GradedSemigroup, seed=0, denominator_bound=4):
    """Seeded random small-rational coefficients, retried until nondegenerate.

    Returns (FVector, certificate).  Raises NondegeneracyRetriesExhausted
    after MAX_RETRIES failures.
    """
    rng = random.Random(seed)
    n = len(S.A)
    for _ in range(MAX_RETRIES):
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
        f"no nondegenerate x within {MAX_RETRIES} draws (seed {seed})")
