"""Truncated solution germs built by the degree-by-degree recursion.

A solution germ is its lambda table: the values of all unknown functions
(and hence, after re-indexing, all their Taylor coefficients) at the base
point.  A basis is one GermStack of all germs, integer lists per layer over
the layer's least common denominator, and each germ's leading degree, which
the report, the recursion check, the restriction rank and the torsion lift
read.  Two routes give the same germs.  The step route solves the
layer-(k+1) linear system whose right-hand side comes from layer k,
asserting solvability at every step.  A step reduces the rows that
`ring._kept_rows` keeps: their identities imply the dropped ones once those
one layer down hold, as the previous step or the hat kernel makes them hold
exactly, so the germs and the verdict are those of every row.  The kernel
route reads them off the hat space `ring.hat_quotient_dims` or
`ring.hat_restriction_rank` reduced for the same (x, beta) at the largest
bound D0 <= D cached on S, and takes it off the semigroup.  That kernel is
the truncated solution space: a hat row mu_j . hat[n] paired with a table
is the recursion identity at (n, j).
The pivots go to the highest degree, then the lowest index, so the germ of
a free column fc is zero below deg fc and, there, lives on fc and pivots of
lower index: fc is its last nonzero entry in (degree, index) order, as for
the step route's germ born at fc.  So both routes have the same free
columns, and both bases are the one that is 1 at one free column and 0 at
the others.  Steps extend the kernel route's germs from D0 to D: free
columns have degree at most rank + 1 <= D0, so each has one solution.
A layer's germs are one germ-major list of Python ints per part over one
denominator in lowest terms, as the one elimination read, `RowSpace.read`,
writes them for the report: a step reads its one layer, the kernel route
layers 0..D0 in one read of the hat space.  A step's right-hand sides and
the recursion check form the twist lambda_c (beta_j - c_j) alike
(`_twist`), one product per covector over the layer's denominator.
`recursion_defects` tests every recursion identity, dropped rows included,
on every germ of a stack at once; `exact_rank` is the one germ rank, of
stacks or of their restrictions to per-layer point masks.
Everything is exact, over the cyclotomic field Q(zeta_m) of x and beta, a
value as phi(m) integer parts (linalg).
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm
from operator import add, mul as times, sub
from types import SimpleNamespace

from .linalg import RowSpace, degree, embed, field, mul, solve_sparse
from .polyhedral import GradedSemigroup
from .ring import (DimReport, FVector, _gaussian, _hat_free_counts, _hat_key, _image_rows,
                   _kept_rows, jacobian_dims)


class InconsistentSystem(RuntimeError):
    """A degree step of the recursion had no solution.

    For nondegenerate coefficients the recursion is always consistent, so
    this signals a wrong nondegeneracy certificate or an internal bug.
    """


class GermStack:
    """Germs sharing a semigroup, base point, beta and truncation.

    layers[k] is (parts, den): parts a list of ints per part over Q(zeta_m),
    germ t having the value sum_s parts[s][t w + p] zeta^s / den at
    layer(k)[p], w = |layer(k)|, den the least common denominator of the
    layer's values.  Germ t is zero below degree leading[t] and not on that
    layer; the leading degrees ascend.  base_x and beta are FVectors over
    subfields of Q(zeta_m).
    """
    __slots__ = ("semigroup", "base_x", "beta", "truncation", "layers", "leading", "m")

    def __init__(self, semigroup, base_x, beta, truncation, layers, leading, m):
        self.semigroup = semigroup
        self.base_x = base_x
        self.beta = beta
        self.truncation = truncation
        self.layers = layers
        self.leading = leading
        self.m = m

    def __len__(self):
        return len(self.leading)

    def values(self, t, k):
        """{p: value} of the nonzero entries of germ t on layer k, each the
        tuple of its integer parts over Q(zeta_m), over the den of
        layers[k]: (re,) over Q, (re, im) over Q(i)."""
        parts, w = self.layers[k][0], len(self.semigroup.layer(k))
        cols = zip(*(part[t * w:(t + 1) * w] for part in parts))
        return {p: v for p, v in enumerate(cols) if any(v)}

    @property
    def tables(self):
        """Per germ, `entries` {(k, p): value} of its nonzero values, over Q
        and Q(i) as `ring._gaussian` gives them, else (parts, den): no report
        reads it, but perfbench's tracer reads coefficient sizes off it."""
        view = _gaussian if self.m in (1, 4) else lambda *v: v
        return [SimpleNamespace(entries={(k, p): view(v, self.layers[k][1])
                                         for k in range(self.truncation + 1)
                                         for p, v in self.values(t, k).items()})
                for t in range(len(self))]


def _hat_kernel(f, beta, S, D):
    """Per layer 0..D0, the germs (P, den) off the kernel of the hat space of
    (x, beta) cached on S at the largest bound D0 <= D, taken off S and read
    once, and their leading degrees, the degrees of the free columns; None if
    no such space is cached or its free columns per degree differ from the
    step kernels'."""
    D0 = next((d for d in range(D, S.rank, -1) if _hat_key(f, beta, d) in S._images), None)
    if D0 is None:
        return None
    space = S._images.pop(_hat_key(f, beta, D0))
    if (counts := _hat_free_counts(space, S, D0)) != jacobian_dims(f, S, D0).per_degree:
        return None
    cuts = list(accumulate((len(S.layer(k)) for k in range(D0 + 1)), initial=0))
    return (space.read(cuts, field(f.m, beta.m)),
            [k for k, count in enumerate(counts) for _ in range(count)])


def _twist(P, layer, bs, B, j, scale, m):
    """scale lambda_c (beta_j - c_j) B at c in the layer for the germs P, as
    parts over Q(zeta_m), beta_j the parts bs[s][j] over B."""
    gr = [scale * (bs[0][j] - B * c.free[j]) for c in layer] * (len(P[0]) // len(layer))
    return mul([gr, *(scale * part[j] for part in bs[1:])], P, m)


def solve_recursion(f, beta, S: GradedSemigroup, truncation) -> GermStack:
    """Basis of truncated solution germs at the base point f, over the field
    Q(zeta_m) of x and beta (FVectors, or values).

    New basis directions at degree k + 1 are the echelonized kernel of the
    step matrix; existing germs are extended by the particular solution with
    free variables zero, so results are reproducible.  Both come from one
    sparse reduction of the step (linalg.solve_sparse).  Raises
    InconsistentSystem if a degree step is unsolvable.  That is the step
    route; the kernel route (see the module) reads degrees 0..D0 off the hat
    space of (x, beta) cached on S at the largest bound D0 <= D, if each
    degree m has |layer m| - rank `_image_rows(f, S, m)` free columns there,
    as it does exactly when no step is inconsistent; steps then run from D0
    to D.
    """
    r, D = S.rank, truncation
    if D < r + 1:
        raise ValueError("truncation must be at least rank + 1")
    f = f if isinstance(f, FVector) else FVector(f)
    beta = beta if isinstance(beta, FVector) else FVector(beta)
    m = field(f.m, beta.m)
    n = degree(m)

    # layers[k]: (P, den) of the germs born at degree <= k, on layer k
    got = _hat_kernel(f, beta, S, D)
    if got is None:
        # one unit germ per degree-0 layer element
        w = len(S.layer(0))
        P = [[int(t == p) for t in range(w) for p in range(w)]]
        P += ([0] * (w * w) for _ in range(n - 1))  # a list per part: padded in place
        layers, leading = [(P, 1)], [0] * w
    else:
        layers, leading = got

    fm = f.embed(m)
    X = fm.den
    bB, B = beta.numerators(m)
    for k in range(len(layers) - 1, D):
        # right-hand sides lambda_c (beta_j - c_j) B X over den B, germ t's
        # row p r + j at c = layer(k)[p]
        (P, den), layer = layers[k], S.layer(k)
        w = len(layer)
        count = len(P[0]) // w
        R = [_twist(P, layer, bB, B, j, X, m) for j in range(r)]
        keep = _kept_rows(fm, S, k)
        rhs = [[list(compress(chain.from_iterable(zip(*(Rj[s][t * w:(t + 1) * w] for Rj in R))),
                              keep)) for s in range(n)] for t in range(count)]
        w1 = len(S.layer(k + 1))
        (P1, d1), bad = solve_sparse(_image_rows(fm, S, k + 1), w1, rhs, den * B, m)
        if bad:
            raise InconsistentSystem(
                f"no extension at degree {k + 1}; nondegeneracy certificate wrong?")
        layers.append((P1, d1))
        leading += [k + 1] * (len(P1[0]) // w1 - count)

    # germs born above degree k are zero on layer k
    for k, (P, _) in enumerate(layers):
        for part in P:
            part.extend(repeat(0, len(S.layer(k)) * len(leading) - len(part)))
    return GermStack(S, f, beta, D, layers, leading, m)


def filtration_dims(stack: GermStack) -> DimReport:
    """Counts of germs by leading degree; dual to the graded quotient."""
    return DimReport.of(stack.leading.count(k) for k in range(stack.truncation + 1))


def recursion_defects(stack: GermStack):
    """Yield (k, defect) for each degree k below the truncation; defect is a
    list of bools, entry (t w + p) rank + j True where germ t breaks
    sum_i x_i v_i[j] lambda_{c + v_i} = lambda_c (beta_j - c_j) at
    c = layer(k)[p], w = |layer(k)|, reading c + v_i from the shift tables.
    On integer parts over Q(zeta_m), with g = gcd(den_k, den_{k+1}), the
    scalars a = fb den_k / g and b = ex den_{k+1} / g bring both sides to one
    denominator (ex and fb those of x and beta).  One difference per j starts
    as b lambda_c (beta_j - c_j) fb; each generator's a x_i lambda_{c + v_i}
    is formed once, v_i[j] times it is subtracted from each difference, and
    it is dropped.  A defect is a nonzero entry of a part of a difference.
    """
    S, m, r = stack.semigroup, stack.m, stack.semigroup.rank
    xs, ex = stack.base_x.numerators(m)
    bs, fb = stack.beta.numerators(m)
    for k, ((P0, den0), (P1, den1)) in enumerate(zip(stack.layers, stack.layers[1:])):
        layer, w1, size = S.layer(k), len(S.layer(k + 1)), len(P0[0])
        g = gcd(den0, den1)
        a, b = fb * den0 // g, ex * den1 // g
        offsets = [o for o in range(0, len(P1[0]), w1) for _ in layer]  # of P0's germs in P1
        diffs = [_twist(P0, layer, bs, fb, j, b, m) for j in range(r)]
        for i, col in enumerate(zip(*S.shift(k))):
            if any(x[i] for x in xs):
                idx = list(map(add, offsets, col * (size // len(layer))))
                ax = mul([a * x[i] for x in xs], [list(map(part.__getitem__, idx))
                                                  for part in P1], m)
                for j, c in enumerate(S.A[i].free):
                    if c:
                        diffs[j] = [list(map(add, d, y) if c == -1 else
                                         map(sub, d, y if c == 1 else map(times, y, repeat(c))))
                                    for d, y in zip(diffs[j], ax)]
        defect = [False] * (size * r)
        for j, diff in enumerate(diffs):
            for d in diff:
                for i in compress(range(size), d):
                    defect[i * r + j] = True
        yield k, defect


def exact_rank(stacks, masks=None) -> int:
    """Exact rank of the germs of GermStacks on one semigroup and truncation,
    over the field that holds theirs; with masks, of their restrictions to
    the points masks[k] (a list of bools) of each layer k < len(masks).
    Columns go into a RowSpace layer by layer until the rank is the germ
    count, which bounds it from above."""
    rows = sum(len(s) for s in stacks)
    m = field(*(s.m for s in stacks))
    space = RowSpace()
    for k, (mask, layers) in enumerate(zip(repeat(None) if masks is None else masks,
                                           zip(*(s.layers for s in stacks)))):
        w = len(stacks[0].semigroup.layer(k))
        den = lcm(*(d for _, d in layers))
        parts = [embed(mul([den // d], P, s.m), s.m, m) for (P, d), s in zip(layers, stacks)]
        for p in range(w) if mask is None else compress(range(w), mask):
            space.add([{t: v for t, v in enumerate(chain.from_iterable(P[s][p::w] for P in parts))
                        if v} for s in range(degree(m))], m)
            if space.rank == rows:
                return rows
    return space.rank
