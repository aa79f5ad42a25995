"""Lifting quotient solutions through torsion characters.

The free quotient of the group carries its own problem with the projected
vectors; a solution germ psi of that problem, a torsion character rho, and
the problem's base point x combine into a germ of the original problem via
lambda_c = rho(c) psi_{pi(c)} at z = p_rho(x).  One quotient basis per
character, to degree rank + 1 (which fixes every germ), gives the full
solution space.  A character of order m takes its values in Q(zeta_m), so
z, psi and the lift are exact there, as phi(m) integer parts per value
(linalg); the lift is checked exactly against the original recursion, and
a germ that fails it stops the lift (a failed `lift_completed` in a report).
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd, lcm

from .abelian import AbelianGroup, Character, char_value
from .linalg import embed, field, mul, root_of_unity
from .polyhedral import GradedSemigroup, build_semigroup
from .ring import FVector
from .solver import GermStack, recursion_defects


class ResidualTooLarge(RuntimeError):
    """A lifted germ has a nonzero exact recursion defect."""


class DegenerateQuotient(RuntimeError):
    """A quotient point p_rho(x) failed its nondegeneracy certificate, which
    the certificate of x forces: a wrong certificate or an internal bug."""


class QuotientProblem:
    """The induced problem on the free quotient of the group.

    semigroup.A are the distinct projections of the input vectors, in order
    of first occurrence; index_sets[j] lists the input indices mapping to
    semigroup.A[j].
    """
    __slots__ = ("index_sets", "semigroup", "source_vectors")

    def __init__(self, index_sets, semigroup, source_vectors):
        self.index_sets = index_sets
        self.semigroup = semigroup
        self.source_vectors = source_vectors


def _project(N: AbelianGroup, A):
    """The free quotient lattice, the distinct images of A in it (in order of
    first occurrence) and the index set of each image."""
    lattice = AbelianGroup(N.rank)
    index_sets = {}
    for i, v in enumerate(A):
        index_sets.setdefault(lattice.element(v.free), []).append(i)
    return lattice, tuple(index_sets), tuple(tuple(s) for s in index_sets.values())


def build_quotient(N: AbelianGroup, A) -> QuotientProblem:
    """Project the problem data to the free quotient, merging equal images."""
    lattice, images, index_sets = _project(N, A)
    return QuotientProblem(index_sets, build_semigroup(lattice, images), tuple(A))


def _order(rho: Character):
    """The order of a character: the lcm of d / gcd(e, d) over its exponents e
    on the invariant factors d."""
    return lcm(*(d // gcd(e, d) for e, d in zip(rho.torsion_exponents,
                                                  rho.group.torsion_invariants)))


def p_rho(rho: Character, x, Q: QuotientProblem) -> FVector:
    """Character-weighted coordinate sums z_j = sum_{i in I_j} rho(v_i) x_i,
    an FVector over Q(zeta_m) for m the field of x and of rho's values."""
    x = x if isinstance(x, FVector) else FVector(x)
    m = field(x.m, _order(rho))
    xs, X = x.numerators(m)
    z = [[0] * len(Q.index_sets) for _ in xs]
    for j, idxs in enumerate(Q.index_sets):
        for i in idxs:
            value = root_of_unity(*char_value(rho, Q.source_vectors[i]), m)
            for part, v in zip(z, mul(value, [part[i] for part in xs], m)):
                part[j] += v
    return FVector.of(m, z, X)


def _times_character(layer, chars, m_psi, m):
    """A quotient layer (parts, den), flat germ-major lists over
    Q(zeta_m_psi), in Q(zeta_m), repeated over the torsion residues
    innermost and times the character's value on each (chars: its parts per
    residue): a product by a root of unity through the power table."""
    parts = embed(layer[0], m_psi, m)
    lifted = [mul(c, parts, m) for c in chars]
    return ([list(chain.from_iterable(zip(*(v[s] for v in lifted)))) for s in range(len(parts))],
            layer[1])


def lift_and_verify(psi: GermStack, rho: Character, x, S: GradedSemigroup):
    """Lift a quotient basis through a character: lambda_c = rho(c) psi_{pi(c)}.

    psi holds solution germs of the quotient problem at base p_rho(x).
    Layer k of S is the quotient's layer k with the torsion index innermost,
    so lifted layers are quotient layers times rho, over Q(zeta_m) for m the
    field of psi, x and rho's values; layer k has the same free part in both
    problems, so each lifted germ keeps its quotient germ's leading degree.
    Returns (the lifted GermStack over S,
    0.0) after one recursion_defects pass on the original problem; the pair
    stays because perfbench's tracer reads the stack as out[0].  Raises
    ResidualTooLarge for the first germ with a nonzero defect.
    """
    _, images, index_sets = _project(S.group, S.A)
    if images != tuple(psi.semigroup.A):
        raise ValueError("psi was solved on a different quotient problem")
    Q = QuotientProblem(index_sets, psi.semigroup, S.A)
    x = x if isinstance(x, FVector) else FVector(x)
    if psi.base_x != p_rho(rho, x, Q):
        raise ValueError("psi base point does not match p_rho(x)")
    m = field(psi.m, x.m, _order(rho))
    chars = [root_of_unity(*char_value(rho, t), m) for t in S.group.torsion_elements()]
    layers = []
    for k, layer in enumerate(psi.layers):
        if Q.semigroup.free_layer(k) != S.free_layer(k):
            raise ValueError(f"quotient layer {k} is not the free part of layer {k}")
        layers.append(_times_character(layer, chars, psi.m, m))
    lift = GermStack(S, x, psi.beta, psi.truncation, layers, psi.leading, m)

    first = {}  # germ -> its first defect (k, p, j)
    for k, defect in recursion_defects(lift):
        w = len(S.layer(k)) * S.rank
        for i in compress(range(len(defect)), defect):
            first.setdefault(i // w, (k, *divmod(i % w, S.rank)))
    if first:
        k, p, j = first[min(first)]
        raise ResidualTooLarge(
            f"exact lift residual nonzero at {S.layer(k)[p]}, coordinate {j}")
    return lift, 0.0
