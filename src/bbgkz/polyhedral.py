"""Cones, graded lattice-point enumeration, primitive elements, volume.

The cone over the degree-one vectors is pointed and full-dimensional in the
free lattice (guaranteed by the validated input data), so facets can be found
by brute force over generator subsets and layers can be enumerated by walking
an integer box in the degree-k slice.  Scales are small throughout, which is
what makes these direct methods exact and fast enough.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .abelian import (AbelianGroup, DualElement, GroupElement,
                      NoDegreeFunctional, pair, smith_normal_form, _det_sign)
from .linalg import RowSpace, numerators, solve_sparse


class NotPointed(ValueError):
    """The generated cone contains a line."""


class DegeneratePolytope(ValueError):
    """The convex hull has lower dimension than expected."""


class KPrimGuardError(RuntimeError):
    """New primitive elements appeared beyond the expected degree bound."""


@dataclass(frozen=True)
class Face:
    generator_indices: frozenset
    dim: int


@dataclass(frozen=True)
class Cone:
    generators: tuple        # deduplicated free vectors, sorted
    facet_normals: tuple     # primitive integer covectors, >= 0 on the cone
    faces: tuple             # Face instances, closed under intersection

    def contains(self, w):
        return all(_dot(h, w) >= 0 for h in self.facet_normals)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _vec_rank(vectors):
    """Rank of a list of integer/rational vectors (exact elimination)."""
    space = RowSpace()
    for v in vectors:
        space.add(dict(enumerate(v)))
    return space.rank


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    vec = tuple(x // g for x in vec)
    for x in vec:
        if x:
            return vec if x > 0 else tuple(-y for y in vec)
    return None


def _integer_kernel_vector(rows, ncols):
    """A primitive integer vector spanning the kernel of a rank ncols-1 matrix."""
    _, D, V = smith_normal_form([list(r) for r in rows] or [[0] * ncols])
    # kernel basis = columns of V past the rank
    r = 0
    for i in range(min(len(D), ncols)):
        if D[i][i]:
            r += 1
    if r != ncols - 1:
        return None
    vec = tuple(V[i][ncols - 1] for i in range(ncols))
    return _primitive(vec)


def facets_and_faces(generators) -> Cone:
    """Facet normals and the full face lattice of the cone over `generators`.

    Raises NotPointed if the cone contains a line.  The generators must span
    the ambient free lattice over the rationals.
    """
    gens = sorted(set(tuple(int(x) for x in g) for g in generators))
    gens = [g for g in gens if any(g)]
    if not gens:
        raise ValueError("no nonzero generators")
    r = len(gens[0])
    if _vec_rank(gens) != r:
        raise ValueError("generators do not span the ambient space")

    normals = set()
    if r == 1:
        signs = {1 if g[0] > 0 else -1 for g in gens}
        if len(signs) > 1:
            raise NotPointed("cone contains a line")
        normals.add((signs.pop(),))
    else:
        for comb in itertools.combinations(range(len(gens)), r - 1):
            sub = [gens[i] for i in comb]
            if _vec_rank(sub) != r - 1:
                continue
            h = _integer_kernel_vector(sub, r)
            if h is None:
                continue
            vals = [_dot(h, g) for g in gens]
            pos = any(v > 0 for v in vals)
            neg = any(v < 0 for v in vals)
            if pos and neg:
                continue
            if neg:
                h = tuple(-x for x in h)
            if not pos and not neg:
                # all generators on the hyperplane: contradicts full dimension
                continue
            normals.add(h)
    normals = tuple(sorted(normals))

    # pointedness: a nonzero vector killed by every normal would span a line
    on_all = [g for g in gens if all(_dot(h, g) == 0 for h in normals)]
    if on_all or _vec_rank(normals) != r:
        raise NotPointed("cone contains a line")

    face_sets = {}
    all_idx = frozenset(range(len(gens)))
    face_sets[all_idx] = r
    for size in range(1, len(normals) + 1):
        for hs in itertools.combinations(normals, size):
            members = frozenset(i for i, g in enumerate(gens)
                                if all(_dot(h, g) == 0 for h in hs))
            if members not in face_sets:
                sub = [gens[i] for i in members]
                face_sets[members] = _vec_rank(sub) if sub else 0
    if frozenset() not in face_sets:
        face_sets[frozenset()] = 0
    faces = tuple(Face(fs, dim) for fs, dim in
                  sorted(face_sets.items(), key=lambda kv: (kv[1], sorted(kv[0]))))
    return Cone(tuple(gens), normals, faces)


def _integer_inverse(M):
    """Exact inverse of a unimodular integer matrix, as integer rows."""
    n = len(M)
    cols, _ = solve_sparse([dict(enumerate(row)) for row in M], n,
                           [([int(i == j) for i in range(n)], None, 1) for j in range(n)])
    assert all(v.d == 1 for col in cols for v in col.values())
    return [[cols[j][i].a if i in cols[j] else 0 for j in range(n)] for i in range(n)]


def _degree_kernel_basis(deg_covector):
    """Integer basis of the sublattice where the degree covector vanishes.

    Returns (B, to_coords) with B a list of r-vectors and to_coords a function
    mapping a kernel lattice vector to its exact integer B-coordinates.
    """
    r = len(deg_covector)
    _, D, V = smith_normal_form([list(deg_covector)])
    assert abs(D[0][0]) == 1, "degree covector must be primitive"
    basis = [tuple(V[i][j] for i in range(r)) for j in range(1, r)]
    V_inv = _integer_inverse(V)

    def to_coords(w):
        return tuple(sum(V_inv[j][i] * w[i] for i in range(r)) for j in range(1, r))

    return basis, to_coords


class GradedSemigroup:
    """The preimage of the cone in the group, graded by the degree covector.

    Layers (degree slices of K or of its relative interior) and the integer
    shift tables between consecutive layers are built on first use and
    cached on the instance; so are the volume and the images of `ring`.
    Geometry runs on int64 arrays while a bound on every value computed
    stays below 2**62, and on Python ints (dtype object) beyond it.
    """

    def __init__(self, group: AbelianGroup, A, deg: DualElement):
        self.group = group
        self.A = tuple(A)
        self.deg = deg
        if any(pair(deg, v) != 1 for v in self.A):
            raise ValueError("every generator must have degree 1")
        self.cone = facets_and_faces([v.free for v in self.A])
        self._base = self.A[0].free
        self._kernel_basis, to_coords = _degree_kernel_basis(deg.free_covector)
        gen_coords = [to_coords(tuple(a - b for a, b in zip(v.free, self._base)))
                      for v in self.A]
        # kernel coordinates of degree-k points lie in k times this box
        self._box = [(min(t[j] for t in gen_coords), max(t[j] for t in gen_coords))
                     for j in range(self.rank - 1)]
        # |coordinate| of a point of the degree-k box is at most k * _coord
        self._coord = max(abs(b) + sum(max(-lo, hi) * abs(v[i])
                                       for (lo, hi), v in zip(self._box, self._kernel_basis))
                          for i, b in enumerate(self._base))
        self._facet_sum = max(sum(map(abs, h)) for h in self.cone.facet_normals)
        self._free = {}
        self._layers = {}
        self._shifts = {}
        self._images = {}

    @property
    def rank(self):
        return self.group.rank

    @functools.cached_property
    def volume(self):
        """`normalized_volume(A)`, computed once."""
        return normalized_volume(self.A)

    def _dtype(self, k):
        """int64 if coordinates, facet values and shift codes of degrees up
        to k + 1 stay below 2**62 in magnitude, else object (Python ints)."""
        span = 2 * (k + 1) * self._coord + 1
        return np.int64 if span ** self.rank * self._facet_sum < 2 ** 62 else object

    def free_layer(self, k, region="full"):
        """Free-lattice points of the degree-k slice as the rows of an integer
        array (dtype from `_dtype`), lexicographically sorted."""
        key = (k, region)
        got = self._free.get(key)
        if got is None:
            if k < 0:
                raise ValueError("degree must be nonnegative")
            r, dtype = self.rank, self._dtype(k)
            shape = [k * (hi - lo) + 1 for lo, hi in self._box]
            grid = np.indices(shape).reshape(r - 1, -1 if shape else 1).T.astype(dtype)
            basis = np.array(self._kernel_basis, dtype=dtype).reshape(r - 1, r)
            w = (grid + np.array([k * lo for lo, _ in self._box], dtype=dtype)) @ basis
            w += np.array([k * x for x in self._base], dtype=dtype)
            values = w @ np.array(self.cone.facet_normals, dtype=dtype).T
            w = w[(values >= 0 if region == "full" else values > 0).all(axis=1)]
            got = self._free[key] = w[np.lexsort(w.T[::-1])]
        return got

    def layer(self, k, region="full"):
        """Ordered group elements of degree k in K (or its interior)."""
        key = (k, region)
        got = self._layers.get(key)
        if got is not None:
            return got
        tors = [t.torsion for t in self.group.torsion_elements()]
        elems = tuple(GroupElement(self.group, w, t)
                      for w in map(tuple, self.free_layer(k, region).tolist()) for t in tors)
        self._layers[key] = elems
        return elems

    def shift(self, k, region="full"):
        """Int array whose entry [p, i] is the index of layer(k)[p] + A[i] in
        layer(k + 1); a generator keeps the cone and its interior, so both
        regions close."""
        key = (k, region)
        got = self._shifts.get(key)
        if got is None:
            dtype = self._dtype(k)
            src = self.free_layer(k, region).astype(dtype)
            dst = self.free_layer(k + 1, region).astype(dtype)
            lo = dst.min(axis=0, initial=0)
            spans = (dst.max(axis=0, initial=0) - lo + 1).tolist()
            # mixed-radix codes: increasing along the sorted points of dst
            radix = np.array([math.prod(spans[j + 1:]) for j in range(len(spans))], dtype=dtype)
            gens = np.array([v.free for v in self.A], dtype=dtype)
            pos = np.searchsorted((dst - lo) @ radix, (src[:, None] + gens - lo) @ radix)
            tors = self.group.torsion_elements()
            index = {t.torsion: s for s, t in enumerate(tors)}
            offset = np.array([[index[(t + v).torsion] for v in self.A] for t in tors],
                              dtype=np.intp)
            got = (pos[:, None] * len(tors) + offset).reshape(-1, len(self.A))
            self._shifts[key] = got
        return got


def build_semigroup(N: AbelianGroup, A) -> GradedSemigroup:
    """Validate (N, A) and assemble the graded semigroup."""
    from .abelian import validate_data
    deg = validate_data(N, A)
    return GradedSemigroup(N, A, deg)


def k_prim(S: GradedSemigroup, A=None, guard_degrees=2):
    """The finite set of c in K with c - v_i outside K for every i.

    Scans degrees 0..rank and then checks `guard_degrees` more degrees to
    confirm no primitive element was missed; raises KPrimGuardError if the
    finiteness bound assumption fails.
    """
    A = S.A if A is None else tuple(A)
    found = []
    for k in range(S.rank + 1 + guard_degrees):
        dtype = S._dtype(k)
        normals = np.array(S.cone.facet_normals, dtype=dtype).T
        layer = S.layer(k)
        at_c = np.array([c.free for c in layer], dtype=dtype).reshape(-1, S.rank) @ normals
        at_v = np.array([v.free for v in A], dtype=dtype) @ normals
        # c - v_i lies in K iff no facet value of c falls below that of v_i
        reducible = (at_c[:, None] >= at_v).all(axis=2).any(axis=1)
        primitive = [c for c, red in zip(layer, reducible.tolist()) if not red]
        if k > S.rank and primitive:
            raise KPrimGuardError(
                f"primitive elements at degree {k} exceed the degree bound: {primitive}")
        found.extend(primitive)
    return found


def _affine_coords(points):
    """Exact coordinates of `points` in their affine hull.

    Returns (coords, dim): coords are Fraction tuples of length dim.
    """
    base = points[0]
    diffs = [tuple(Fraction(a) - Fraction(b) for a, b in zip(p, base)) for p in points]
    frame = []
    for v in diffs:
        if _vec_rank(frame + [v]) > len(frame):
            frame.append(v)
    dim = len(frame)
    if dim == 0:
        return [() for _ in points], 0
    coords = []
    for v in diffs:
        # solve frame^T y = v  (consistent by construction)
        aug = [[frame[j][i] for j in range(dim)] + [v[i]] for i in range(len(base))]
        y = _solve_exact(aug, dim)
        coords.append(tuple(y))
    return coords, dim


def _solve_exact(aug, ncols):
    """Solve the consistent system given as augmented Fraction rows, with
    every free variable zero."""
    (sol,), _ = solve_sparse([dict(enumerate(r[:ncols])) for r in aug], ncols,
                             [numerators([r[ncols] for r in aug])])
    assert sol is not None, "inconsistent system"
    return [sol[c].real if c in sol else Fraction(0) for c in range(ncols)]


def _placing_triangulation(coords, idxs):
    """Triangulate the hull of affinely spanning points, apex at the lex-min.

    coords: Fraction tuples of dimension d; idxs: parallel global indices.
    Returns d-simplices as tuples of global indices; deterministic.
    """
    d = len(coords[0])
    m = len(coords)
    if m == d + 1:
        return [tuple(idxs)]
    if d == 1:
        lo = min(range(m), key=lambda i: (coords[i], idxs[i]))
        hi = max(range(m), key=lambda i: (coords[i], idxs[i]))
        return [(idxs[lo], idxs[hi])]
    facets = set()
    for comb in itertools.combinations(range(m), d):
        base = coords[comb[0]]
        mat = [tuple(c - b for c, b in zip(coords[i], base)) for i in comb[1:]]
        if _vec_rank(mat) != d - 1:
            continue
        normal = _rational_kernel_vector(mat, d)
        vals = [_dot(normal, tuple(c - b for c, b in zip(p, base))) for p in coords]
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            facets.add(frozenset(i for i, v in enumerate(vals) if v == 0))
    apex = min(range(m), key=lambda i: (coords[i], idxs[i]))
    simplices = []
    for members in sorted(facets, key=lambda s: sorted(s)):
        if apex in members:
            continue
        mem = sorted(members)
        sub_pts = [coords[i] for i in mem]
        sub_coords, sub_dim = _affine_coords(sub_pts)
        assert sub_dim == d - 1
        for s in _placing_triangulation(sub_coords, [idxs[i] for i in mem]):
            simplices.append((idxs[apex],) + s)
    return simplices


def _rational_kernel_vector(mat, ncols):
    """Nonzero rational vector in the kernel of a rank ncols-1 matrix."""
    vec = solve_sparse([dict(enumerate(r)) for r in mat], ncols, [])[1][0]
    return tuple(Fraction(vec[c].real) if c in vec else Fraction(0) for c in range(ncols))


def triangulate_polytope(points):
    """Placing triangulation of conv(points); simplices as index tuples."""
    coords, dim = _affine_coords(points)
    if dim == 0:
        return [(0,)]
    return _placing_triangulation(coords, list(range(len(points))))


def normalized_volume(A) -> int:
    """Normalized volume of the convex hull of the degree-one vectors.

    (dim)! times the Euclidean volume measured in the lattice of integer
    points of the degree-one hyperplane; always a positive integer.  Raises
    DegeneratePolytope when the hull has dimension below rank - 1.
    """
    pts = sorted(set(v.free for v in A))
    r = len(pts[0])
    if r == 0:
        raise DegeneratePolytope("rank zero group")
    if r == 1:
        return 1
    base = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in pts]
    if _vec_rank(diffs) != r - 1:
        raise DegeneratePolytope("polytope dimension is below rank - 1")
    # degree functional: the unique rational covector equal to 1 on all points
    aug = [[Fraction(x) for x in p] + [Fraction(1)] for p in pts]
    degv = _solve_exact(aug, r)
    mult = 1
    for x in degv:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    deg_int = tuple(int(x * mult) for x in degv)
    if mult != 1:
        raise DegeneratePolytope("degree-one hyperplane is not a lattice hyperplane")
    _, kernel_coords = _degree_kernel_basis(deg_int)
    ys = [kernel_coords(d) for d in diffs]
    simplices = triangulate_polytope(ys)
    total = 0
    for s in simplices:
        p0 = ys[s[0]]
        M = [[ys[i][j] - p0[j] for j in range(r - 1)] for i in s[1:]]
        det = _det_sign(M)
        assert det != 0
        total += abs(int(det))
    return total
