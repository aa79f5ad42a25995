"""Cones, graded lattice-point enumeration, primitive elements, volume.

The cone over the degree-one vectors is pointed and full-dimensional in the
free lattice (guaranteed by the validated input data), so facets can be found
by brute force over generator subsets and layers can be enumerated by walking
an integer box in the degree-k slice.  Scales are small throughout, which is
what makes these direct methods exact and fast enough.  The volume is read
off the layer counts through the Ehrhart h*-vector.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations, repeat
from operator import add, mul

from .abelian import AbelianGroup, DualElement, GroupElement, hermite, pair
from .linalg import RowSpace


class NotPointed(ValueError):
    """The generated cone contains a line."""


class Cone:
    __slots__ = ("generators", "facet_normals")

    def __init__(self, generators, facet_normals):
        self.generators = generators          # deduplicated free vectors, sorted
        self.facet_normals = facet_normals    # primitive integer covectors, >= 0 on the cone


def _dot(u, v):
    return sum(map(mul, u, v))


def _row_space(vectors):
    """The RowSpace of integer vectors."""
    space = RowSpace()
    for v in vectors:
        space.add([{c: x for c, x in enumerate(v) if x}])
    return space


def cone_over(generators) -> Cone:
    """The cone over `generators` with its facet normals.

    A candidate normal spans the kernel of r - 1 generators where it is one
    dimensional; signed, it is a facet normal if no generator lies on its
    negative side and one lies on its positive side.  Raises NotPointed if
    the cone contains a line.  The generators must span the ambient free
    lattice over the rationals.
    """
    gens = sorted(set(tuple(int(x) for x in g) for g in generators))
    gens = [g for g in gens if any(g)]
    if not gens:
        raise ValueError("no nonzero generators")
    r = len(gens[0])
    if _row_space(gens).rank != r:
        raise ValueError("generators do not span the ambient space")

    normals = set()
    for sub in combinations(gens, r - 1):
        [([h], _)] = _row_space(sub).read([0, r])
        if len(h) != r:
            continue
        # the numerators of the one kernel vector, made primitive
        content = math.gcd(*h)
        h = [v // content for v in h]
        vals = [_dot(h, g) for g in gens]
        pos = any(v > 0 for v in vals)
        neg = any(v < 0 for v in vals)
        # both signs: no facet; neither: all generators on the hyperplane,
        # which contradicts full dimension
        if pos != neg:
            normals.add(tuple(h) if pos else tuple(-x for x in h))
    normals = tuple(sorted(normals))

    # pointedness: a nonzero vector killed by every normal would span a line
    on_all = [g for g in gens if all(_dot(h, g) == 0 for h in normals)]
    if on_all or _row_space(normals).rank != r:
        raise NotPointed("cone contains a line")

    return Cone(tuple(gens), normals)


def _degree_kernel_basis(deg_covector):
    """Integer basis of the sublattice where the degree covector vanishes.

    Returns (B, to_coords) with B a list of r-vectors and to_coords a function
    mapping a kernel lattice vector to its exact integer B-coordinates.  The
    Hermite form of the primitive deg as a column is U*deg = e_1, so rows
    2..r of U are the basis, and a kernel vector w = a*U has a = w*W.
    """
    _, U, W = hermite([[x] for x in deg_covector])
    cols = list(zip(*W))[1:]
    return [tuple(u) for u in U[1:]], lambda w: tuple(_dot(w, col) for col in cols)


class GradedSemigroup:
    """The preimage of the cone in the group, graded by the degree covector.

    Layers (degree slices of K or of its relative interior) and the integer
    shift tables between consecutive layers are built on first use and
    cached on the instance; so are h*, K_prim and the images of `ring`.
    Geometry runs on Python ints, exact at any size.
    """

    def __init__(self, group: AbelianGroup, A, deg: DualElement):
        self.group = group
        self.A = tuple(A)
        self.deg = deg
        if any(pair(deg, v) != 1 for v in self.A):
            raise ValueError("every generator must have degree 1")
        self.cone = cone_over([v.free for v in self.A])
        self._base = self.A[0].free
        self._kernel_basis, to_coords = _degree_kernel_basis(deg.free_covector)
        gen_coords = [to_coords(tuple(a - b for a, b in zip(v.free, self._base)))
                      for v in self.A]
        # kernel coordinates of degree-k points lie in k times this box
        self._box = [(min(t[j] for t in gen_coords), max(t[j] for t in gen_coords))
                     for j in range(self.rank - 1)]
        self._free = {}
        self._layers = {}
        self._shifts = {}
        self._images = {}

    @property
    def rank(self):
        return self.group.rank

    @functools.cached_property
    def h_star(self):
        """The Ehrhart h*-vector h*_0..h*_r of the layers, counted with torsion:
        h*_k = sum_j (-1)^j C(r, j) |layer k - j|.  The hull of A is a lattice
        polytope of dimension r - 1, so h*_r = 0 (Stanley, 1980)."""
        r, tors = self.rank, self.group.torsion_order
        counts = [len(self.free_layer(k)) * tors for k in range(r + 1)]
        return tuple(sum((-1) ** j * math.comb(r, j) * counts[k - j] for j in range(k + 1))
                     for k in range(r + 1))

    @functools.cached_property
    def volume(self):
        """Normalized volume of the hull of A in the degree-one lattice
        hyperplane: sum(h*) / |N_tors|."""
        return sum(self.h_star) // self.group.torsion_order

    def free_layer(self, k, region="full"):
        """Free-lattice points of the degree-k slice, sorted tuples of ints:
        the box in all kernel coordinates but the last, walked column by
        column with running sums of the point and of its facet values, and
        per point the last coordinate's range by the facet inequalities."""
        key = (k, region)
        got = self._free.get(key)
        if got is None:
            if k < 0:
                raise ValueError("degree must be nonnegative")
            least = 0 if region == "full" else 1  # the least facet value
            normals = self.cone.facet_normals
            W = [[k * x] for x in self._base]
            V = [[_dot(h, self._base) * k] for h in normals]
            box = [(b, [_dot(h, b) for h in normals], range(k * lo, k * hi + 1))
                   for b, (lo, hi) in zip(self._kernel_basis, self._box)]
            for b, hb, ts in box[:-1]:
                W = [[x + t * y for x in col for t in ts] for col, y in zip(W, b)]
                V = [[v + t * c for v in col for t in ts] for col, c in zip(V, hb)]
            b, hb, ts = box[-1] if box else ((0,) * len(W), [0] * len(V), range(1))
            los, his = [ts.start] * len(V[0]), [ts.stop - 1] * len(V[0])
            for col, c in zip(V, hb):  # least <= v + t c
                if c > 0:
                    los = list(map(max, los, [(least - 1 - v) // c + 1 for v in col]))
                elif c < 0:
                    his = list(map(min, his, [(v - least) // -c for v in col]))
                else:
                    his = [h if v >= least else ts.start - 1 for h, v in zip(his, col)]
            runs = [hi + 1 - lo for lo, hi in zip(los, his)]  # points per walked point
            got = self._free[key] = tuple(sorted(zip(*(
                chain.from_iterable(map(range, [x + lo * y for x, lo in zip(col, los)],
                                        [x + (hi + 1) * y for x, hi in zip(col, his)], repeat(y)))
                if y else chain.from_iterable(map(repeat, col, runs)) for col, y in zip(W, b)))))
        return got

    def layer(self, k, region="full"):
        """Ordered group elements of degree k in K (or its interior)."""
        key = (k, region)
        got = self._layers.get(key)
        if got is not None:
            return got
        tors = [t.torsion for t in self.group.torsion_elements()]
        elems = tuple(GroupElement(self.group, w, t)
                      for w in self.free_layer(k, region) for t in tors)
        self._layers[key] = elems
        return elems

    def shift(self, k, region="full"):
        """Per point of layer(k), the tuple whose entry i is the index of
        that point + A[i] in layer(k + 1); a generator keeps the cone and its
        interior, so both regions close."""
        key = (k, region)
        got = self._shifts.get(key)
        if got is None:
            dst, gens = self.free_layer(k + 1, region), [v.free for v in self.A]
            # mixed-radix codes of the box around (k + 1) conv(A), which holds dst
            spans = [(k + 1) * (max(col) - min(col)) + 1 for col in zip(*gens)]
            radix = [math.prod(spans[j + 1:]) for j in range(len(spans))]
            tors = self.group.torsion_elements()
            T = len(tors)
            at = dict(zip(map(_dot, dst, repeat(radix)), range(0, len(dst) * T, T)))
            codes = list(map(_dot, self.free_layer(k, region), repeat(radix)))
            # per free point, the index of its sum with each A[i] at torsion 0
            rows = zip(*(map(at.__getitem__, map(add, codes, repeat(_dot(v, radix))))
                         for v in gens))
            if T > 1:  # torsion residues innermost
                index = {t.torsion: s for s, t in enumerate(tors)}
                offsets = [[index[(t + v).torsion] for v in self.A] for t in tors]
                rows = (tuple(map(add, row, o)) for row in rows for o in offsets)
            got = self._shifts[key] = tuple(rows)
        return got


def build_semigroup(N: AbelianGroup, A) -> GradedSemigroup:
    """Validate (N, A) and assemble the graded semigroup."""
    from .abelian import validate_data
    deg = validate_data(N, A)
    return GradedSemigroup(N, A, deg)


def k_prim(S: GradedSemigroup):
    """The finite set of c in K with c - v_i outside K for every i, in
    degrees 0..rank - 1.  By Caratheodory the free part of c of degree
    k >= rank is sum_i a_i v_i over rank independent v_i, a_i >= 0 summing to
    k, so some a_i >= 1 and c - v_i lies in K: no degree above is scanned."""
    found = []
    for k in range(S.rank):
        # c - v_i lies in K iff c = c' + v_i for a c' of the layer below
        reducible = set(chain.from_iterable(S.shift(k - 1))) if k else ()
        found.extend(c for q, c in enumerate(S.layer(k)) if q not in reducible)
    return tuple(found)
