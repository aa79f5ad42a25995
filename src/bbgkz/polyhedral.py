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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .abelian import AbelianGroup, DualElement, GroupElement, pair, smith_normal_form
from .linalg import RowSpace


class NotPointed(ValueError):
    """The generated cone contains a line."""


class KPrimGuardError(RuntimeError):
    """New primitive elements appeared beyond the expected degree bound."""


@dataclass(frozen=True)
class Cone:
    generators: tuple        # deduplicated free vectors, sorted
    facet_normals: tuple     # primitive integer covectors, >= 0 on the cone


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


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
    for sub in itertools.combinations(gens, r - 1):
        kernel = list(_row_space(sub).kernel(r).values())
        if len(kernel) != 1:
            continue
        # primitive: its free column holds den, prime to the other numerators
        (part, *_), _ = kernel[0]
        h = [part.get(c, 0) for c in range(r)]
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
    mapping a kernel lattice vector to its exact integer B-coordinates.
    """
    r = len(deg_covector)
    _, D, V = smith_normal_form([list(deg_covector)])
    assert abs(D[0][0]) == 1, "degree covector must be primitive"
    basis = [tuple(V[i][j] for i in range(r)) for j in range(1, r)]
    # V is unimodular, so U2 V V2 = I and V^-1 = V2 U2
    U2, _, V2 = smith_normal_form(V)
    V_inv = [[_dot(row, col) for col in zip(*U2)] for row in V2]

    def to_coords(w):
        return tuple(sum(V_inv[j][i] * w[i] for i in range(r)) for j in range(1, r))

    return basis, to_coords


class GradedSemigroup:
    """The preimage of the cone in the group, graded by the degree covector.

    Layers (degree slices of K or of its relative interior) and the integer
    shift tables between consecutive layers are built on first use and
    cached on the instance; so are h*, K_prim and the images of `ring`.
    Geometry runs on int64 arrays while a bound on every value computed
    stays below 2**62, and on Python ints (dtype object) beyond it.
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


def k_prim(S: GradedSemigroup):
    """The finite set of c in K with c - v_i outside K for every i.

    Scans degrees 0..rank and then checks two more degrees to confirm no
    primitive element was missed; raises KPrimGuardError if the finiteness
    bound assumption fails.  Computed once and cached on S.
    """
    found = S._images.get("k_prim")
    if found is not None:
        return found
    found = []
    for k in range(S.rank + 3):
        dtype = S._dtype(k)
        normals = np.array(S.cone.facet_normals, dtype=dtype).T
        layer = S.layer(k)
        at_c = np.array([c.free for c in layer], dtype=dtype).reshape(-1, S.rank) @ normals
        at_v = np.array([v.free for v in S.A], dtype=dtype) @ normals
        # c - v_i lies in K iff no facet value of c falls below that of v_i
        reducible = (at_c[:, None] >= at_v).all(axis=2).any(axis=1)
        primitive = [c for c, red in zip(layer, reducible.tolist()) if not red]
        if k > S.rank and primitive:
            raise KPrimGuardError(
                f"primitive elements at degree {k} exceed the degree bound: {primitive}")
        found.extend(primitive)
    found = S._images["k_prim"] = tuple(found)
    return found
