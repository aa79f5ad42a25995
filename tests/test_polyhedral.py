"""Cone geometry, layer enumeration, K_prim, and normalized volume.

The volume, read off the layer counts through the Ehrhart h*-vector, is
checked against hand-pinned values, closed forms for dilated simplices and
squares, and Ehrhart-Macdonald reciprocity with the interior counts.
Layers, shift tables and K_prim are compared with a walk over integer boxes
in Python ints.
"""

import glob
import itertools
import json
import math
import os
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from bbgkz import cli
from bbgkz.abelian import AbelianGroup, NotSpanning
from bbgkz.polyhedral import (GradedSemigroup, KPrimGuardError, NotPointed,
                              build_semigroup, cone_over, k_prim)
from conftest import make_problem


def strictly_contains(cone, w):
    """Interior membership: every facet inequality holds strictly."""
    return all(sum(a * b for a, b in zip(h, w)) > 0 for h in cone.facet_normals)


class TestCone:
    def test_square_cone_facets(self):
        cone = cone_over([(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)])
        # x >= 0, y >= 0, z - x >= 0, z - y >= 0
        assert set(cone.facet_normals) == {(1, 0, 0), (0, 1, 0),
                                          (-1, 0, 1), (0, -1, 1)}
        assert cone.contains((1, 2, 2))
        assert not cone.contains((3, 0, 2))
        assert strictly_contains(cone, (1, 1, 2))
        assert not strictly_contains(cone, (0, 1, 2))

    def test_membership_matches_inequalities(self):
        cone = cone_over([(-1, 1), (1, 1)])
        for a in range(-3, 4):
            for b in range(-3, 4):
                expect = b >= abs(a)
                assert cone.contains((a, b)) == expect
                assert strictly_contains(cone, (a, b)) == (b > abs(a))

    def test_not_pointed(self):
        with pytest.raises(NotPointed):
            cone_over([(1,), (-1,)])
        with pytest.raises(NotPointed):
            cone_over([(1, 0), (-1, 0), (0, 1)])

    def test_not_spanning_rejected(self):
        with pytest.raises(ValueError):
            cone_over([(1, 0), (2, 0)])


# hand-countable layer sizes: square cone has (k+1)^2 points at degree k,
# with (k-1)^2 interior; the Z+Z/2 line doubles each degree point
LAYER_COUNTS = {
    "ex52": lambda k: (k + 1) ** 2,
    "z2": lambda k: 2,
    "ex51": lambda k: 1,
    "p1": lambda k: 2 * k + 1,
}
INTERIOR_COUNTS = {
    "ex52": lambda k: max(0, k - 1) ** 2,
    "z2": lambda k: 2 if k >= 1 else 0,
    "ex51": lambda k: 1 if k >= 1 else 0,
    "p1": lambda k: max(0, 2 * k - 1),
}


class TestLayers:
    @pytest.mark.parametrize("name", sorted(LAYER_COUNTS))
    def test_layer_sizes(self, name):
        S, _, _ = make_problem(name)
        for k in range(5):
            assert len(S.layer(k)) == LAYER_COUNTS[name](k)
            assert len(S.layer(k, "interior")) == INTERIOR_COUNTS[name](k)

    def test_layer_contents_z2(self):
        S, _, _ = make_problem("z2")
        N = S.group
        assert S.layer(0) == (N.element((0,), (0,)), N.element((0,), (1,)))
        assert S.layer(2) == (N.element((2,), (0,)), N.element((2,), (1,)))

    def test_interior_subset_of_full(self, named_problem):
        _, S, _, _ = named_problem
        for k in range(4):
            full = set(S.layer(k))
            for c in S.layer(k, "interior"):
                assert c in full

    def test_closure_under_generators(self, named_problem):
        _, S, _, _ = named_problem
        for k in range(3):
            nxt = set(S.layer(k + 1))
            for c in S.layer(k):
                for v in S.A:
                    assert c + v in nxt

    def test_deterministic_order(self, named_problem):
        _, S, _, _ = named_problem
        for k in range(3):
            layer = S.layer(k)
            assert list(layer) == sorted(layer, key=lambda c: c.sort_key())

    def test_negative_degree_rejected(self):
        S, _, _ = make_problem("ex51")
        with pytest.raises(ValueError):
            S.layer(-1)

    def test_torsion_copies(self):
        S, _, _ = make_problem("square_z2")
        for k in range(4):
            assert len(S.layer(k)) == 2 * (k + 1) ** 2


def reference_free_layer(S, k, region="full"):
    """The box walk the array enumeration replaced, kept as its reference:
    every integer point w of degree k with k * min_i v_i[j] <= w_j <=
    k * max_i v_i[j], tested facet by facet in Python ints, sorted as tuples."""
    inside = S.cone.contains if region == "full" else partial(strictly_contains, S.cone)
    box = [range(k * min(v.free[j] for v in S.A), k * max(v.free[j] for v in S.A) + 1)
           for j in range(S.rank)]
    deg = S.deg.free_covector
    return sorted(w for w in itertools.product(*box)
                  if sum(a * b for a, b in zip(deg, w)) == k and inside(w))


def reference_layer(S, k, region="full"):
    return [S.group.element(w, t.torsion) for w in reference_free_layer(S, k, region)
            for t in S.group.torsion_elements()]


def reference_k_prim(S):
    return [c for k in range(S.rank + 1) for c in reference_layer(S, k)
            if not any(S.cone.contains(tuple(a - b for a, b in zip(c.free, v.free)))
                       for v in S.A)]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GEOMETRY = {name: cli.fixture_path(name) for name in
            ["z2_example", "ex51", "ex52", "p1", "p2", "square_z2", "repeated",
             "g3_torsion"]}
GEOMETRY.update({name: os.path.join(GOLDEN, f"{name}.problem.json")
                 for name in ("p3", "hexagon_z2", "p2_z4")})


def seg5_z3():
    """The segment [-2, 2] with Z/3 labels."""
    N = AbelianGroup(2, (3,))
    return build_semigroup(N, tuple(N.element((a, 1), (a % 3,)) for a in range(-2, 3)))


def far_segment(a):
    """A unimodular segment with coordinates near a and facet normals as
    large.  At a = 2**40 the bound on facet values passes 2**62, so the
    geometry runs on Python ints; at a = 2**62 the coordinates of degree 2
    pass 2**63, where int64 cannot hold them."""
    N = AbelianGroup(2)
    return build_semigroup(N, (N.element((a + 1, a)), N.element((a, a - 1))))


BUILT = {"seg5_z3": seg5_z3,
         "far_segment_40": lambda: far_segment(2 ** 40 + 3),
         "far_segment_62": lambda: far_segment(2 ** 62 + 3)}


def geometry_problem(name):
    if name in BUILT:
        return BUILT[name]()
    spec = cli.load_problem(GEOMETRY[name])
    return build_semigroup(spec.group, spec.vectors)


class TestAgainstBoxWalk:
    @pytest.mark.parametrize("name", sorted(GEOMETRY) + sorted(BUILT))
    def test_layers_shifts_k_prim(self, name):
        """Degrees 0..rank+3 of both regions, including rank-one groups and
        the empty interior layer of degree 0; shifts read through group
        addition."""
        S = geometry_problem(name)
        for region in ("full", "interior"):
            layers = [reference_layer(S, k, region) for k in range(S.rank + 5)]
            assert layers[0] or region == "interior"
            assert not layers[0] or region == "full"
            for k in range(S.rank + 4):
                assert list(S.layer(k, region)) == layers[k]
                assert all(type(x) is int for c in S.layer(k, region) for x in c.free)
                index = {c: q for q, c in enumerate(layers[k + 1])}
                want = [[index[c + v] for v in S.A] for c in layers[k]]
                assert S.shift(k, region).tolist() == want
        assert list(k_prim(S)) == reference_k_prim(S)

    @pytest.mark.parametrize("a", [2 ** 40 + 3, 2 ** 62 + 3])
    def test_object_dtype_past_int64(self, a):
        S = far_segment(a)
        assert S.free_layer(3).dtype == object
        assert S.free_layer(3).tolist() == [[3 * a + i, 3 * a - 3 + i] for i in range(4)]
        # small coordinates stay on int64
        assert geometry_problem("p3").free_layer(3).dtype == np.int64


class TestKPrim:
    def test_z2(self):
        S, _, _ = make_problem("z2")
        N = S.group
        assert set(k_prim(S)) == {N.element((0,), (0,)), N.element((0,), (1,))}

    @pytest.mark.parametrize("name", ["ex51", "ex52", "p1", "p2", "repeated"])
    def test_origin_only(self, name):
        S, _, _ = make_problem(name)
        assert k_prim(S) == (S.group.zero(),)

    def test_sublattice_example(self):
        # (0,1) and (3,1) generate an index-3 sublattice; the preimage cone
        # keeps all Z^2 points, so degree-1 points 1 and 2 are primitive
        N = AbelianGroup(2)
        A = (N.element((0, 1)), N.element((3, 1)))
        S = GradedSemigroup(N, A, N.dual_element((0, 1)))
        assert set(k_prim(S)) == {N.element((0, 0)), N.element((1, 1)),
                                  N.element((2, 1))}

    def test_computed_once_per_semigroup(self):
        S, _, _ = make_problem("p2")
        assert k_prim(S) is k_prim(S)

    def test_guard_raises_on_high_degree_primitives(self):
        S, _, _ = make_problem("ex51")

        class Bogus(GradedSemigroup):
            def layer(self, k, region="full"):
                got = super().layer(k, region)
                if k == self.rank + 1 and region == "full":
                    return got + (self.group.element((-10,)),)
                return got

        B = Bogus(S.group, S.A, S.deg)
        with pytest.raises(KPrimGuardError):
            k_prim(B)


VOLUMES = {
    "z2": 1, "ex51": 1, "ex52": 2, "p1": 2, "p2": 3,
    "square_z2": 2, "repeated": 1, "g3": 1,
}


BENCH_PROBLEMS = sorted(p for p in glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "problems",
    "*.json")) if not p.endswith(".expected.json"))


def h_transform(counts, r):
    """sum_j (-1)^j C(r, j) counts[k - j] for k = 0..r."""
    return tuple(sum((-1) ** j * math.comb(r, j) * counts[k - j] for j in range(k + 1))
                 for k in range(r + 1))


def lattice_polytope(points):
    """The semigroup over the lattice points `points`, lifted to height one."""
    N = AbelianGroup(len(points[0]) + 1)
    return build_semigroup(N, tuple(N.element((*p, 1)) for p in points))


class TestVolume:
    def test_known_volumes(self, named_problem):
        name, S, _, _ = named_problem
        assert S.volume == VOLUMES[name]

    def test_degenerate(self, tmp_path):
        """A hull of dimension below rank - 1 does not span: NotSpanning,
        exit 2 through the CLI."""
        N = AbelianGroup(3)
        A = (N.element((0, 0, 1)), N.element((1, 0, 1)))
        with pytest.raises(NotSpanning):
            build_semigroup(N, A)
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "schema_version": 1, "group": {"rank": 3},
            "vectors": [{"free": list(v.free)} for v in A], "beta": ["0", "0", "0"],
            "x_policy": {"mode": "explicit", "values": ["1", "1"]}}), encoding="utf-8")
        report, code = cli.run(str(path))
        assert code == 2 and "NotSpanning" in report["error"]

    @pytest.mark.parametrize("d,t", [(1, 1), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_dilated_simplex(self, d, t):
        """All lattice points of t * Delta_d: normalized volume t^d."""
        pts = [p for p in itertools.product(range(t + 1), repeat=d) if sum(p) <= t]
        assert lattice_polytope(pts).volume == t ** d

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_dilated_square(self, t):
        """All lattice points of t * [0, 1]^2: normalized volume 2 t^2."""
        pts = list(itertools.product(range(t + 1), repeat=2))
        assert lattice_polytope(pts).volume == 2 * t * t

    @pytest.mark.parametrize("path", BENCH_PROBLEMS, ids=os.path.basename)
    def test_reciprocity(self, path):
        """Ehrhart-Macdonald: the h*-transform of the interior counts is h*
        reversed; h* is nonnegative with h*_0 = |N_tors| and h*_r = 0."""
        spec = cli.load_problem(path)
        S = build_semigroup(spec.group, spec.vectors)
        r = S.rank
        interior = h_transform([len(S.layer(k, "interior")) for k in range(r + 1)], r)
        assert interior == S.h_star[::-1]
        assert S.h_star[0] == S.group.torsion_order and S.h_star[r] == 0
        assert min(S.h_star) >= 0

    def test_bench_problems_listed(self):
        assert len(BENCH_PROBLEMS) == 14

    def test_ehrhart_fit(self, named_problem):
        """The layer counts recover the hand-pinned volume.

        For the free quotient, |layer k| is a degree (r-1) polynomial in k
        whose leading coefficient is vol / (r-1)!.
        """
        name, S, _, _ = named_problem
        r = S.rank
        d = r - 1
        tors = S.group.torsion_order
        counts = [Fraction(len(S.layer(k)), tors) for k in range(d + 1)]
        # finite differences: d-th difference equals d! * leading coefficient
        diffs = list(counts)
        for _ in range(d):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert diffs[0] == VOLUMES[name]
