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
from bbgkz.polyhedral import GradedSemigroup, NotPointed, build_semigroup, cone_over, k_prim
from conftest import degree_of, make_problem, smith_normal_form


def contains(cone, w):
    """Membership: every facet inequality holds."""
    return all(sum(a * b for a, b in zip(h, w)) >= 0 for h in cone.facet_normals)


def strictly_contains(cone, w):
    """Interior membership: every facet inequality holds strictly."""
    return all(sum(a * b for a, b in zip(h, w)) > 0 for h in cone.facet_normals)


class TestCone:
    def test_square_cone_facets(self):
        cone = cone_over([(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)])
        # x >= 0, y >= 0, z - x >= 0, z - y >= 0
        assert set(cone.facet_normals) == {(1, 0, 0), (0, 1, 0),
                                          (-1, 0, 1), (0, -1, 1)}
        assert contains(cone, (1, 2, 2))
        assert not contains(cone, (3, 0, 2))
        assert strictly_contains(cone, (1, 1, 2))
        assert not strictly_contains(cone, (0, 1, 2))

    def test_membership_matches_inequalities(self):
        cone = cone_over([(-1, 1), (1, 1)])
        for a in range(-3, 4):
            for b in range(-3, 4):
                expect = b >= abs(a)
                assert contains(cone, (a, b)) == expect
                assert strictly_contains(cone, (a, b)) == (b > abs(a))

    def test_not_pointed(self):
        with pytest.raises(NotPointed):
            cone_over([(1,), (-1,)])
        with pytest.raises(NotPointed):
            cone_over([(1, 0), (-1, 0), (0, 1)])

    def test_not_spanning_rejected(self):
        with pytest.raises(ValueError):
            cone_over([(1, 0), (2, 0)])


FIXTURES = ("z2_example", "ex51", "ex52", "p1", "p2", "square_z2", "repeated", "g3_torsion")
NORMAL_PROBLEMS = {**{name: cli.fixture_path(name) for name in FIXTURES},
                   **{os.path.basename(path).removesuffix(".problem.json"): path for path in
                      sorted(glob.glob(os.path.join(os.path.dirname(__file__), "golden",
                                                    "*.problem.json")))}}


def problem_generators(name):
    """The free parts of a problem file's vectors."""
    return [v.free for v in cli.load_problem(NORMAL_PROBLEMS[name]).vectors]


def seeded_unimodular(r, seed):
    """A unimodular r x r integer matrix: U of the Smith normal form of a
    seeded random integer matrix."""
    rng = np.random.default_rng(seed)
    U, _, _ = smith_normal_form(rng.integers(-3, 4, size=(r, r)).tolist())
    assert round(abs(np.linalg.det(np.array(U, dtype=float)))) == 1
    return U


def reference_normals(gens):
    """The facet normals found by brute force: the integer kernel of each
    r - 1 distinct nonzero generators of rank r - 1, the last column of V in
    their Smith normal form, made primitive and signed to be >= 0 on every
    generator where it can be."""
    gens = sorted({tuple(g) for g in gens if any(g)})
    r = len(gens[0])
    normals = set()
    for sub in itertools.combinations(gens, r - 1):
        _, D, V = smith_normal_form([list(g) for g in sub] or [[0] * r])
        if sum(1 for i in range(min(len(D), r)) if D[i][i]) != r - 1:
            continue
        g = math.gcd(*(V[i][r - 1] for i in range(r)))
        h = tuple(V[i][r - 1] // g for i in range(r))
        values = [sum(a * b for a, b in zip(h, x)) for x in gens]
        if min(values) >= 0 < max(values):
            normals.add(h)
        elif max(values) <= 0 > min(values):
            normals.add(tuple(-x for x in h))
    return normals


class TestFacetNormals:
    """The normals that cone_over reads off the kernels of r - 1 generators,
    on the fixtures and the golden problem files."""

    @pytest.mark.parametrize("name", sorted(NORMAL_PROBLEMS))
    def test_permutation_invariant(self, name):
        gens = problem_generators(name)
        normals = set(cone_over(gens).facet_normals)
        rng = np.random.default_rng(len(gens))
        for _ in range(2):
            assert set(cone_over([gens[i] for i in rng.permutation(len(gens))]).facet_normals) \
                == normals

    @pytest.mark.parametrize("name", sorted(NORMAL_PROBLEMS))
    def test_unimodular_change_of_basis(self, name):
        """Under g -> U g the normals go to h U^-1: the new normals times U
        are the old ones."""
        gens = problem_generators(name)
        r = len(gens[0])
        U = seeded_unimodular(r, r + len(gens))
        moved = [tuple(sum(U[i][j] * g[j] for j in range(r)) for i in range(r)) for g in gens]
        back = {tuple(sum(h[i] * U[i][j] for i in range(r)) for j in range(r))
                for h in cone_over(moved).facet_normals}
        assert back == set(cone_over(gens).facet_normals)

    @staticmethod
    def assert_primitive_supporting_facets(gens):
        """Each normal is primitive, >= 0 on every generator, and 0 on r - 1
        independent ones; and every facet is found: the normals are the
        brute-force reference's."""
        r = len(gens[0])
        normals = cone_over(gens).facet_normals
        assert normals
        assert set(normals) == reference_normals(gens)
        for h in normals:
            assert math.gcd(*h) == 1
            values = [sum(a * b for a, b in zip(h, g)) for g in gens]
            assert min(values) >= 0
            on = [g for g, v in zip(gens, values) if v == 0]
            assert (np.linalg.matrix_rank(np.array(on, dtype=float)) if on else 0) == r - 1

    @pytest.mark.parametrize("name", sorted(NORMAL_PROBLEMS))
    def test_primitive_supporting_facets(self, name):
        self.assert_primitive_supporting_facets(problem_generators(name))

    @pytest.mark.parametrize("seed", range(4))
    def test_collinear_generators(self, seed):
        """Degree-one points of Z^4 with three on a line, whose kernel is two
        dimensional: no candidate normal comes from them."""
        rng = np.random.default_rng(seed)
        for _ in range(10):
            pts = {tuple(p) + (1,) for p in rng.integers(-2, 3, size=(6, 3)).tolist()}
            a, b = sorted(pts)[:2]
            pts.add(tuple(2 * y - x for x, y in zip(a[:3], b[:3])) + (1,))
            gens = sorted(pts)
            if np.linalg.matrix_rank(np.array(gens, dtype=float)) == 4:
                self.assert_primitive_supporting_facets(gens)


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
            assert list(layer) == sorted(layer, key=lambda c: (c.free, c.torsion))

    def test_negative_degree_rejected(self):
        S, _, _ = make_problem("ex51")
        with pytest.raises(ValueError):
            S.layer(-1)

    @pytest.mark.parametrize("deg, error", [((1,), "wrong length"), ((0, 1, 0), "wrong length"),
                                            ((1, 1), "degree 1")])
    def test_degree_covector_checked(self, deg, error):
        """The degree covector has one entry per free coordinate, which the
        degree-1 test alone would not see of (0, 1, 0), and gives every
        generator degree 1."""
        N = AbelianGroup(2)
        with pytest.raises(ValueError, match=error):
            GradedSemigroup(N, (N.element((0, 1)), N.element((3, 1))), deg)

    def test_torsion_copies(self):
        S, _, _ = make_problem("square_z2")
        for k in range(4):
            assert len(S.layer(k)) == 2 * (k + 1) ** 2


def reference_free_layer(S, k, region="full"):
    """The box walk the column walk replaced, kept as its reference:
    every integer point w of degree k with k * min_i v_i[j] <= w_j <=
    k * max_i v_i[j], tested facet by facet in Python ints, sorted as tuples."""
    inside = partial(contains if region == "full" else strictly_contains, S.cone)
    box = [range(k * min(v.free[j] for v in S.A), k * max(v.free[j] for v in S.A) + 1)
           for j in range(S.rank)]
    deg = S.deg
    return sorted(w for w in itertools.product(*box)
                  if sum(a * b for a, b in zip(deg, w)) == k and inside(w))


def reference_layer(S, k, region="full"):
    return [S.group.element(w, t.torsion) for w in reference_free_layer(S, k, region)
            for t in S.group.torsion_elements()]


def reference_k_prim(S):
    return [c for k in range(S.rank + 1) for c in reference_layer(S, k)
            if not any(contains(S.cone, tuple(a - b for a, b in zip(c.free, v.free)))
                       for v in S.A)]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GEOMETRY = {name: cli.fixture_path(name) for name in
            ["z2_example", "ex51", "ex52", "p1", "p2", "square_z2", "repeated",
             "g3_torsion"]}
GEOMETRY.update({name: os.path.join(GOLDEN, f"{name}.problem.json")
                 for name in ("p3", "hexagon_z2", "p2_z4")})
BENCH_PROBLEMS = sorted(p for p in glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "problems",
    "*.json")) if not p.endswith(".expected.json"))
# every problem file: the fixtures, the golden problems and the benchmark's
PROBLEM_FILES = ([cli.fixture_path(name) for name in FIXTURES]
                 + sorted(glob.glob(os.path.join(GOLDEN, "*.problem.json"))) + BENCH_PROBLEMS)


def problem_id(path):
    """The test id of a problem file: its directory and its name."""
    return f"{os.path.basename(os.path.dirname(path))}-{os.path.basename(path)}"


def seg5_z3():
    """The segment [-2, 2] with Z/3 labels."""
    N = AbelianGroup(2, (3,))
    return build_semigroup(N, tuple(N.element((a, 1), (a % 3,)) for a in range(-2, 3)))


def far_segment(a):
    """A unimodular segment with coordinates near a and facet normals as
    large.  At a = 2**40 products of facet values pass 2**62; at a = 2**62
    the coordinates of degree 2 pass 2**63, where int64 cannot hold them."""
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
                want = tuple(tuple(index[c + v] for v in S.A) for c in layers[k])
                assert S.shift(k, region) == want
        assert list(k_prim(S)) == reference_k_prim(S)

    @pytest.mark.parametrize("a", [2 ** 40 + 3, 2 ** 62 + 3])
    def test_exact_past_int64(self, a):
        assert far_segment(a).free_layer(3) == tuple((3 * a + i, 3 * a - 3 + i) for i in range(4))


class TestKPrim:
    def test_z2(self):
        S, _, _ = make_problem("z2")
        N = S.group
        assert set(k_prim(S)) == {N.element((0,), (0,)), N.element((0,), (1,))}

    @pytest.mark.parametrize("name", ["ex51", "ex52", "p1", "p2", "repeated"])
    def test_origin_only(self, name):
        S, _, _ = make_problem(name)
        assert k_prim(S) == (S.group.element((0,) * S.rank),)

    def test_sublattice_example(self):
        # (0,1) and (3,1) generate an index-3 sublattice; the preimage cone
        # keeps all Z^2 points, so degree-1 points 1 and 2 are primitive
        N = AbelianGroup(2)
        A = (N.element((0, 1)), N.element((3, 1)))
        S = GradedSemigroup(N, A, (0, 1))
        assert set(k_prim(S)) == {N.element((0, 0)), N.element((1, 1)),
                                  N.element((2, 1))}

    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=problem_id)
    def test_no_primitive_from_degree_rank(self, path):
        """Caratheodory bounds the degree of a primitive element by rank - 1,
        and k_prim scans no further: on a fresh semigroup it builds no layer
        above rank - 1, each element it returns has degree at most rank - 1,
        it returns every primitive element of degrees 0..rank + 2 in layer
        order, and degrees rank..rank + 2 hold none."""
        spec = cli.load_problem(path)
        S = build_semigroup(spec.group, spec.vectors)
        r = S.rank
        found = k_prim(S)
        assert max(k for k, _ in S._free) <= r - 1 and max(k for k, _ in S._layers) <= r - 1
        assert all(degree_of(S.deg, c) <= r - 1 for c in found)
        primitive = [(k, c) for k in range(r + 3) for q, c in enumerate(S.layer(k))
                     if not k or q not in set(itertools.chain.from_iterable(S.shift(k - 1)))]
        assert [c for k, c in primitive if k >= r] == []
        assert list(found) == [c for _, c in primitive]


VOLUMES = {
    "z2": 1, "ex51": 1, "ex52": 2, "p1": 2, "p2": 3,
    "square_z2": 2, "repeated": 1, "g3": 1,
}



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
