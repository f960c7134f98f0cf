import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanobalance.cli import main as cli_main
from fanobalance.cones import (
    MAX_SUPPORTED_RANK,
    Cone,
    cone_from_facets,
    cone_from_generators,
    contains,
    minimal_supported_face,
    nonneg_combination,
    orthant,
    span_rank,
    zero_cone,
)
from fanobalance.errors import DimensionMismatch, NotMember, ParseError
from fanobalance.linalg import qvec

from oracles import caratheodory_member, fm_member, fourier_motzkin_facets


def v(*coords):
    return qvec(coords)


class TestDualization:
    def test_orthant_is_self_dual(self):
        cone = cone_from_generators([v(1, 0), v(0, 1)], 2)
        assert set(cone.facet_normals) == {v(1, 0), v(0, 1)}
        assert set(cone.generators) == {v(1, 0), v(0, 1)}
        assert cone.lineality_rank == 0

    def test_skew_cone_facets_by_hand(self):
        cone = cone_from_generators([v(1, 0), v(1, 2)], 2)
        assert set(cone.facet_normals) == {v(0, 1), v(2, -1)}
        # each normal is nonnegative on both rays and vanishes on exactly one
        for lam in cone.facet_normals:
            values = [sum(a * b for a, b in zip(lam, ray)) for ray in [v(1, 0), v(1, 2)]]
            assert all(x >= 0 for x in values)
            assert values.count(0) == 1

    def test_half_plane_has_lineality(self):
        cone = cone_from_generators([v(1, 0), v(-1, 0), v(0, 1)], 2)
        assert cone.lineality_rank == 1
        assert cone.facet_normals == (v(0, 1),)

    def test_no_facets_gives_full_plane(self):
        cone = cone_from_facets([], 2)
        assert cone.lineality_rank == 2
        assert contains(cone, v(-7, 13))

    def test_wedge_generators_by_hand(self):
        cone = cone_from_facets([v(1, 1), v(1, -1)], 2)
        assert set(cone.generators) == {v(1, 1), v(1, -1)}
        assert contains(cone, v(1, 0))
        assert not contains(cone, v(0, 1))

    def test_idempotent_under_duplicates_and_scaling(self):
        base = cone_from_generators([v(1, 0), v(1, 2)], 2)
        noisy = cone_from_generators([v(1, 0), v(2, 0), v(1, 2), qvec(["1/2", "1"])], 2)
        assert base == noisy

    def test_zero_cone(self):
        cone = zero_cone(3)
        assert cone.generators == ()
        assert contains(cone, v(0, 0, 0))
        assert not contains(cone, v(1, 0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cone_from_generators([v(1, 0, 0)], 2)

    def test_rank_outside_supported_range(self):
        with pytest.raises(DimensionMismatch):
            cone_from_facets([], MAX_SUPPORTED_RANK + 1)

    def test_facets_only_cone_reconstructs_generators(self):
        cone = cone_from_facets([v(1, 0), v(0, 1)], 2)
        assert set(cone.generators) == {v(1, 0), v(0, 1)}

    def test_json_roundtrip_and_partial_json(self):
        cone = cone_from_generators([v(1, 0), v(1, 2)], 2)
        data = cone.to_json()
        assert Cone.from_json(data) == cone
        assert Cone.from_json({"ambient_rank": 2, "generators": data["generators"]}) == cone
        assert Cone.from_json({"ambient_rank": 2, "facets": data["facets"]}) == cone
        with pytest.raises(ParseError):
            Cone.from_json({"generators": data["generators"]})
        with pytest.raises(ParseError):
            Cone.from_json({"ambient_rank": 2})


class TestMembership:
    def test_orthant_membership(self):
        cone = orthant(2)
        assert contains(cone, v(1, 1))
        assert not contains(cone, v(-1, 0))

    def test_membership_needs_span(self):
        ray = cone_from_generators([v(1, 1)], 2)
        assert contains(ray, v(2, 2))
        assert not contains(ray, v(1, 0))

    def test_convex_combination_member(self):
        cone = cone_from_generators([v(1, 0), v(1, 2)], 2)
        assert contains(cone, v(1, 1))  # (1,1) = (1,0)/2 + (1,2)/2

    @given(num=st.integers(1, 60), den=st.integers(1, 60))
    def test_scaling_invariance(self, num, den):
        cone = cone_from_generators([v(1, 0), v(1, 2)], 2)
        c = Fraction(num, den)
        for probe in [v(1, 1), v(-1, 3), v(2, 4), v(1, -1)]:
            scaled = qvec([c * x for x in probe])
            assert contains(cone, probe) == contains(cone, scaled)


class TestMinimalSupportedFace:
    def test_interior_point_codim_zero(self):
        face, codim = minimal_supported_face(orthant(2), v(1, 1))
        assert codim == 0
        assert face == orthant(2)

    def test_facet_point_codim_one(self):
        face, codim = minimal_supported_face(orthant(2), v(1, 0))
        assert codim == 1
        assert face.generators == (v(1, 0),)

    def test_origin_codim_full(self):
        face, codim = minimal_supported_face(orthant(2), v(0, 0))
        assert codim == 2
        assert face.generators == ()

    def test_not_member(self):
        with pytest.raises(NotMember):
            minimal_supported_face(orthant(2), v(-1, 0))

    def test_face_monotone_and_scale_stable(self):
        rng = random.Random(7)
        for _ in range(30):
            rank = rng.randint(2, 4)
            rays = [tuple(Fraction(rng.randint(1, 3)) if i == 0 else Fraction(rng.randint(-3, 3))
                          for i in range(rank)) for _ in range(rng.randint(2, 6))]
            cone = cone_from_generators(rays, rank)
            if not cone.generators:
                continue
            weights = [Fraction(rng.randint(0, 3)) for _ in cone.generators]
            if all(w == 0 for w in weights):
                weights[0] = Fraction(1)
            point = tuple(sum(w * g[i] for w, g in zip(weights, cone.generators))
                          for i in range(rank))
            face, codim = minimal_supported_face(cone, point)
            for g in face.generators:
                assert contains(cone, g)
            scaled = tuple(Fraction(5, 3) * x for x in point)
            face2, codim2 = minimal_supported_face(cone, scaled)
            assert codim == codim2
            assert face == face2

    def test_codim_zero_iff_interior(self):
        cone = cone_from_generators([v(1, 0), v(1, 2)], 2)
        _, codim = minimal_supported_face(cone, v(2, 2))
        assert codim == 0  # strictly positive on both facets
        from fanobalance.linalg import dot
        assert all(dot(lam, v(2, 2)) > 0 for lam in cone.facet_normals)


class TestSpanRank:
    def test_examples(self):
        assert span_rank([v(1, 0), v(0, 1)]) == 2
        assert span_rank([v(1, 2), v(2, 4)]) == 1
        assert span_rank([]) == 0

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span_rank([v(1, 0), v(1, 0, 0)])


class TestNonnegCombination:
    def test_examples(self):
        assert nonneg_combination(v(1, 1), [v(1, 0), v(0, 1)]) == [1, 1]
        assert nonneg_combination(v(-1, 0), [v(1, 0), v(0, 1)]) is None
        assert nonneg_combination(v(3, 2), [v(1, 0), v(1, 2)]) == [2, 1]

    def test_empty_rays(self):
        assert nonneg_combination(v(0, 0), []) == []
        assert nonneg_combination(v(1, 0), []) is None

    def test_certificate_reconstructs_target(self):
        rays = [v(2, 1, 0), v(0, 1, 1), v(1, 0, 3)]
        target = v(3, 2, 4)
        coeffs = nonneg_combination(target, rays)
        assert coeffs is not None
        rebuilt = tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(3))
        assert rebuilt == target


class TestOracleAgreement:
    def test_membership_oracles_agree(self):
        rng = random.Random(20240517)
        for _ in range(60):
            rank = rng.randint(2, 4)
            rays = [tuple(Fraction(rng.randint(1, 4)) if i == 0 else Fraction(rng.randint(-4, 4))
                          for i in range(rank)) for _ in range(rng.randint(1, 6))]
            cone = cone_from_generators(rays, rank)
            for _ in range(12):
                probe = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                              for _ in range(rank))
                facet_answer = contains(cone, probe)
                simplex_answer = nonneg_combination(probe, list(rays)) is not None
                brute_answer = caratheodory_member(probe, list(rays))
                assert facet_answer == simplex_answer == brute_answer

    def test_fourier_motzkin_cross_check(self):
        rng = random.Random(99)
        for _ in range(25):
            rank = rng.randint(2, 3)
            rays = [tuple(Fraction(rng.randint(1, 3)) if i == 0 else Fraction(rng.randint(-3, 3))
                          for i in range(rank)) for _ in range(rng.randint(1, 5))]
            cone = cone_from_generators(rays, rank)
            fm_rows = fourier_motzkin_facets(list(rays), rank)
            for g in rays:
                assert fm_member(g, fm_rows, list(rays))
            for _ in range(20):
                probe = tuple(Fraction(rng.randint(-5, 5)) for _ in range(rank))
                assert contains(cone, probe) == fm_member(probe, fm_rows, list(rays))

    def test_roundtrip_membership_agreement(self):
        from oracles import random_full_dim_pointed_cone

        rng = random.Random(4242)
        for _ in range(40):
            rank = rng.randint(2, 5)
            first, _rays = random_full_dim_pointed_cone(rng, rank, rng.randint(0, 8 - rank))
            second = cone_from_facets(list(first.facet_normals), rank)
            assert first.describes_same_set(second)
            for _ in range(25):
                probe = tuple(Fraction(rng.randint(-5, 5)) for _ in range(rank))
                assert contains(first, probe) == contains(second, probe)

    def test_facet_roundtrip_describes_same_set(self):
        rng = random.Random(133)
        for _ in range(20):
            rank = rng.randint(2, 4)
            normals = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(rank))
                       for _ in range(rng.randint(1, 5))]
            cone = cone_from_facets(normals, rank)
            rebuilt = cone_from_generators(list(cone.generators), rank)
            assert cone.describes_same_set(rebuilt)

    def test_facet_cache_compute_once_under_threads(self):
        import threading

        cone = cone_from_generators([v(1, 0, 0), v(1, 2, 0), v(0, 1, 3)], 3)
        results = []

        def reader():
            results.append(cone.facet_normals)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(r is results[0] for r in results)  # one cached tuple, shared

    def test_degenerate_cone_keeps_span_in_membership(self):
        # facet data alone cannot see the span; contains() must
        ray = cone_from_generators([v(1, 1)], 2)
        assert len(ray.facet_normals) == 1
        assert contains(ray, v(2, 2))
        assert not contains(ray, v(1, 0))
        widened = cone_from_facets(list(ray.facet_normals), 2)
        assert contains(widened, v(1, 0))  # facet-only data widens past the span


class TestGoldenCones:
    """Cone outputs pinned byte for byte: generators, facets, lineality and span."""

    GOLDEN = json.loads((Path(__file__).parent / "golden_cones.json").read_text())

    def test_skewed_nonpointed_representatives(self):
        # (1,-4,0) is the representative double description picks for the
        # input ray (1,-1,3) modulo the line through (0,1,1)
        cone = cone_from_generators([v(1, 2, 0), v(1, -1, 3), v(0, 1, 1), v(0, -1, -1)], 3)
        assert cone.generators == (v(0, -1, -1), v(0, 1, 1), v(1, -4, 0), v(1, 2, 0))
        assert cone.facet_normals == (v(2, -1, 1), v(4, 1, -1))

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_cli_dualize_is_pinned(self, name, tmp_path, capsys):
        case = self.GOLDEN[name]
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(case["input"]))
        assert cli_main(["cone", str(path), "--op", "dualize"]) == 0
        assert capsys.readouterr().out == json.dumps(case["output"], indent=2, sort_keys=True) + "\n"
        cone = Cone.from_json(case["input"])
        assert (cone.lineality_rank, cone.dim()) == (case["lineality_rank"], case["dim"])

    def test_moment_curve_facet_count(self):
        # the cyclic polytope of dimension 5 with 11 vertices has 2 * C(8, 2) facets
        cone = Cone.from_json(self.GOLDEN["moment_curve_rank6"]["input"])
        assert len(cone.facet_normals) == 2 * comb(8, 2)
        assert max(abs(x) for g in cone.generators for x in g) == 15 ** 5
        assert cone_from_facets(list(cone.facet_normals), 6) == cone
