import random
from fractions import Fraction

import pytest

from fanobalance.errors import (
    InvalidDimension,
    NonNegativeDefinite,
    NotPseudoEffective,
)
from fanobalance.intersection import DivisorClass, divisor, eval_product
from fanobalance.invariants import (
    a_invariant,
    adjoint_class,
    is_rigid_adjoint,
    zariski_decompose,
)
from oracles import blown_up_plane_model, brute_zariski_positive, gj_determinant


def product(model, x, y):
    return eval_product(model.tensor, [x, y])


class TestZariskiBasics:
    def test_nef_class_is_its_own_positive_part(self):
        model, curves = blown_up_plane_model(1)
        h = divisor([1, 0])
        z = zariski_decompose(model, h, curves)
        assert z.positive == h
        assert z.negative.is_zero()
        assert z.support == []

    def test_exceptional_class_is_purely_negative(self):
        model, curves = blown_up_plane_model(1)
        e = divisor([0, 1])
        z = zariski_decompose(model, e, curves)
        assert z.positive.is_zero()
        assert z.negative == e
        assert z.support == [(e, Fraction(1))]

    def test_mixed_class(self):
        model, curves = blown_up_plane_model(1)
        d = divisor([1, 1])  # H + E; meets E negatively
        z = zariski_decompose(model, d, curves)
        assert z.positive == divisor([1, 0])
        assert z.negative == divisor([0, 1])

    def test_not_pseudo_effective(self):
        model, curves = blown_up_plane_model(1)
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(model, divisor([-1, 0]), curves)

    def test_bad_self_intersection_rejected(self):
        model, _ = blown_up_plane_model(1)
        with pytest.raises(NonNegativeDefinite):
            zariski_decompose(model, divisor([0, 1]), [(divisor([0, 1]), Fraction(-2))])

    def test_duplicate_curves_make_singular_gram(self):
        model, _ = blown_up_plane_model(1)
        e = divisor([0, 1])
        with pytest.raises(NonNegativeDefinite):
            zariski_decompose(model, e, [(e, Fraction(-1)), (e, Fraction(-1))])

    def test_refuses_threefolds(self, by_name):
        rec = by_name["rank2-d62"]
        with pytest.raises(InvalidDimension):
            zariski_decompose(rec, rec.anticanonical, [])


class TestZariskiAxiomsRandomized:
    def test_axioms_and_brute_agreement(self):
        rng = random.Random(60309)
        checked = 0
        while checked < 50:
            n_points = rng.randint(1, 3)
            model, curve_data = blown_up_plane_model(n_points)
            curves = [c for c, _ in curve_data]
            gens = list(model.eff_cone.generators)
            weights = [Fraction(rng.randint(0, 3)) for _ in gens]
            coords = tuple(sum(w * g[i] for w, g in zip(weights, gens))
                           for i in range(model.rank))
            d = DivisorClass(coords)
            z = zariski_decompose(model, d, curve_data)
            # exact additivity
            assert (z.positive + z.negative) == d
            # orthogonality against the support and nefness against all curves
            for curve, coeff in z.support:
                assert product(model, z.positive, curve) == 0
                assert coeff >= 0
            for curve in curves:
                assert product(model, z.positive, curve) >= 0
            # negative definite support Gram: principal minors alternate
            support_curves = [c for c, _ in z.support]
            gram = [[product(model, a, b) for b in support_curves] for a in support_curves]
            for k in range(1, len(support_curves) + 1):
                minor = gj_determinant([row[:k] for row in gram[:k]])
                assert (-1) ** k * minor > 0
            # exhaustive-search oracle agrees on the positive part
            brute = brute_zariski_positive(model, d, curves)
            assert brute.coords == z.positive.coords
            checked += 1


class TestRigidity:
    def test_pullback_adjoint_is_rigid(self):
        model, curves = blown_up_plane_model(1)
        cls = divisor([1, 0])
        assert a_invariant(model, cls) == 3
        adj = adjoint_class(model, cls, Fraction(3))
        assert adj == divisor([0, 1])  # the exceptional class
        assert is_rigid_adjoint(model, cls, curves) is True

    def test_plane_itself_zero_adjoint(self):
        from fanobalance.cones import cone_from_generators
        from fanobalance.intersection import IntersectionTensor
        from fanobalance.invariants import VarietyModel
        from fanobalance.linalg import qvec

        plane = VarietyModel(
            name="plane", dim=2, rank=1,
            canonical=divisor([-3]),
            eff_cone=cone_from_generators([qvec([1])], 1),
            tensor=IntersectionTensor(2, 1, {(0, 0): 1}),
            curve_pairing=((Fraction(1),),),
        )
        assert is_rigid_adjoint(plane, divisor([1]), []) is True

    def test_fiber_adjoint_is_not_rigid(self):
        model, curves = blown_up_plane_model(1)
        cls = divisor([2, -1])  # big and nef; adjoint is the fiber class
        assert a_invariant(model, cls) == 2
        adj = adjoint_class(model, cls, Fraction(2))
        assert adj == divisor([1, -1])
        assert product(model, adj, adj) == 0
        assert is_rigid_adjoint(model, cls, curves) is False

    def test_refuses_threefolds(self, by_name):
        rec = by_name["rank2-d62"]
        with pytest.raises(InvalidDimension):
            is_rigid_adjoint(rec, rec.anticanonical, [])

    def test_rigidity_agrees_with_brute_force(self):
        rng = random.Random(777)
        for _ in range(25):
            n_points = rng.randint(1, 3)
            model, curve_data = blown_up_plane_model(n_points)
            curves = [c for c, _ in curve_data]
            anti = -model.canonical
            gens = list(model.eff_cone.generators)
            weights = [Fraction(rng.randint(0, 2)) for _ in gens]
            extra = tuple(sum(w * g[i] for w, g in zip(weights, gens))
                          for i in range(model.rank))
            cls = anti + DivisorClass(extra)
            a = a_invariant(model, cls)
            adj = adjoint_class(model, cls, a)
            brute_positive = brute_zariski_positive(model, adj, curves)
            assert is_rigid_adjoint(model, cls, curve_data) == brute_positive.is_zero()
