"""Birational invariants on a polyhedral divisor-lattice model.

`a_invariant` is the least t with t*L + K pseudo-effective; once the facet
description of the pseudo-effective cone exists it is a max of facet
ratios, computed exactly.  `b_invariant` is the codimension of the minimal
supported face containing the adjoint class.  Surface-side helpers cover
the two Iitaka-dimension cases, the vertical-divisor rank formula, and
Zariski decomposition with the rigidity test built on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .cones import Cone, active_facet_indices, contains, minimal_supported_face
from .errors import (
    EmptyCone,
    InvalidDimension,
    LowConfidenceWarning,
    NonNegativeDefinite,
    NonpositiveDegree,
    NotBig,
    NotPseudoEffective,
    NotUniruled,
    RankMismatch,
)
from .intersection import DivisorClass, IntersectionTensor, eval_product
from .linalg import (common_ratio, determinant, dot, format_fraction, solve_square, span_rank,
                     to_fraction)

LARGER_CONE_FLAG = "larger_cone_possible"


@dataclass
class VarietyModel:
    """A divisor lattice with intersection form, canonical class, and cones.

    This is the unit every invariant computes on.  The effective cone may be
    flagged (`larger_cone_possible`) when the stored generators are only
    known to span a subcone of the true pseudo-effective cone; computations
    for divisors other than a positive multiple of the anticanonical class
    then emit a LowConfidenceWarning.
    """

    name: str
    dim: int
    rank: int
    canonical: DivisorClass
    eff_cone: Cone
    tensor: IntersectionTensor
    curve_pairing: tuple[tuple[Fraction, ...], ...]
    nef_cone: Cone | None = None
    annotations: list = field(default_factory=list)
    flags: tuple[str, ...] = ()

    @property
    def anticanonical(self) -> DivisorClass:
        return -self.canonical

    def degree(self) -> Fraction:
        """Top self-intersection of the anticanonical class."""
        return eval_product(self.tensor, [self.anticanonical] * self.dim)


@dataclass
class InvariantReport:
    """Computed (a, b) with its certificate trail."""

    a: Fraction
    b: int
    adjoint: DivisorClass
    witness_facets: list[int]

    def to_json(self) -> dict:
        return {
            "a": format_fraction(self.a),
            "b": self.b,
            "adjoint": self.adjoint.to_json(),
            "witness_facets": list(self.witness_facets),
        }


def _warn_if_low_confidence(model: VarietyModel, cls: DivisorClass) -> None:
    if LARGER_CONE_FLAG not in model.flags:
        return
    scale = common_ratio(cls.coords, model.anticanonical.coords)
    if scale is None or scale <= 0:
        warnings.warn(
            f"{model.name}: effective cone possibly larger than stored; "
            "values for this divisor are computed on the stored subcone",
            LowConfidenceWarning,
            stacklevel=3,
        )


def a_invariant(model: VarietyModel, cls: DivisorClass) -> Fraction:
    """Least t with t*[L] + [K] in the effective cone, for big L.

    Equals the maximum of -lambda(K)/lambda(L) over the facet normals; the
    result may be <= 0 on non-uniruled models and is returned as-is.
    """
    if cls.rank != model.rank:
        raise RankMismatch(f"divisor rank {cls.rank} against model rank {model.rank}")
    facets = model.eff_cone.facet_normals
    if not facets:
        raise EmptyCone(f"{model.name}: effective cone has no facet description")
    _warn_if_low_confidence(model, cls)
    k = model.canonical.coords
    best: Fraction | None = None
    for lam in facets:
        value_l = dot(lam, cls.coords)
        if value_l <= 0:
            raise NotBig(f"{model.name}: divisor is not in the interior of the effective cone")
        ratio = -dot(lam, k) / value_l
        if best is None or ratio > best:
            best = ratio
    return best


def adjoint_class(model: VarietyModel, cls: DivisorClass, a: Fraction) -> DivisorClass:
    return a * cls + model.canonical


def b_invariant(model: VarietyModel, cls: DivisorClass) -> int:
    """Codimension of the minimal supported face containing a*L + K.

    Undefined (NotUniruled) when the threshold invariant is not positive;
    the face formula only makes sense for a non-pseudo-effective canonical
    class.
    """
    a = a_invariant(model, cls)
    if a <= 0:
        raise NotUniruled(f"{model.name}: threshold invariant {a} is not positive")
    adjoint = adjoint_class(model, cls, a)
    _face, codim = minimal_supported_face(model.eff_cone, adjoint.coords)
    return codim


def compute_report(model: VarietyModel, cls: DivisorClass) -> InvariantReport:
    a = a_invariant(model, cls)
    if a <= 0:
        raise NotUniruled(f"{model.name}: threshold invariant {a} is not positive")
    adjoint = adjoint_class(model, cls, a)
    _face, codim = minimal_supported_face(model.eff_cone, adjoint.coords)
    return InvariantReport(
        a=a,
        b=codim,
        adjoint=adjoint,
        witness_facets=active_facet_indices(model.eff_cone, adjoint.coords),
    )


CURVE_B_CONSTANT = 1  # rank-1 divisor lattice on a curve


def curve_a(l_degree) -> Fraction:
    """Threshold invariant of a rational curve: 2 / (L-degree)."""
    deg = to_fraction(l_degree)
    if deg <= 0:
        raise NonpositiveDegree(f"curve degree {deg} must be positive")
    return 2 / deg


def surface_invariants_kappa1(l_dot_fiber) -> tuple[Fraction, int]:
    """(a, b) for a uniruled surface whose adjoint has Iitaka dimension 1:
    a = 2 / (L . F) against a general fiber F of the fibration, b = 1."""
    deg = to_fraction(l_dot_fiber)
    if deg <= 0:
        raise NonpositiveDegree(f"fiber degree {deg} must be positive")
    return 2 / deg, 1


def surface_invariants_kappa0(k_dot_curve, l_dot_curve, rho_minimal: int) -> tuple[Fraction, int]:
    """(a, b) for a uniruled surface whose adjoint has Iitaka dimension 0:
    ratios against any nef curve on the minimal model, b = its Picard rank."""
    lc = to_fraction(l_dot_curve)
    if lc <= 0:
        raise NonpositiveDegree(f"curve degree {lc} must be positive")
    return to_fraction(k_dot_curve) / lc, rho_minimal


def b_via_vertical_divisors(model: VarietyModel,
                            vertical: list[DivisorClass],
                            contracted: list[DivisorClass]) -> int:
    """Rank formula for b: rho minus the rank of the sublattice generated by
    fibration-vertical divisors and divisors contracted on the way to the
    canonical model.  Valid when the adjoint has Iitaka dimension >= 1."""
    vectors = []
    for cls in list(vertical) + list(contracted):
        if cls.rank != model.rank:
            raise RankMismatch(f"divisor rank {cls.rank} against model rank {model.rank}")
        vectors.append(cls.coords)
    return model.rank - span_rank(vectors)


@dataclass
class ZariskiDecomposition:
    positive: DivisorClass
    negative: DivisorClass
    support: list[tuple[DivisorClass, Fraction]]


def _curve_product(tensor: IntersectionTensor, a: DivisorClass, b: DivisorClass) -> Fraction:
    return eval_product(tensor, [a, b])


def zariski_decompose(model: VarietyModel, d: DivisorClass,
                      negative_curves: list[tuple[DivisorClass, Fraction]]) -> ZariskiDecomposition:
    """Decompose a pseudo-effective surface class as D = P + N.

    Standard iterative scheme: repeatedly add every supplied curve meeting
    the current positive part negatively, then re-solve N . C_i = D . C_i on
    the support.  The final positive part is nef against all supplied
    curves, orthogonal to the support, and the support Gram matrix must be
    negative definite.
    """
    if model.dim != 2:
        raise InvalidDimension("Zariski decomposition is a surface operation")
    if not contains(model.eff_cone, d.coords):
        raise NotPseudoEffective(f"{d.coords} is outside the effective cone")
    curves = []
    for cls, self_int in negative_curves:
        if cls.rank != model.rank:
            raise RankMismatch(f"curve rank {cls.rank} against model rank {model.rank}")
        stated = to_fraction(self_int)
        actual = _curve_product(model.tensor, cls, cls)
        if stated != actual:
            raise NonNegativeDefinite(
                f"stated self-intersection {stated} disagrees with the form ({actual}); "
                "bad input curve list")
        curves.append(cls)

    support: list[int] = []
    coeffs: list[Fraction] = []
    while True:
        negative = DivisorClass(tuple(Fraction(0) for _ in range(model.rank)))
        for idx, c in zip(support, coeffs):
            negative = negative + c * curves[idx]
        positive = d - negative
        violating = [i for i, curve in enumerate(curves)
                     if i not in support and _curve_product(model.tensor, positive, curve) < 0]
        if not violating:
            break
        support.extend(violating)
        gram = [[_curve_product(model.tensor, curves[i], curves[j]) for j in support]
                for i in support]
        rhs = [_curve_product(model.tensor, d, curves[i]) for i in support]
        solution = solve_square(gram, rhs)
        if solution is None:
            raise NonNegativeDefinite("singular Gram system; bad input curve list")
        coeffs = solution

    if support:
        gram = [[_curve_product(model.tensor, curves[i], curves[j]) for j in support]
                for i in support]
        for k in range(1, len(support) + 1):
            minor = determinant([row[:k] for row in gram[:k]])
            if (-1) ** k * minor <= 0:
                raise NonNegativeDefinite("support Gram matrix is not negative definite")
    for c in coeffs:
        if c < 0:
            raise NotPseudoEffective("negative coefficient in the negative part; "
                                     "class is not pseudo-effective against these curves")
    return ZariskiDecomposition(
        positive=positive,
        negative=negative,
        support=[(curves[i], c) for i, c in zip(support, coeffs)],
    )


def is_rigid_adjoint(model: VarietyModel, cls: DivisorClass,
                     negative_curves: list[tuple[DivisorClass, Fraction]]) -> bool:
    """Rigidity of a*L + K on a rational surface via Zariski decomposition.

    On such a surface a nonzero nef positive part forces Iitaka dimension
    at least 1, so the adjoint is rigid exactly when P = 0.  Refuses
    non-surface models: the equivalence is a surface statement.
    """
    if model.dim != 2:
        raise InvalidDimension("rigidity test is only available for surfaces")
    a = a_invariant(model, cls)
    adjoint = adjoint_class(model, cls, a)
    decomposition = zariski_decompose(model, adjoint, negative_curves)
    return decomposition.positive.is_zero()
