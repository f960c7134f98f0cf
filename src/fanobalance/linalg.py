"""Exact rational linear algebra on tuples of fractions.

All routines work over `fractions.Fraction`; nothing here ever touches a
float.  Vectors are immutable tuples so they can be dict keys and shared
freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, ParseError

QVector = tuple[Fraction, ...]

RationalLike = Fraction | int | str


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, and fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in rational {value!r}") from None
        except ValueError:
            raise ParseError(f"malformed rational {value!r}") from None
    raise ParseError(f"cannot interpret {value!r} as a rational")


def format_fraction(value: Fraction) -> str:
    """Serialize as "p/q", or "p" for integers (the wire format everywhere)."""
    return str(value)


def qvec(coords) -> QVector:
    """Build an immutable rational vector from any iterable of rational-likes."""
    return tuple(to_fraction(c) for c in coords)


def zero_vector(rank: int) -> QVector:
    return (Fraction(0),) * rank


def check_length(v: QVector, rank: int) -> None:
    if len(v) != rank:
        raise DimensionMismatch(f"vector of length {len(v)} in ambient rank {rank}")


def dot(u: QVector, v: QVector) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_add(u: QVector, v: QVector) -> QVector:
    if len(u) != len(v):
        raise DimensionMismatch(f"sum of lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: QVector, v: QVector) -> QVector:
    if len(u) != len(v):
        raise DimensionMismatch(f"difference of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: RationalLike, v: QVector) -> QVector:
    f = to_fraction(c)
    return tuple(f * a for a in v)


def vec_neg(v: QVector) -> QVector:
    return tuple(-a for a in v)


def is_zero(v: QVector) -> bool:
    return all(a == 0 for a in v)


def common_ratio(v: QVector, unit: QVector) -> Fraction | None:
    """The t with v = t * unit, or None when v is no multiple of unit."""
    if any(a != 0 for a, u in zip(v, unit) if u == 0):
        return None
    ratios = {a / u for a, u in zip(v, unit) if u != 0}
    return ratios.pop() if len(ratios) == 1 else None


def primitive(v: QVector) -> QVector:
    """Scale to the primitive integer vector with the same orientation.

    Clears denominators and divides out the gcd of the entries, so the result
    has integer entries with overall gcd 1.  The zero vector is returned
    unchanged.
    """
    if is_zero(v):
        return tuple(Fraction(0) for _ in v)
    denom_lcm = 1
    for a in v:
        denom_lcm = denom_lcm * a.denominator // gcd(denom_lcm, a.denominator)
    ints = [int(a * denom_lcm) for a in v]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    return tuple(Fraction(n // g) for n in ints)


def with_positive_leading(v: QVector) -> QVector:
    """Flip sign so the first nonzero entry is positive (for sign-ambiguous
    vectors such as lineality basis elements)."""
    for a in v:
        if a != 0:
            return v if a > 0 else vec_neg(v)
    return v


def _echelonize(rows: list[list[Fraction]]) -> int:
    """In-place fraction-free-ish Gaussian elimination; returns the rank."""
    if not rows:
        return 0
    n_cols = len(rows[0])
    piv_r = 0
    for col in range(n_cols):
        pivot = None
        for r in range(piv_r, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[piv_r], rows[pivot] = rows[pivot], rows[piv_r]
        pv = rows[piv_r][col]
        for r in range(piv_r + 1, len(rows)):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] / pv
            for c in range(col, n_cols):
                rows[r][c] -= factor * rows[piv_r][c]
        piv_r += 1
        if piv_r == len(rows):
            break
    return piv_r


def span_rank(vectors: list[QVector] | tuple[QVector, ...]) -> int:
    """Rank of the span of the given vectors, by exact elimination."""
    vectors = list(vectors)
    if not vectors:
        return 0
    length = len(vectors[0])
    for v in vectors:
        if len(v) != length:
            raise DimensionMismatch("span_rank over vectors of unequal length")
    rows = [list(v) for v in vectors]
    return _echelonize(rows)


def in_span(v: QVector, vectors: list[QVector]) -> bool:
    """True iff v lies in the linear span of the given vectors."""
    if not vectors:
        return is_zero(v)
    return span_rank(vectors) == span_rank(list(vectors) + [v])


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve M x = b for square M; None when M is singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col] / pv
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by elimination with row-swap sign tracking."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] / pv
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return det
