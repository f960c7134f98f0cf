"""Exact rational linear algebra on tuples of fractions.

The public routines take and return `fractions.Fraction` vectors and
matrices; elimination clears denominators row by row and runs on plain
integers (:func:`bareiss`).  Nothing here ever touches a float.  Vectors
are immutable tuples so they can be dict keys and shared freely between
threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _cleared(v) -> list[int]:
    """The integer vector ``lcm(denominators) * v``; ints pass through."""
    scale = lcm(*(a.denominator for a in v))
    return [a.numerator * (scale // a.denominator) for a in v]


def with_positive_leading(v: QVector) -> QVector:
    """Flip sign so the first nonzero entry is positive (for sign-ambiguous
    vectors such as lineality basis elements)."""
    for a in v:
        if a != 0:
            return v if a > 0 else vec_neg(v)
    return v


def bareiss(rows: list[list[int]], n_cols: int | None = None) -> tuple[int, int]:
    """Fraction-free Gaussian elimination (Bareiss 1968) of integer rows, in place.

    Pivots run over the first ``n_cols`` columns (all by default); each takes
    the first nonzero entry at or below the current row, and a column
    without one is skipped.  After the k-th pivot every entry below the
    pivot rows is a (k+1)-minor of the input, so the division by the
    previous pivot is exact and entries stay as small as those minors.
    The rows end in echelon form, and on a nonsingular square the last
    pivot is the determinant up to the sign of the row permutation.

    Returns the rank and that sign.
    """
    if not rows:
        return 0, 1
    n_rows, width = len(rows), len(rows[0])
    rank, sign, prev = 0, 1, 1
    for col in range(width if n_cols is None else n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        pv = top[col]
        for row in rows[rank + 1:]:
            f = row[col]
            row[col] = 0
            for c in range(col + 1, width):
                row[c] = (pv * row[c] - f * top[c]) // prev
        prev = pv
        rank += 1
        if rank == n_rows:
            break
    return rank, sign


def span_rank(vectors: list[QVector] | tuple[QVector, ...]) -> int:
    """Rank of the span of the given vectors, by exact elimination."""
    vectors = list(vectors)
    if not vectors:
        return 0
    length = len(vectors[0])
    for v in vectors:
        if len(v) != length:
            raise DimensionMismatch("span_rank over vectors of unequal length")
    return bareiss([_cleared(v) for v in vectors])[0]


def in_span(v: QVector, vectors: list[QVector]) -> bool:
    """True iff v lies in the linear span of the given vectors."""
    if not vectors:
        return is_zero(v)
    return span_rank(vectors) == span_rank(list(vectors) + [v])


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve M x = b for square M; None when M is singular.

    Scaling a row of ``[M | b]`` keeps the solution, so each row is cleared
    of denominators and eliminated on integers.  With ``d`` the last pivot,
    ``d * x`` is an integer vector (Cramer's rule), found by exact
    back-substitution.
    """
    n = len(matrix)
    rows = [_cleared(list(row) + [rhs[i]]) for i, row in enumerate(matrix)]
    if bareiss(rows, n)[0] < n:
        return None
    d = rows[n - 1][n - 1] if n else 1
    scaled = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        tail = sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = (d * row[n] - tail) // row[i]
    return [Fraction(y, d) for y in scaled]


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant: rows cleared of denominators, then eliminated on integers."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = [_cleared(row) for row in matrix]
    rank, sign = bareiss(rows)
    if rank < n:
        return Fraction(0)
    scale = 1
    for row in matrix:
        scale *= lcm(*(a.denominator for a in row))
    return Fraction(sign * rows[-1][-1], scale)
