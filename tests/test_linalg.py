"""The library's elimination against the Gauss-Jordan oracle on random rational matrices."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fanobalance.linalg import determinant, in_span, solve_square, span_rank

from oracles import gj_determinant, gj_rank, gj_solve

rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 1, 2, 3, 7]))


@st.composite
def matrices(draw, square: bool = False):
    """Rational matrices, often rank-deficient or with zero leading columns.

    A product of an n x k and a k x m matrix has rank at most k, so drawing
    k below both sizes makes dependent rows; zeroing the first columns makes
    elimination skip them.
    """
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, m)))
    left = [[draw(rationals) for _ in range(k)] for _ in range(n)]
    right = [[draw(rationals) for _ in range(m)] for _ in range(k)]
    rows = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
            if k else [Fraction(0)] * m for row in left]
    if draw(st.booleans()):
        rows = [[draw(rationals) for _ in range(m)] for _ in range(n)]
    zero_cols = draw(st.integers(0, m))
    return [tuple(Fraction(0) if j < zero_cols else x for j, x in enumerate(row)) for row in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_span_rank_matches_oracle(rows):
    assert span_rank(rows) == gj_rank(rows)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_in_span_matches_oracle(rows, data):
    probe = tuple(data.draw(rationals) for _ in rows[0])
    assert in_span(probe, rows) == (gj_rank(rows) == gj_rank(rows + [probe]))
    assert in_span(rows[-1], rows)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_determinant_matches_oracle(rows):
    assert determinant(rows) == gj_determinant(rows)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True), st.data())
def test_solve_square_matches_oracle(rows, data):
    rhs = [data.draw(rationals) for _ in rows]
    assert solve_square([list(r) for r in rows], rhs) == gj_solve(rows, rhs)


def test_empty_and_one_by_one():
    assert determinant([]) == 1
    assert solve_square([], []) == []
    assert determinant([[Fraction(-2, 3)]]) == Fraction(-2, 3)
    assert solve_square([[Fraction(-2, 3)]], [Fraction(4)]) == [Fraction(-6)]
    assert solve_square([[Fraction(0)]], [Fraction(4)]) is None
