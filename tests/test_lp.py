import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import lp
from encmpc.polyhedra import Polyhedron, box, chebyshev_center, irredundant_rows


def test_standard_form_textbook():
    # min -3x1 - 5x2 s.t. x1 + s1 = 4, 2x2 + s2 = 12, 3x1 + 2x2 + s3 = 18
    A = np.array([[1.0, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0, 0, 0, 0])
    status, y, value, pi = lp.solve_standard(c, A, b)
    assert status == lp.OPTIMAL
    assert value == pytest.approx(-36.0, abs=1e-9)
    assert y[:2] == pytest.approx([2.0, 6.0], abs=1e-9)
    # duals satisfy complementary slackness on the binding rows
    assert pi @ b == pytest.approx(-36.0, abs=1e-9)


def test_standard_form_infeasible():
    # x1 = -1 with x1 >= 0 (after the internal sign flip: still empty
    # because x1 = 1 and x1 = 2 conflict)
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, 2.0])
    c = np.array([0.0])
    status, *_ = lp.solve_standard(c, A, b)
    assert status == lp.INFEASIBLE


def test_standard_form_unbounded():
    # min -y over y - s = 1
    A = np.array([[1.0, -1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, 0.0])
    status, *_ = lp.solve_standard(c, A, b)
    assert status == lp.UNBOUNDED


def test_standard_form_redundant_rows():
    # second equality row is a copy of the first
    A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([2.0, 2.0, 0.0])
    c = np.array([1.0, 0.0])
    status, y, value, pi = lp.solve_standard(c, A, b)
    assert status == lp.OPTIMAL
    assert y == pytest.approx([1.0, 1.0], abs=1e-9)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_standard_form_empty_kept_basis():
    # the only row is 0 = 0: its artificial stays basic and the row is
    # dropped, so phase 2 and the multiplier solve run on no rows
    status, y, value, pi = lp.solve_standard(np.array([1.0, 1.0]),
                                             np.zeros((1, 2)), np.array([0.0]))
    assert status == lp.OPTIMAL
    assert y.tolist() == [0.0, 0.0] and pi.tolist() == [0.0]
    assert value == 0.0 and np.signbit(value)


def test_max_linear_square():
    # maximize x + y over the unit square
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    b = np.ones(4)
    status, x, value = lp.max_linear(np.array([1.0, 1.0]), A, b)
    assert status == lp.OPTIMAL
    assert value == pytest.approx(2.0, abs=1e-9)
    assert x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_max_linear_unbounded_and_infeasible():
    A = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    status, *_ = lp.max_linear(np.array([0.0, 1.0]), A, b)
    assert status == lp.UNBOUNDED

    A = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])  # x <= 0 and x >= 1
    status, *_ = lp.max_linear(np.array([1.0]), A, b)
    assert status == lp.INFEASIBLE


def test_feasible_point():
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    b = np.array([2.0, 0.0, 3.0, 1.0])
    ok, x = lp.feasible_point(A, b)
    assert ok
    assert np.all(A @ x <= b + 1e-9)

    A = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])
    ok, _ = lp.feasible_point(A, b)
    assert not ok

    # x1 + x2 >= 3 with x1 <= 1 and x2 <= 1
    A = np.array([[-1.0, -1.0], [1, 0], [0, 1]])
    b = np.array([-3.0, 1.0, 1.0])
    ok, _ = lp.feasible_point(A, b)
    assert not ok


def test_feasible_point_mixed_signs():
    # 1 <= x1 <= 2, -1 <= x2 <= 3: the x1 >= 1 row has b < 0, so its
    # violation column starts in the basis and must be pivoted out
    A = np.array([[-1.0, 0], [1, 0], [0, -1], [0, 1]])
    b = np.array([-1.0, 2.0, 1.0, 3.0])
    ok, x = lp.feasible_point(A, b)
    assert ok
    assert np.all(A @ x <= b + 1e-9)

    # every row starts violated at x = 0
    A = np.array([[-1.0, 0], [0, -1], [1, 1]])
    b = np.array([-1.0, -2.0, 4.0])
    ok, x = lp.feasible_point(A, b)
    assert ok
    assert np.all(A @ x <= b + 1e-9)


def test_feasible_point_no_rows():
    ok, x = lp.feasible_point(np.zeros((0, 3)), np.zeros(0))
    assert ok
    assert x.shape == (3,) and np.all(x == 0.0)


def test_feasible_point_agrees_with_max_linear():
    """Verdicts match the two-phase route on random small systems, and a
    feasible verdict comes with a point that satisfies every row."""
    rng = np.random.default_rng(20)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        ok, x = lp.feasible_point(A, b)
        status, *_ = lp.max_linear(np.zeros(n), A, b)
        assert ok == (status == lp.OPTIMAL)
        if ok:
            assert np.all(A @ x <= b + 1e-9)
        verdicts.append(ok)
    assert any(verdicts) and not all(verdicts)


def test_feasible_point_unbounded_by_rounding_at_zero_objective():
    """The 250th system of this draw (8 x 4) ends its Bland pass UNBOUNDED:
    after a few pivots a reduced cost rounds to -1.7e-10 over a column
    with no positive entry, while the total violation already reads
    -6.8e-11.  The violation LP is bounded below by 0, so that basis is
    a feasible point, and max_linear calls the system feasible too."""
    rng = np.random.default_rng(1)
    for _ in range(250):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        A[rng.random((m, n)) < 0.3] = 0.0
        b = rng.normal(size=m)
        b[rng.random(m) < 0.2] = 0.0
    assert A.shape == (8, 4)
    ok, x = lp.feasible_point(A, b)
    assert ok
    assert np.max(A @ x - b) <= 1e-9
    status, *_ = lp.max_linear(np.zeros(4), A, b)
    assert status == lp.OPTIMAL


def test_chebyshev_unit_box():
    P = box([-1.0, -1.0], [1.0, 1.0])
    c, r = chebyshev_center(P.A, P.b)
    assert r == pytest.approx(1.0, abs=1e-9)
    assert c == pytest.approx([0.0, 0.0], abs=1e-9)


def test_chebyshev_empty():
    # x <= 0 and x >= 1
    c, r = chebyshev_center(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    assert r < 0  # negative radius flags the empty interior


def test_chebyshev_unbounded():
    c, r = chebyshev_center(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert r == np.inf
    # no rows at all: the set is R^n
    c, r = chebyshev_center(np.zeros((0, 3)), np.zeros(0))
    assert r == np.inf and c.tolist() == [0.0, 0.0, 0.0]


def test_chebyshev_zero_row_infeasible():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([-1.0, 1.0])
    c, r = chebyshev_center(A, b)
    assert r == -np.inf


def test_chebyshev_lp_failure_raises(monkeypatch):
    """The Chebyshev LP is bounded and feasible by construction, so any
    status but OPTIMAL or INFEASIBLE is a solver failure, reported as
    LpError naming the status (before, float(None) raised TypeError)."""
    monkeypatch.setattr(lp, "max_linear", lambda *args: (lp.UNBOUNDED, None, None))
    with pytest.raises(lp.LpError, match=lp.UNBOUNDED):
        chebyshev_center(np.eye(2), np.ones(2))


def test_contains_boundary_tolerance():
    P = box([0.0], [1.0])
    assert P.contains([1.0])
    assert P.contains([1.0 + 1e-10])
    assert not P.contains([1.1])


def test_irredundant_rows_drops_loose_row():
    # unit box plus a slack halfspace x <= 5
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [1, 0]])
    b = np.array([1.0, 1, 1, 1, 5])
    Ar, br, kept = irredundant_rows(A, b)
    assert list(kept) == [0, 1, 2, 3]


def test_irredundant_rows_keeps_duplicates_once():
    A = np.array([[1.0], [1.0], [-1.0]])
    b = np.array([1.0, 1.0, 0.0])
    Ar, br, kept = irredundant_rows(A, b)
    assert len(kept) == 2
    P = Polyhedron(Ar, br)
    assert P.contains([0.5]) and not P.contains([1.5]) and not P.contains([-0.5])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_chebyshev_ball_fits(seed):
    """The returned ball is genuinely inscribed: slack of every row at the
    center is at least radius * ||row||."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n + 1, 9))
    A = rng.normal(size=(m, n))
    interior = rng.normal(size=n)
    b = A @ interior + rng.uniform(0.1, 2.0, size=m)  # interior point keeps it nonempty
    c, r = chebyshev_center(A, b)
    if not np.isfinite(r):
        return  # unbounded draws are fine, nothing to check
    assert r > 0
    slack = b - A @ c
    norms = np.linalg.norm(A, axis=1)
    assert np.all(slack >= r * norms - 1e-7)
