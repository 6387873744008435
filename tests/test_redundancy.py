"""Redundancy elimination against the one-LP-per-row loop it replaced:
the staged routine must keep exactly the rows that loop keeps."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encmpc import lp, mpqp, simulation
from encmpc.mpqp import synthesize
from encmpc.polyhedra import chebyshev_center, irredundant_rows
from test_mpqp import CONTROLLER_SHA256, pinned_problem


def reference_irredundant_rows(A, b, tol=1e-9):
    """The sequential loop: exact duplicate rows are collapsed, then row i
    goes, in index order, when max a_i'x over the rows not yet removed is
    <= b_i + tol. Returns (A_red, b_red, kept_indices)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m = A.shape[0]
    order = np.ones(m, dtype=bool)
    rows = np.hstack([A, b[:, None]])
    for i in range(m):
        if not order[i]:
            continue
        same = np.flatnonzero(order & (np.abs(rows - rows[i]).max(axis=1) < 1e-12))
        for j in same:
            if j > i:
                order[j] = False
    keep = list(np.flatnonzero(order))
    for i in list(keep):
        others = [j for j in keep if j != i]
        if not others:
            continue
        status, _, value = lp.max_linear(A[i], A[others], b[others])
        if status == lp.OPTIMAL and value <= b[i] + tol:
            keep.remove(i)
    keep = sorted(keep)
    return A[keep], b[keep], np.array(keep, dtype=int)


def problem(name):
    """A pinned problem, or the attack-probe plant at horizon probeN."""
    if name.startswith("probe"):
        sc = dataclasses.replace(simulation.attack_scenario(),
                                 horizon=int(name.removeprefix("probe")))
        return sc.system(), sc.mpc_spec()
    return pinned_problem(name)


@pytest.mark.parametrize("name", list(CONTROLLER_SHA256) + ["probe2", "probe5"])
def test_kept_rows_match_lp_loop(name, monkeypatch):
    """Every region synthesis prunes keeps the rows of the LP loop, and
    every row is settled by exactly one stage."""
    calls = []

    def spy(A, b, center, stats):
        stats = {}
        out = irredundant_rows(A, b, center=center, stats=stats)
        calls.append((A, b, out[2], stats))
        return out

    monkeypatch.setattr(mpqp, "irredundant_rows", spy)
    synthesize(*problem(name))
    assert calls
    for A, b, kept, stats in calls:
        assert kept.tolist() == reference_irredundant_rows(A, b)[2].tolist()
        assert (stats["rows_duplicate"] + stats["rows_ray"] + stats["rows_box"]
                + stats["rows_lp"]) == len(b)


def random_polytope(seed):
    """Rows of a bounded polytope around a known interior point x0, in
    shuffled order, with exact duplicates, positive multiples of some
    rows and loose rows injected. Returns (A, b, x0, groups), where each
    group lists the rows that are positive multiples of one another."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    x0 = rng.normal(size=n)
    half = rng.uniform(1.0, 3.0, size=n)
    A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(int(rng.integers(0, 8)), n))])
    b = A @ x0 + np.concatenate([half, half, rng.uniform(0.1, 2.0, size=len(A) - 2 * n)])
    loose = rng.normal(size=(int(rng.integers(0, 4)), n))
    A = np.vstack([A, loose])
    b = np.concatenate([b, loose @ x0 + np.abs(loose) @ half + rng.uniform(0.5, 5.0, len(loose))])
    src = list(range(len(b)))
    for i in rng.integers(0, len(b), size=int(rng.integers(0, 4))):
        A, b, src = np.vstack([A, A[i]]), np.append(b, b[i]), src + [src[i]]
    for i in rng.integers(0, len(b), size=int(rng.integers(0, 4))):
        c = rng.uniform(0.2, 5.0)
        A, b, src = np.vstack([A, c * A[i]]), np.append(b, c * b[i]), src + [src[i]]
    perm = rng.permutation(len(b))
    src = np.array(src)[perm]
    groups = [np.flatnonzero(src == s) for s in np.unique(src)]
    return A[perm], b[perm], x0, groups


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_polytope_matches_lp_loop(seed):
    """With the interior point or the Chebyshev center as center, the
    kept rows are those of the LP loop; of rows that are positive
    multiples of one another, at most one stays, and it is the last that
    is not an exact copy of an earlier one."""
    A, b, x0, groups = random_polytope(seed)
    expect = reference_irredundant_rows(A, b)[2].tolist()
    for center in (x0, chebyshev_center(A, b)[0]):
        stats = {}
        Ar, br, kept = irredundant_rows(A, b, center=center, stats=stats)
        assert kept.tolist() == expect
        assert np.array_equal(Ar, A[kept]) and np.array_equal(br, b[kept])
        assert (stats["rows_duplicate"] + stats["rows_ray"] + stats["rows_box"]
                + stats["rows_lp"]) == len(b)
    for rows in groups:
        # an exact copy goes before the LPs, which then keep the last row
        first = [i for k, i in enumerate(rows)
                 if not any((A[i] == A[j]).all() and b[i] == b[j] for j in rows[:k])]
        assert [i for i in rows if i in expect] in ([], [first[-1]])


def test_rays_and_box_settle_without_row_lps():
    """A square with a loose row and a duplicate: rays find the four
    sides, the box drops the loose row, and no per-row LP runs."""
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [0, 1]])
    b = np.array([1.0, 1, 1, 1, 3, 1])
    stats = {}
    _, _, kept = irredundant_rows(A, b, chebyshev_center(A, b)[0], stats=stats)
    assert kept.tolist() == [0, 1, 2, 3]
    assert stats == {"redundancy_lps": 4, "rows_duplicate": 1, "rows_ray": 4,
                     "rows_box": 1, "rows_lp": 0}


def test_open_box_leaves_row_to_lp():
    """The slab -1 <= x + y <= 1 is unbounded along every axis, so no row
    has a finite maximum over its box: rays find both sides and the
    loose row x + y <= 3 goes by its LP."""
    A = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 3.0])
    stats = {}
    _, _, kept = irredundant_rows(A, b, chebyshev_center(A, b)[0], stats=stats)
    assert kept.tolist() == reference_irredundant_rows(A, b)[2].tolist() == [0, 1]
    assert stats == {"redundancy_lps": 5, "rows_duplicate": 0, "rows_ray": 2,
                     "rows_box": 0, "rows_lp": 1}


def test_lone_vacuous_row_stays():
    """0'x <= 1 alone describes all of R^n; like the LP loop, the routine
    keeps one row rather than return none."""
    for A, b in (([[0.0, 0.0]], [1.0]), ([[0.0, 0.0], [0.0, 0.0]], [2.0, 1.0])):
        _, _, kept = irredundant_rows(A, b, chebyshev_center(A, b)[0])
        assert kept.tolist() == reference_irredundant_rows(A, b)[2].tolist()


def test_center_outside_a_row_leaves_all_to_lps():
    """Given a center outside the unit square, neither rays nor the box
    settle anything, and the LP loop alone gives the answer."""
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
    b = np.array([1.0, 1, 1, 1, 3])
    stats = {}
    _, _, kept = irredundant_rows(A, b, center=np.array([2.0, 0.0]), stats=stats)
    assert kept.tolist() == [0, 1, 2, 3]
    assert stats == {"redundancy_lps": 5, "rows_duplicate": 0, "rows_ray": 0,
                     "rows_box": 0, "rows_lp": 5}


def test_no_rows():
    """The unconstrained region has no rows."""
    Ar, br, kept = irredundant_rows(np.zeros((0, 2)), np.zeros(0), center=np.zeros(2))
    assert Ar.shape == (0, 2) and br.shape == (0,) and kept.tolist() == []
