import numpy as np
import pytest

from cpso.problem import (
    EvaluationFault,
    RecSchedule,
    Tolerances,
    evaluate_batch,
)

from conftest import from_functions, make_toy1, make_toy_eq

TOL = Tolerances()


def feasible(problem, x, tolerances=TOL):
    return bool(evaluate_batch(problem, [x]).feasible(tolerances)[0])


def one(problem, x):
    """The evaluation of the single point ``x``: a one-row batch."""
    return evaluate_batch(problem, np.array([x], dtype=float))


def test_toy1_interior_point(toy1):
    pt = one(toy1, [0.0, 0.0])
    assert pt.conflict[0] == 0.0
    assert pt.cv[0] == 0.0
    assert pt.nac(TOL)[0] == 0
    assert feasible(toy1, [0.0, 0.0])


def test_toy1_violating_point(toy1):
    pt = one(toy1, [1.0, 1.0])
    assert pt.conflict[0] == 2.0
    assert pt.ineq_violations[0] == pytest.approx([1.0])
    assert pt.cv[0] == 1.0
    assert pt.nac(TOL)[0] == 1


def test_toy1_out_of_box_point(toy1):
    pt = one(toy1, [3.0, 0.0])
    assert pt.ineq_violations[0] == pytest.approx([2.0])
    assert pt.box_violations[0] == pytest.approx([1.0, 0.0])
    assert pt.cv[0] == 3.0
    assert pt.nac(TOL)[0] == 2


def test_cv_is_sum_of_violation_vectors(toy1):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-4.0, 4.0, (500, 2))
    ev = evaluate_batch(toy1, pts)
    total = (
        ev.ineq_violations.sum(axis=1)
        + ev.eq_violations.sum(axis=1)
        + ev.box_violations.sum(axis=1)
    )
    assert np.array_equal(ev.cv, total)
    assert np.all(ev.cv >= 0.0)


def test_cv_zero_iff_all_terms_zero(toy1):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.0, 2.0, (500, 2))
    ev = evaluate_batch(toy1, pts)
    zero_terms = (
        np.all(ev.ineq_violations == 0.0, axis=1)
        & np.all(ev.box_violations == 0.0, axis=1)
    )
    assert np.array_equal(ev.cv == 0.0, zero_terms)


def test_dimension_mismatch_rejected(toy1):
    with pytest.raises(ValueError):
        one(toy1, [0.0, 0.0, 0.0])


def test_non_finite_position_rejected(toy1):
    with pytest.raises(ValueError):
        one(toy1, [np.nan, 0.0])


def test_non_finite_output_inside_box_faults():
    bad = from_functions(
        name="bad",
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
        objective=lambda x: np.log(x[:, 0]),
    )
    with np.errstate(invalid="ignore"), pytest.raises(EvaluationFault):
        one(bad, [-0.5])


def test_non_finite_output_outside_box_becomes_inf():
    sqrt = from_functions(
        name="sqrt",
        lower=np.array([1.0]),
        upper=np.array([2.0]),
        objective=lambda x: np.sqrt(x[:, 0] - 1.0),
    )
    with np.errstate(invalid="ignore"):
        pt = one(sqrt, [0.0])
    assert pt.conflict[0] == np.inf
    assert pt.box_violations[0] == pytest.approx([1.0])


def test_evaluation_is_pure(toy1):
    a = one(toy1, [0.3, -0.7])
    b = one(toy1, [0.3, -0.7])
    assert a.conflict[0] == b.conflict[0]
    assert np.array_equal(a.ineq_violations, b.ineq_violations)
    assert a.cv[0] == b.cv[0] and a.nac(TOL)[0] == b.nac(TOL)[0]


def test_feasibility_within_tolerance_band(toy1):
    # g1 = 1e-13 is inside the default 1e-12 band.
    assert feasible(toy1, [1.0 + 1e-13, 0.0])


def test_equality_tolerance_classification(toy_eq):
    assert feasible(toy_eq, [0.001, 0.0], Tolerances(eq=1e-2))
    assert not feasible(toy_eq, [0.001, 0.0], Tolerances(eq=1e-12))


def test_feasibility_monotone_in_tolerances(toy_eq):
    rng = np.random.default_rng(2)
    loose = Tolerances(ineq=1e-2, eq=1e-2)
    ev = evaluate_batch(toy_eq, rng.uniform(-2.5, 2.5, (300, 2)))
    assert np.all(ev.feasible(loose)[ev.feasible(TOL)])


def test_nac_at_zero_tolerance_counts_positive_entries(toy1):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3.0, 3.0, (300, 2))
    ev = evaluate_batch(toy1, pts)
    expected = (
        np.count_nonzero(ev.ineq_violations > 0.0, axis=1)
        + np.count_nonzero(ev.box_violations > 0.0, axis=1)
    )
    assert np.array_equal(ev.nac(Tolerances(ineq=0.0, eq=0.0)), expected)


def test_cv_zero_implies_nac_zero(toy1):
    pt = one(toy1, [-1.0, -1.0])
    assert pt.cv[0] == 0.0 and pt.nac(TOL)[0] == 0


# --------------------------------------------------- equality tolerance decay


def test_schedule_initial_value_from_box():
    box = from_functions(
        name="box4",
        lower=np.zeros(4),
        upper=np.full(4, 10.0),
        objective=lambda x: x[:, 0],
    )
    sched = RecSchedule.for_problem(box)
    assert sched.initial_tol == 5.0
    assert sched.tolerance_at(1, 1000) == 5.0


def test_schedule_hits_final_at_switch():
    sched = RecSchedule(initial_tol=5.0)
    for t_max in (10, 100, 8500, 10000):
        t_switch = int(np.ceil(0.8 * t_max))
        assert sched.tolerance_at(t_switch, t_max) == 1e-12
        assert sched.tolerance_at(t_switch - 1, t_max) > 1e-12
        assert sched.tolerance_at(t_max, t_max) == 1e-12


def test_schedule_linear_midpoint():
    sched = RecSchedule(initial_tol=5.0)
    t_max = 1001  # switch at 801, midpoint 401
    assert sched.tolerance_at(401, t_max) == pytest.approx(2.5, abs=0.01)


def test_schedule_nonincreasing():
    for decrease in ("linear", "exponential"):
        sched = RecSchedule(initial_tol=3.0, decrease=decrease)
        values = [sched.tolerance_at(t, 200) for t in range(1, 201)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1e-12


def test_schedule_exponential_rate():
    sched = RecSchedule(initial_tol=2.0, decrease="exponential", rate=0.5)
    assert sched.tolerance_at(2, 1000) == 1.0
    assert sched.tolerance_at(3, 1000) == 0.5


def test_schedule_validation():
    with pytest.raises(ValueError):
        RecSchedule(initial_tol=1e-13)
    with pytest.raises(ValueError):
        RecSchedule(initial_tol=1.0, switch_fraction=0.0)
    with pytest.raises(ValueError):
        RecSchedule(initial_tol=1.0, decrease="sudden")
    for decrease in ("linear", "exponential"):
        for rate in (0.0, 1.0, 5.0):
            with pytest.raises(ValueError, match="rate must be in"):
                RecSchedule(initial_tol=1.0, decrease=decrease, rate=rate)


# --------------------------------------------------------------- construction


def test_bounds_must_be_ordered():
    with pytest.raises(ValueError):
        from_functions(
            name="inverted",
            lower=np.array([1.0]),
            upper=np.array([0.0]),
            objective=lambda x: x[:, 0],
        )


def test_bounds_and_their_caches_are_read_only():
    # The spans, vmax and the row tiles are cached from the bounds, so
    # none of them may be written, and the caller's arrays are copied,
    # never frozen.
    lower, upper = np.array([-1.0, 0.0]), np.array([1.0, 3.0])
    prob = from_functions("box", lower, upper, objective=lambda x: x[:, 0])
    lower[0] = upper[0] = 0.5
    assert prob.lower[0] == -1.0 and prob.upper[0] == 1.0
    arrays = [prob.lower, prob.upper, prob.span, prob.vmax, *prob._tiles.values()]
    assert len(arrays) == 9
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2.0
    assert prob.span.tolist() == [2.0, 3.0] and prob.vmax.tolist() == [1.0, 1.5]


def test_grid_steps_are_a_read_only_copy():
    # _snap and the sampling proof derive from the steps.
    steps = np.array([0.0625, np.nan])
    prob = from_functions("grid", np.array([0.0, 0.0]), np.array([10.0, 1.0]),
                                  objective=lambda x: x[:, 0], grid_steps=steps)
    assert prob.grid_steps is not steps
    steps[0] = 1.0
    assert prob.grid_steps[0] == 0.0625
    for a in (prob.grid_steps, *prob._grid):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2
    assert prob._snap(np.array([1.03, 0.3])).tolist() == [1.0, 0.3]


def test_grid_snap_rounding():
    prob = from_functions(
        name="grid",
        lower=np.array([0.0]),
        upper=np.array([10.0]),
        objective=lambda x: x[:, 0],
        grid_steps=np.array([0.0625]),
    )
    assert prob._snap(np.array([1.03]))[0] == pytest.approx(1.0)
    # exact half-step ties round toward the lower multiple
    assert prob._snap(np.array([1.03125]))[0] == pytest.approx(1.0)
    assert prob._snap(np.array([1.04]))[0] == pytest.approx(1.0625)
