import numpy as np
import pytest

from cpso.handlers import ChtConfig, KINDS, penalized_batch, priority_keys
from cpso.problem import Tolerances
from cpso.swarm import Swarm, SwarmConfig, Topology, lbest_index

from conftest import (
    FixedRng,
    batch,
    from_functions,
    make_halfline,
    random_batch,
    repair_rows,
    replaces,
    start_swarm,
)

TOL = Tolerances()
REPAIRS = ("bm", "bmem", "bmpem")


def ranked_first(ev, tol=TOL):
    """Row that ranks first, as runs and memories are ranked: lowest
    priority keys, then lowest index."""
    everyone = np.arange(len(ev))[None]
    return int(lbest_index(everyone, *priority_keys(ev, ev.feasible(tol)))[0])


def reference_keys(ev):
    """The priority order written out: (infeasible, conflict or cv) per row."""
    feasible = ev.cv <= TOL.ineq
    return list(zip(np.where(feasible, 0, 1), np.where(feasible, ev.conflict, ev.cv)))


# ------------------------------------------------------------- configuration


def test_config_kinds_and_defaults():
    assert len(KINDS) == 9
    assert ChtConfig("bm").max_repair_trials == 20
    assert ChtConfig("bmem").max_repair_trials == 19
    assert ChtConfig("bmpem").max_repair_trials == 19
    assert ChtConfig("pfpr").max_repair_trials == 0
    assert ChtConfig("pfppr").prob == 0.9


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ChtConfig("unknown")
    with pytest.raises(ValueError):
        ChtConfig("pfppr", prob=1.5)


def test_config_flags():
    assert ChtConfig("pf").requires_feasible_init
    assert ChtConfig("bmem").requires_feasible_init
    assert not ChtConfig("pfpr").requires_feasible_init
    assert ChtConfig("pfpr+rec").uses_rec
    assert ChtConfig("pfppr+rec").probabilistic_memory
    assert ChtConfig("apm").uses_penalty
    assert ChtConfig("bm").is_repair


# ---------------------------------------------------------------- comparison


def test_priority_both_feasible_lower_conflict():
    assert ranked_first(batch([1.0, 3.0])) == 0


def test_priority_feasible_beats_infeasible():
    assert ranked_first(batch([2.0, 0.0], ineq=[0.0, 0.1])) == 0


def test_priority_both_infeasible_lower_cv():
    assert ranked_first(batch([0.0, 9.0], ineq=[0.5, 0.2])) == 1


def test_priority_tie_keeps_incumbent():
    assert ranked_first(batch([1.0, 1.0])) == 0
    assert ranked_first(batch([0.0, 5.0], ineq=0.3)) == 0
    assert not replaces("pfpr", batch([1.0]), batch([1.0]))[0]
    assert not replaces("pfpr", batch([0.0], ineq=0.3), batch([5.0], ineq=0.3))[0]


def test_priority_is_lexicographic_and_transitive():
    rng = np.random.default_rng(7)
    a, b, c = (random_batch(rng, 2000) for _ in range(3))
    ka, kb, kc = reference_keys(a), reference_keys(b), reference_keys(c)
    b_wins = replaces("pfpr", a, b)
    assert list(b_wins) == [y < x for x, y in zip(ka, kb)]
    # transitivity of "does not lose"
    c_beats_b = replaces("pfpr", b, c)
    c_beats_a = replaces("pfpr", a, c)
    assert not np.any(~b_wins & ~c_beats_b & c_beats_a)
    # the ranking picks the first row with the lowest key
    for _ in range(500):
        trio = random_batch(rng, 3)
        keys = reference_keys(trio)
        assert ranked_first(trio) == keys.index(min(keys))


def test_probabilistic_both_feasible_never_draws():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert list(replaces("pfppr", batch([2.0, 1.0]), batch([1.0, 3.0]), rng)) == [
        True,
        False,
    ]
    assert rng.bit_generator.state == state


def test_probabilistic_forced_branches():
    # Row 0: infeasible memory, feasible candidate of higher conflict.
    # Row 1: both infeasible, the candidate has lower cv, higher conflict.
    # Row 2: both infeasible, the candidate has higher cv, lower conflict.
    inc = batch([0.0, 0.0, 9.0], ineq=[0.5, 0.5, 0.2])
    cand = batch([2.0, 9.0, 0.0], ineq=[0.0, 0.2, 0.5])
    below = replaces("pfppr", inc, cand, FixedRng(0.5), prob=0.9)
    assert list(below) == [True, True, False]  # the priority rules decide
    for u in (0.9, 0.95):  # at or above prob, lower conflict decides
        above = replaces("pfppr", inc, cand, FixedRng(u), prob=0.9)
        assert list(above) == [False, False, True]


def test_probabilistic_with_prob_one_equals_priority():
    rng = np.random.default_rng(8)
    inc, cand = random_batch(rng, 1000), random_batch(rng, 1000)
    got = replaces("pfppr", inc, cand, np.random.default_rng(9), prob=1.0)
    assert np.array_equal(got, replaces("pfpr", inc, cand))


# ------------------------------------------------------------------- penalty


def test_penalty_zero_violation_is_identity():
    assert penalized_batch(batch([3.25]))[0] == 3.25


def test_penalty_inequality_example():
    assert penalized_batch(batch([10.0], ineq=0.1))[0] == pytest.approx(10010.0)


def test_penalty_equality_example():
    assert penalized_batch(batch([10.0], eq=1e-3))[0] == pytest.approx(11.0)


def test_penalty_charges_box_terms():
    assert penalized_batch(batch([0.0], box=2.0))[0] == pytest.approx(4e6)


def test_penalty_never_below_conflict():
    ev = random_batch(np.random.default_rng(9), 1000)
    fp = penalized_batch(ev)
    assert np.all(fp >= ev.conflict)
    assert np.array_equal(fp == ev.conflict, ev.cv == 0.0)


# -------------------------------------------------------------------- repair


def repair_one(x_old, v, problem, tolerances, variant, rng, max_trials):
    """Repair one move whose full step is infeasible."""
    return repair_rows([x_old], [v], problem, tolerances, variant, rng, max_trials)


def test_bm_halving_example():
    # feasible region x <= 0: full step to 3 and half step to 1 fail,
    # the quarter step lands exactly on the boundary.
    prob = make_halfline()
    zero_tol = Tolerances(ineq=0.0, eq=0.0)
    rep = repair_one([-1.0], [4.0], prob, zero_tol, "bm", FixedRng(0.5), 20)
    assert rep.positions[0] == pytest.approx([0.0])
    assert rep.velocities[0] == pytest.approx([1.0])
    assert rep.trials_charged[0] == 2


def test_bmem_alternating_example():
    prob = make_halfline(limit=0.5)
    zero_tol = Tolerances(ineq=0.0, eq=0.0)
    rep = repair_one([-0.5], [1.2], prob, zero_tol, "bmem", FixedRng(0.5), 19)
    # schedule: full 0.7 inf, 0.9 -> 0.58 inf, 1.1 -> 0.82 inf, 0.8 -> 0.46 ok
    assert rep.positions[0] == pytest.approx([0.46])
    assert rep.velocities[0] == pytest.approx([0.96])
    assert rep.trials_charged[0] == 3


def test_bmem_box_only_skips_upscaling():
    box_only = from_functions(
        name="boxonly",
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
        objective=lambda x: x[:, 0],
    )
    rep = repair_one([0.5], [1.0], box_only, TOL, "bmem", FixedRng(0.5), 19)
    # downs only: 0.9..0.6 overshoot the box, 0.5 lands on the bound
    assert rep.positions[0] == pytest.approx([1.0])
    assert rep.velocities[0] == pytest.approx([0.5])
    assert rep.trials_charged[0] == 5


def test_bmem_zero_factor_keeps_position_without_eval():
    prob = make_halfline(limit=-50.0, lower=-60.0)
    rep = repair_one(
        [-55.0], [1000.0], prob, Tolerances(ineq=0.0, eq=0.0), "bmem", FixedRng(0.5), 19
    )
    # every nonzero factor overshoots; the 0.0 trial keeps the position
    assert rep.positions[0] == pytest.approx([-55.0])
    assert rep.velocities[0] == pytest.approx([0.0])
    assert not rep.accepted[0]
    assert rep.raw.shape[1] == 0 and len(rep.box) == 0
    assert rep.trials_charged[0] == 18  # 18 nonzero trials, no eval for 0.0


def test_bm_exhaustion_returns_old_position():
    prob = make_halfline(lower=-10.0, upper=1e9)
    rep = repair_one(
        [0.0], [1e9], prob, Tolerances(ineq=0.0, eq=0.0), "bm", FixedRng(0.5), 20
    )
    assert rep.positions[0] == pytest.approx([0.0])
    assert rep.velocities[0] == pytest.approx([0.0])
    assert not rep.accepted[0]
    assert rep.trials_charged[0] == 20


def test_already_feasible_step_unchanged():
    # Every particle sits on its memory and all memories coincide, so the
    # step is inertia alone: -3 + w <= -2.27 stays inside x <= 0.
    prob = make_halfline()
    for variant in REPAIRS:
        config = SwarmConfig(size=9, steps=5, topology=Topology.from_nn(2, 9), seed=0)
        collapsed = np.full((9, 1), -3.0)
        swarm = Swarm(prob, config, ChtConfig(variant), [np.random.default_rng(0)], collapsed, [0])
        swarm.velocities[:] = 1.0
        clone = np.random.default_rng()
        clone.bit_generator.state = swarm.rngs[0].bit_generator.state
        swarm.step()
        assert np.array_equal(swarm.velocities[:, 0], swarm.w_rows[:, 0])
        assert np.array_equal(swarm.positions[:, 0], -3.0 + swarm.w_rows[:, 0])
        assert swarm.run_repair_evaluations.tolist() == [0]
        clone.random((9, 1, 2))  # the velocity block, and no repair draws
        assert swarm.rngs[0].bit_generator.state == clone.bit_generator.state


def test_bmpem_factors_drawn_from_unit_and_a_half():
    prob = make_halfline()
    # a factor of 0.75 maps the step 4 to 3, landing at x = 0
    rep = repair_one([-3.0], [4.0], prob, TOL, "bmpem", FixedRng(0.5), 19)
    assert rep.positions[0] == pytest.approx([0.0])
    assert rep.velocities[0] == pytest.approx([3.0])
    assert rep.trials_charged[0] == 1


def test_repair_feasible_or_unchanged_property(toy1):
    # Through the engine, from a feasible swarm: every position stays
    # feasible, a particle whose move was dropped (zero velocity) keeps
    # its position, and a step charges at most a full ladder per particle.
    for variant in REPAIRS:
        topology = Topology.from_nn(2, 12)
        config = SwarmConfig(size=12, steps=60, topology=topology, seed=10)
        swarm = start_swarm(toy1, config, ChtConfig(variant))
        ladder = ChtConfig(variant).max_repair_trials
        for _ in range(60):
            x_old = swarm.positions.copy()
            charged = swarm.run_repair_evaluations[0]
            swarm.step()
            assert np.all(swarm.current.feasible(TOL))
            assert np.array_equal(swarm.current.positions, swarm.positions)
            dropped = np.all(swarm.velocities == 0.0, axis=1)
            assert np.array_equal(swarm.positions[dropped], x_old[dropped])
            assert swarm.run_repair_evaluations[0] - charged <= 12 * ladder


# ------------------------------------------------------------- memory update


def test_pf_never_stores_infeasible():
    assert not replaces("pf", batch([1.0]), batch([0.0], ineq=0.1))[0]
    assert replaces("pf", batch([1.0]), batch([0.5]))[0]


def test_pfpr_replaces_on_lower_cv():
    assert replaces("pfpr", batch([0.0], ineq=0.5), batch([4.0], ineq=0.2))[0]


def test_apm_replaces_on_lower_penalized_value():
    assert replaces("apm", batch([10.5]), batch([10.4]))[0]
    # 10.4 + 1e6 * 0.1 ** 2 is far above 10.5
    assert not replaces("apm", batch([10.5]), batch([10.4], ineq=0.1))[0]


def test_pfppr_override_stores_low_conflict_infeasible():
    inc = batch([2.0])
    cand = batch([0.0], ineq=0.5)
    replace = replaces("pfppr", inc, cand, FixedRng(0.95))
    inc.assign(replace, cand)
    assert inc.conflict[0] == 0.0 and inc.cv[0] == 0.5
    # below the threshold the priority rules protect the feasible memory
    assert not replaces("pfppr", batch([2.0]), cand, FixedRng(0.5))[0]
