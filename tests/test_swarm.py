import dataclasses

import numpy as np
import pytest

from cpso.benchmarks import get_problem
from cpso.handlers import KINDS, ChtConfig, priority_keys, sort_keys
from cpso.problem import Problem, RecSchedule, Tolerances, evaluate_batch
from cpso.swarm import (
    COEFFICIENT_PRESETS,
    InitializationFailure,
    Swarm,
    SwarmConfig,
    Topology,
    initial_positions,
    lbest_index,
)

from conftest import FixedRng, make_toy1, start_swarm

TOL = Tolerances()


def make_config(size=9, steps=5, seed=0, nn=2):
    return SwarmConfig(
        size=size,
        steps=steps,
        topology=Topology.from_nn(nn, size),
        seed=seed,
    )


# -------------------------------------------------------------- coefficients


def test_coefficient_presets_exact():
    assert COEFFICIENT_PRESETS.tolist() == [
        [0.5, 2.0, 2.0],
        [0.7298, 1.49609, 1.49609],
        [0.7, 2.0, 2.0],
    ]


def coefficients(size, runs=1):
    """Every row's ``(w, iw, sw)`` in a swarm of ``runs`` runs of ``size``."""
    rngs = [np.random.default_rng(r) for r in range(runs)]
    positions = np.zeros((runs * size, 1))
    config = make_config(size=size)
    swarm = Swarm(line(), config, ChtConfig("pfpr"), rngs, positions, [0] * runs)
    rows = (swarm.w_rows, swarm.iw_rows, swarm.sw_rows)
    return np.column_stack([r[:, 0] for r in rows])


def test_coefficient_assignment_by_thirds():
    assert np.array_equal(coefficients(20)[0], COEFFICIENT_PRESETS[0])
    assert np.array_equal(coefficients(20)[19], COEFFICIENT_PRESETS[2])
    assert np.array_equal(coefficients(21)[7], COEFFICIENT_PRESETS[1])


def test_coefficient_remainder_joins_last_third():
    # size 20: thirds of 6, indices 12..19 take the last preset
    groups = coefficients(20)
    assert np.array_equal(groups[:6], np.tile(COEFFICIENT_PRESETS[0], (6, 1)))
    assert np.array_equal(groups[6:12], np.tile(COEFFICIENT_PRESETS[1], (6, 1)))
    assert np.array_equal(groups[12:], np.tile(COEFFICIENT_PRESETS[2], (8, 1)))
    # Every run of a swarm takes them the same way.
    assert np.array_equal(coefficients(20, runs=3), np.tile(groups, (3, 1)))


# ------------------------------------------------------------------ topology


def candidates(topology, i):
    """Sorted candidate indices of particle ``i``: row ``i`` of the lists."""
    return sorted(topology.neighbors[i].tolist())


def test_ring_window3_candidates():
    topo = Topology("ring", 5, window=3)
    assert candidates(topo, 0) == [0, 1, 4]
    assert candidates(topo, 2) == [1, 2, 3]


def test_ring_even_window_favors_successor():
    topo = Topology("ring", 6, window=4)
    assert candidates(topo, 0) == [0, 1, 2, 5]


def test_fully_connected_sees_everyone():
    # One list, shared by every particle.
    topo = Topology("fully-connected", 7)
    assert len(topo.neighbors) == 1
    assert candidates(topo, 0) == list(range(7))


def test_from_nn_mapping():
    assert Topology.from_nn(2, 20).kind == "ring"
    assert Topology.from_nn(2, 20).window == 3
    assert Topology.from_nn(10, 40).window == 11
    assert Topology.from_nn(19, 20).kind == "fully-connected"
    assert Topology.from_nn(39, 40).kind == "fully-connected"


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology("ring", 5, window=7)
    with pytest.raises(ValueError):
        Topology("mesh", 5)


# ------------------------------------------------------------------- updates


def line(lower=-2.0, upper=2.0):
    """Unconstrained 1-D problem: minimize x on [lower, upper]."""
    return Problem(
        name="line",
        lower=np.array([lower]),
        upper=np.array([upper]),
        objective=lambda x: x[:, 0],
    )


def staged_swarm(problem, positions, velocities, memories, rng, nn=2):
    """A pfpr swarm with the given state and generator, ready to step."""
    size = len(positions)
    config = make_config(size=size, nn=nn)
    swarm = Swarm(problem, config, ChtConfig("pfpr"), [rng], np.array(positions, dtype=float), [0])
    swarm.velocities = np.array(velocities, dtype=float)
    swarm.pbest = evaluate_batch(problem, np.array(memories, dtype=float))
    swarm.pbest_primary, swarm.pbest_secondary = sort_keys(
        swarm.cht, swarm.pbest, swarm.pbest.feasible(swarm.tolerances)
    )
    return swarm


def test_velocity_vanishes_at_joint_attractor():
    # Particle 0 sits at rest on its memory, the swarm's best, so its
    # memory and neighbourhood best are its position; whatever the draws,
    # it stays while the others are pulled towards it.
    x = [[-1.5], [0.5], [1.0], [0.2], [-0.3], [0.9]]
    swarm = staged_swarm(line(), x, np.zeros((6, 1)), x, FixedRng(0.42), nn=5)
    swarm.step()
    assert swarm.velocities[0] == pytest.approx([0.0])
    assert swarm.positions[0] == pytest.approx([-1.5])
    assert np.all(swarm.velocities[1:] < 0.0)


def test_velocity_forced_unit_draws():
    # x = 0, v = 0 and every memory at 1: with unit draws the velocity is
    # iw + sw, 4 for the first and last presets.
    zeros, ones = np.zeros((6, 1)), np.ones((6, 1))
    swarm = staged_swarm(line(-10.0, 10.0), zeros, zeros, ones, FixedRng(1.0))
    swarm.step()
    iw_plus_sw = swarm.iw_rows[:, 0] + swarm.sw_rows[:, 0]
    assert swarm.velocities[:, 0] == pytest.approx(iw_plus_sw)
    assert swarm.velocities[0] == pytest.approx([4.0])


def test_velocity_clamped_to_half_span():
    # No attraction (x on every memory, zero draws): w * v of 5 or more
    # clamps to vmax = 2, in both directions.
    v = [[10.0], [-10.0], [10.0], [-10.0], [10.0], [-10.0]]
    swarm = staged_swarm(line(), np.zeros((6, 1)), v, np.zeros((6, 1)), FixedRng(0.0))
    swarm.step()
    assert swarm.velocities[:, 0] == pytest.approx([2.0, -2.0] * 3)


def test_position_update_continuous(toy1):
    x = np.array([1.5, 0.0])
    snapped = toy1.snap_to_grid(x)
    assert np.array_equal(snapped, x)
    assert snapped is not x


def test_position_update_snaps_discrete():
    vessel = get_problem("pressure-vessel-mixed")
    x = vessel.snap_to_grid(np.array([1.03, 1.03125, 50.3, 100.7]))
    assert x[0] == pytest.approx(1.0)
    assert x[1] == pytest.approx(1.0)  # exact half-step tie goes down
    assert list(x[2:]) == [50.3, 100.7]  # continuous dimensions untouched


# ------------------------------------------------------------ initialization


def test_init_positions_in_box_velocities_zero(toy1):
    swarm = start_swarm(toy1, make_config(), ChtConfig("pfpr"))
    assert np.all(swarm.positions >= toy1.lower)
    assert np.all(swarm.positions <= toy1.upper)
    assert np.all(swarm.velocities == 0.0)
    assert swarm.evaluations == 9


def test_feasible_init_rejection_sampling(toy1):
    swarm = start_swarm(toy1, make_config(size=20), ChtConfig("pf"))
    assert np.all(swarm.current.feasible(TOL))
    assert swarm.evaluations >= 20


def test_feasible_init_failure_on_empty_region():
    g03 = get_problem("g03")
    with pytest.raises(InitializationFailure):
        start_swarm(g03, make_config(), ChtConfig("pf"), max_attempts_per_particle=5000)


def test_mixed_discrete_init_on_grid():
    vessel = get_problem("pressure-vessel-mixed")
    swarm = start_swarm(vessel, make_config(size=12), ChtConfig("pfpr"))
    ratio = swarm.positions[:, :2] / 0.0625
    assert np.allclose(ratio, np.round(ratio))


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(size=2)
    with pytest.raises(ValueError):
        SwarmConfig(size=9, steps=0, topology=Topology.from_nn(2, 9), seed=0)
    with pytest.raises(ValueError):
        SwarmConfig(size=9, steps=5, topology=Topology.from_nn(2, 8), seed=0)


# ------------------------------------------------------------------ stepping


def test_zero_attraction_fixed_point(toy1):
    # a collapsed swarm: identical positions, memories, zero velocities
    collapsed = np.full((9, 2), -1.0)
    swarm = Swarm(toy1, make_config(), ChtConfig("pfpr"), [np.random.default_rng(0)], collapsed, [0])
    for _ in range(3):
        swarm.step()
        assert np.all(swarm.positions == np.array([-1.0, -1.0]))
        assert np.all(swarm.velocities == 0.0)


def test_velocity_clamp_invariant(toy1):
    swarm = start_swarm(toy1, make_config(steps=50, seed=3), ChtConfig("pfpr"))
    for _ in range(50):
        swarm.step()
        assert np.all(np.abs(swarm.velocities) <= toy1.vmax + 1e-15)


def test_discrete_grid_invariant_during_search():
    vessel = get_problem("pressure-vessel-mixed")
    swarm = start_swarm(vessel, make_config(size=12, steps=30, seed=4), ChtConfig("pfpr"))
    for _ in range(30):
        swarm.step()
        ratio = swarm.positions[:, :2] / 0.0625
        assert np.allclose(ratio, np.round(ratio))


def test_evaluation_count_per_step(toy1):
    swarm = start_swarm(toy1, make_config(size=9, steps=10, seed=5), ChtConfig("pfpr"))
    for t in range(1, 11):
        swarm.step()
        assert swarm.evaluations == 9 * (t + 1)


def test_bit_identical_trajectories(toy1):
    runs = []
    for _ in range(2):
        swarm = start_swarm(toy1, make_config(size=9, steps=20, seed=6), ChtConfig("pfpr"))
        for _ in range(20):
            swarm.step()
        runs.append((swarm.positions.copy(), swarm.pbest.conflict.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_step_reproducible_from_documented_rng_order(toy1):
    # Replaying the documented draw order against a pre-step snapshot
    # must reproduce the step exactly, confirming synchronous lbest use.
    config = make_config(size=9, steps=5, seed=7)
    swarm = start_swarm(toy1, config, ChtConfig("pfpr"))
    for _ in range(3):
        swarm.step()

    x0 = swarm.positions.copy()
    v0 = swarm.velocities.copy()
    pbest0 = swarm.pbest.positions.copy()
    keys = priority_keys(swarm.pbest, swarm.pbest.feasible(swarm.tolerances))
    lbest = pbest0[lbest_index(swarm.config.topology.neighbors, *keys)]
    rng_clone = np.random.default_rng(np.random.SeedSequence(7))
    # consume exactly what init and the three steps consumed
    rng_clone.random((9, 2))
    for _ in range(3):
        rng_clone.random((9, 2, 2))
    u = rng_clone.random((9, 2, 2))
    expect_v = np.clip(
        swarm.w_rows[:, 0][:, None] * v0
        + swarm.iw_rows[:, 0][:, None] * u[:, :, 0] * (pbest0 - x0)
        + swarm.sw_rows[:, 0][:, None] * u[:, :, 1] * (lbest - x0),
        -toy1.vmax,
        toy1.vmax,
    )
    swarm.step()
    assert np.array_equal(swarm.velocities, expect_v)
    assert np.array_equal(swarm.positions, x0 + expect_v)


def test_pf_memory_stays_feasible(toy1):
    swarm = start_swarm(toy1, make_config(size=9, steps=40, seed=8), ChtConfig("pf"))
    for _ in range(40):
        swarm.step()
        assert np.all(swarm.pbest.feasible(TOL))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["g04", "g11"])
def test_carried_feasibility_masks_describe_the_state(name, kind):
    # The swarm carries the current positions' feasibility mask and the
    # memories' sort keys from step to step instead of recomputing them.
    # It starts from uniform positions whatever the technique, so repair
    # also keeps infeasible positions, and g11's equality makes the +rec
    # tolerance move.
    problem = get_problem(name)
    cht = ChtConfig(kind)
    if cht.uses_rec:
        cht = dataclasses.replace(cht, rec=RecSchedule.for_problem(problem))
    rng = np.random.default_rng(3)
    config = make_config(size=12, steps=30)
    swarm = Swarm(problem, config, cht, [rng], problem.sample_uniform(rng, 12), [0])
    for _ in range(30):
        swarm.step()
        tol = swarm.tolerances
        primary, secondary = sort_keys(cht, swarm.pbest, swarm.pbest.feasible(tol))
        assert swarm.pbest_primary.tobytes() == primary.tobytes()
        assert swarm.pbest_secondary.tobytes() == secondary.tobytes()
        if cht.uses_penalty:
            assert swarm.current_feasible is None
        else:
            assert np.array_equal(swarm.current_feasible, swarm.current.feasible(tol))


def test_rec_without_schedule_is_rejected():
    # Drawing a run's start and building its swarm both state the
    # tolerances in force at step 1, which a +rec technique cannot
    # without its schedule.
    problem = get_problem("g11")
    cht = ChtConfig("pfpr+rec", rec=None)
    config = make_config(size=6, steps=10)
    message = "REC technique configured without a schedule"
    with pytest.raises(ValueError, match=message):
        initial_positions(problem, config, cht)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=message):
        Swarm(problem, config, cht, [rng], problem.sample_uniform(rng, 6), [0])


def test_repair_keeps_positions_feasible(toy1):
    swarm = start_swarm(toy1, make_config(size=9, steps=40, seed=9), ChtConfig("bm"))
    for _ in range(40):
        swarm.step()
        assert np.all(swarm.current.feasible(TOL))
    assert swarm.evaluations >= 9 * 41
    assert swarm.evaluations == 9 * 41 + swarm.repair_evaluations + (
        swarm.init_evaluations - 9
    )
