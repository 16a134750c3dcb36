"""Property tests of the array functions behind ``Swarm.step``.

Each function replaces a per-particle loop, so each is checked against
the loop it replaces: the lbest lookup against a per-particle
``lexsort``, the batched repair against one-row calls, and both blocks
of per-particle draws against draws taken one particle at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpso.handlers import ChtConfig, priority_keys, repair_moves, replacement_mask
from cpso.problem import BatchEval, Tolerances, evaluate, evaluate_batch
from cpso.swarm import Topology, lbest_index

from conftest import make_toy1

TOL = Tolerances()
TOY = make_toy1()
REPAIRS = ("bm", "bmem", "bmpem")

# ----------------------------------------------------------------- lbest

KEY_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, np.inf])


@st.composite
def topologies(draw):
    s = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["ring", "fully-connected", "wheel"]))
    if kind == "ring":
        return Topology("ring", s, window=draw(st.integers(3, s)))
    if kind == "wheel":
        return Topology("wheel", s, hub=draw(st.integers(0, s - 1)))
    return Topology(kind, s)


@settings(deadline=None)
@given(topologies(), st.data())
def test_lbest_index_matches_lexsort(topology, data):
    s = topology.swarm_size
    keys = st.lists(KEY_VALUES | st.floats(-3, 3), min_size=s, max_size=s)
    primary = np.array(data.draw(keys))
    secondary = np.array(data.draw(keys))
    neighbors = topology.neighbor_matrix()
    expect = []
    for i in range(s):
        c = np.flatnonzero(neighbors[i])
        # lexsort: last key is most significant; ties keep the lowest index.
        expect.append(c[np.lexsort((c, secondary[c], primary[c]))[0]])
    assert list(lbest_index(neighbors, primary, secondary)) == expect


# ---------------------------------------------------------------- repair

# Move kinds on the toy problem (x1 + x2 <= 1 on [-2, 2]^2), from a
# feasible start: "box" steps leave the box below both lower bounds and
# keep x1 + x2 <= 1, so bmem uses its down-only ladder; "constraint"
# steps break x1 + x2 <= 1, so bmem uses its full ladder.
MOVES = {
    "box": (-8.0, -4.5),
    "constraint": (4.5, 8.0),
    "any": (-4.0, 4.0),
}


@st.composite
def infeasible_moves(draw):
    k = draw(st.integers(1, 8))
    x_old, v = [], []
    for _ in range(k):
        x1 = draw(st.floats(-2.0, 2.0))
        x_old.append([x1, draw(st.floats(-2.0, min(2.0, 1.0 - x1)))])
        low, high = MOVES[draw(st.sampled_from(sorted(MOVES)))]
        v.append([draw(st.floats(low, high)) for _ in range(2)])
    x_old, v = np.array(x_old), np.array(v)
    full = evaluate_batch(TOY, x_old + v)
    bad = ~full.feasible(TOL)
    return x_old[bad], v[bad], full.take(bad)


def _repair(moves, variant, seed):
    x_old, v, full = moves
    rng = np.random.default_rng(seed)
    rep = repair_moves(x_old, v, full, TOY, TOL, variant, rng, 19)
    return rep, rng


@settings(deadline=None)
@given(infeasible_moves(), st.sampled_from(REPAIRS), st.integers(0, 2**32))
def test_batched_repair_equals_one_row_calls(moves, variant, seed):
    x_old, v, full = moves
    rep, rng = _repair(moves, variant, seed)
    one_rng = np.random.default_rng(seed)
    accepted_positions = []
    for r in range(len(x_old)):
        one = repair_moves(
            x_old[r : r + 1], v[r : r + 1], full.take([r]), TOY, TOL, variant, one_rng, 19
        )
        assert np.array_equal(one.positions[0], rep.positions[r])
        assert np.array_equal(one.velocities[0], rep.velocities[r])
        assert one.accepted[0] == rep.accepted[r]
        assert one.trials_charged[0] == rep.trials_charged[r]
        accepted_positions.extend(one.evaluation.positions)
    assert np.array_equal(np.reshape(accepted_positions, (-1, 2)), rep.evaluation.positions)
    assert rng.bit_generator.state == one_rng.bit_generator.state


@settings(deadline=None)
@given(infeasible_moves(), st.sampled_from(REPAIRS), st.integers(0, 2**32))
def test_repair_postcondition(moves, variant, seed):
    x_old, _, _ = moves
    rep, _ = _repair(moves, variant, seed)
    assert np.array_equal(rep.evaluation.positions, rep.positions[rep.accepted])
    for r in range(len(x_old)):
        if rep.accepted[r]:
            assert evaluate(TOY, rep.positions[r], TOL).nac == 0
        else:
            assert np.array_equal(rep.positions[r], x_old[r])
            assert np.all(rep.velocities[r] == 0.0)
        assert 1 <= rep.trials_charged[r] <= 19


# ------------------------------------------------------------ draw order


@settings(deadline=None)
@given(infeasible_moves(), st.integers(0, 2**32))
def test_bmpem_block_draws_as_per_particle_blocks(moves, seed):
    _, rng = _repair(moves, "bmpem", seed)
    one_rng = np.random.default_rng(seed)
    for _ in range(len(moves[0])):
        one_rng.uniform(0.0, 1.5, 19)
    assert rng.bit_generator.state == one_rng.bit_generator.state


def _batch(conflict, cv):
    m = len(conflict)
    return BatchEval(
        positions=np.zeros((m, 1)),
        conflict=np.array(conflict),
        ineq_violations=np.zeros((m, 0)),
        eq_violations=np.zeros((m, 0)),
        box_violations=np.zeros((m, 1)),
        cv=np.array(cv),
    )


@st.composite
def memory_pairs(draw):
    s = draw(st.integers(1, 12))

    def column(values):
        return draw(st.lists(values, min_size=s, max_size=s))

    small = st.sampled_from([0.0, 0.5, 1.0])
    cand = _batch(column(small), column(small))
    inc = _batch(column(small), column(small))
    flags = st.booleans()
    return cand, inc, np.array(column(flags)), np.array(column(flags))


@settings(deadline=None)
@given(memory_pairs(), st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(0, 2**32))
def test_pfppr_block_equals_per_particle_draws(pair, prob, seed):
    cand, inc, cf, nf = pair
    rng = np.random.default_rng(seed)
    cht = ChtConfig("pfppr", prob=prob)
    got = replacement_mask(cht, cand, cf, inc, priority_keys(inc, nf), rng)

    one_rng = np.random.default_rng(seed)
    expect = []
    for i in range(len(cand)):
        if cf[i] and nf[i]:
            expect.append(cand.conflict[i] < inc.conflict[i])
        elif one_rng.random() < prob:
            expect.append(cf[i] if cf[i] != nf[i] else cand.cv[i] < inc.cv[i])
        else:
            expect.append(cand.conflict[i] < inc.conflict[i])
    assert list(got) == expect
    assert rng.bit_generator.state == one_rng.bit_generator.state
