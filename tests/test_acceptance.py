"""End-to-end acceptance checks at reduced but meaningful budgets.

Each test prints one PASS/FAIL line; run with ``pytest -v`` (or ``-s``
to see the lines inline).
"""

import time

import numpy as np
import pytest

from cpso.benchmarks import estimate_feasibility_ratio, get_problem
from cpso.handlers import ChtConfig, penalized_batch, repair_moves
from cpso.problem import RecSchedule, Tolerances, _raw_batch, evaluate_batch
from cpso.harness import ExperimentConfig, run_experiment
from cpso.swarm import SwarmConfig

from conftest import make_toy1, random_batch, replaces, start_swarm

TOL = Tolerances()
SEED = 1


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}: {name} ({detail})")
    assert passed, f"{name}: {detail}"


def run(problem, kind, nn, particles, steps, runs):
    cfg = ExperimentConfig(
        problem=problem,
        cht=ChtConfig(kind),
        nn=nn,
        particles=particles,
        steps=steps,
        runs=runs,
        master_seed=SEED,
    )
    t0 = time.perf_counter()
    row = run_experiment(cfg)
    return row, time.perf_counter() - t0


@pytest.mark.slow
def test_g08_exactness():
    row, elapsed = run("g08", "pfpr", 2, 40, 2000, 5)
    ok = (
        abs(row.best_conflict - (-0.095825)) < 1e-6
        and abs(row.mean_conflict - (-0.095825)) < 1e-6
        and all(r.cv <= 1e-12 for r in row.runs)
        and elapsed < 30.0
    )
    report(
        "g08 exactness",
        ok,
        f"best {row.best_conflict:.8f} mean {row.mean_conflict:.8f} {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_g12_exactness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for kind in ("bm", "pfpr"):
        row, _ = run("g12", kind, 10, 40, 2000, 5)
        ok &= (
            abs(row.best_conflict - (-1.0)) < 1e-6
            and abs(row.mean_conflict - (-1.0)) < 1e-6
        )
        details.append(f"{kind} best {row.best_conflict:.7f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report("g12 exactness", ok, f"{'; '.join(details)} {elapsed:.1f}s")


@pytest.mark.slow
def test_g04_convergence():
    row, elapsed = run("g04", "pfpr", 10, 40, 8500, 5)
    ok = (
        abs(row.best_conflict - (-30665.538672)) < 1e-2
        and abs(row.mean_conflict - (-30665.538672)) < 1e-1
        and elapsed < 300.0
    )
    report(
        "g04 convergence",
        ok,
        f"best {row.best_conflict:.6f} mean {row.mean_conflict:.6f} {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_welded_beam_convergence():
    row, elapsed = run("welded-beam", "bm", 2, 20, 10000, 5)
    ok = abs(row.best_conflict - 1.724852) < 1e-3 and elapsed < 300.0
    report(
        "welded beam convergence",
        ok,
        f"best {row.best_conflict:.6f} {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_himmelblau_convergence():
    row, elapsed = run("himmelblau", "bmem", 10, 20, 10000, 3)
    ok = abs(row.best_conflict - (-31025.561420)) < 1e-1 and elapsed < 300.0
    report(
        "himmelblau convergence",
        ok,
        f"best {row.best_conflict:.6f} {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_g11_relaxed_equality_effect():
    with_rec, _ = run("g11", "pfpr+rec", 2, 40, 8500, 5)
    without, _ = run("g11", "pfpr", 2, 40, 8500, 5)
    ok = (
        abs(with_rec.best_conflict - 0.75) < 1e-3
        and abs(with_rec.mean_conflict - 0.75) < 1e-2
        and with_rec.mean_conflict < without.mean_conflict
    )
    report(
        "g11 relaxed equality effect",
        ok,
        f"rec mean {with_rec.mean_conflict:.6f} vs {without.mean_conflict:.6f}",
    )


@pytest.mark.slow
def test_fail_reproduction():
    t0 = time.perf_counter()
    ok = True
    for problem in ("g03", "g05", "g13"):
        for kind in ("pf", "bm"):
            cfg = ExperimentConfig(
                problem=problem,
                cht=ChtConfig(kind),
                nn=2,
                particles=20,
                steps=10,
                runs=2,
                master_seed=SEED,
                max_init_attempts=1_000_000,
            )
            row = run_experiment(cfg)
            ok &= row.failed and row.failures == 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report("infeasible-start FAIL rows", ok, f"{elapsed:.1f}s")


@pytest.mark.slow
def test_feasibility_ratios():
    targets = {
        "g02": 99.9964,
        "g04": 26.9552,
        "g08": 0.8607,
        "spring": 0.7467,
        "pressure-vessel-continuous": 75.9314,
    }
    n = 1_000_000
    t0 = time.perf_counter()
    ok = True
    worst = ""
    for name, expect in targets.items():
        got = estimate_feasibility_ratio(get_problem(name), n, TOL, seed=SEED)
        p = expect / 100.0
        sigma = 100.0 * np.sqrt(p * (1.0 - p) / n)
        if abs(got - expect) >= 4.0 * sigma:
            ok = False
            worst = f"{name} {got:.4f} vs {expect:.4f}"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report("feasibility ratios", ok, worst or f"all within 4 sigma, {elapsed:.1f}s")


# ------------------------------------------------------------ property suites


def test_property_repair_postcondition():
    toy = make_toy1()
    rng = np.random.default_rng(SEED)
    starts = []
    while len(starts) < 1000:
        x = rng.uniform(-2.0, 2.0, 2)
        if x.sum() <= 1.0:
            starts.append(x)
    x_old = np.array(starts)
    v = rng.normal(0.0, 2.0, (1000, 2))
    ok = True
    for k, variant in enumerate(("bm", "bmem", "bmpem")):
        rows = np.arange(k, 1000, 3)
        start, v_new = x_old[rows], v[rows]
        x_new, raw, box, feasible = _raw_batch(toy, start + v_new, TOL)
        bad = np.flatnonzero(~feasible)
        runs = np.zeros(bad.size, dtype=np.intp)
        accepted, _ = repair_moves(
            bad, start, x_new, v_new, raw, box, toy, TOL, variant, [rng], runs, 19
        )
        ok &= bool(np.all(evaluate_batch(toy, x_new[bad]).feasible(TOL)))
        kept = bad[~accepted]
        ok &= bool(np.array_equal(x_new[kept], start[kept]))
    report("repair feasibility postcondition", ok, "1000 cases")


def test_property_velocity_clamp():
    prob = get_problem("g04")
    config = SwarmConfig(size=12, steps=60, nn=2, tolerances=TOL)
    swarm = start_swarm(prob, config, ChtConfig("pfpr"), SEED)
    ok = True
    for _ in range(60):
        swarm.step()
        ok &= bool(np.all(np.abs(swarm.velocities) <= prob.vmax))
    report("velocity clamp invariant", ok, "60 steps, 12 particles")


def test_property_comparator_structure():
    rng = np.random.default_rng(SEED)
    a, b = random_batch(rng, 10_000), random_batch(rng, 10_000)

    def keys(ev):
        feas = ev.cv <= TOL.ineq
        return zip(np.where(feas, 0, 1), np.where(feas, ev.conflict, ev.cv))

    a_kept = ~replaces("pfpr", a, b)
    ok = list(a_kept) == [ka <= kb for ka, kb in zip(keys(a), keys(b))]
    report("priority comparator lexicographic", ok, "10000 pairs")


def test_property_probabilistic_prob_one():
    rng = np.random.default_rng(SEED)
    a, b = random_batch(rng, 1000), random_batch(rng, 1000)
    got = replaces("pfppr", a, b, rng, prob=1.0)
    ok = bool(np.array_equal(got, replaces("pfpr", a, b)))
    report("probabilistic rule at threshold one", ok, "1000 pairs")


def test_property_penalty_bound():
    ev = random_batch(np.random.default_rng(SEED), 1000)
    fp = penalized_batch(ev)
    ok = bool(np.all(fp >= ev.conflict)) and bool(
        np.array_equal(fp == ev.conflict, ev.cv == 0.0)
    )
    report("penalized conflict lower bound", ok, "1000 points")


def test_property_equality_schedule_switch():
    ok = True
    for t_max in (100, 2000, 8500, 10000):
        sched = RecSchedule(initial_tol=7.5)
        t_switch = int(np.ceil(0.8 * t_max))
        ok &= sched.tolerance_at(t_switch, t_max) == 1e-12
        ok &= sched.tolerance_at(t_switch - 1, t_max) > 1e-12
    report("equality tolerance switch step", ok, "4 horizons")


def test_property_discrete_grid():
    prob = get_problem("pressure-vessel-mixed")
    config = SwarmConfig(size=12, steps=50, nn=2, tolerances=TOL)
    swarm = start_swarm(prob, config, ChtConfig("pfpr"), SEED)
    ok = True
    for _ in range(50):
        swarm.step()
        ratio = swarm.positions[:, :2] / 0.0625
        ok &= bool(np.allclose(ratio, np.round(ratio), atol=1e-9))
    report("discrete grid invariant", ok, "50 steps on mixed vessel")


def test_property_rerun_determinism():
    cfg = ExperimentConfig(
        problem="g08",
        cht=ChtConfig("pfppr"),
        nn=2,
        particles=15,
        steps=200,
        runs=3,
        master_seed=SEED,
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    ok = (
        a.best_conflict == b.best_conflict
        and a.mean_conflict == b.mean_conflict
        and np.array_equal(a.best_position, b.best_position)
        and [r.evaluations for r in a.runs] == [r.evaluations for r in b.runs]
    )
    report("bit-identical rerun determinism", ok, "3 runs compared twice")
