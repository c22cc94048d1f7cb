"""Acceptance battery: ten property criteria at pinned tolerances.

Each test prints one line ``[acceptance] <criterion>: PASS/FAIL`` with the
worst observed slack and its runtime against the stated budget
(run with ``pytest tests/test_acceptance.py -v -s`` to see the lines).
"""

import math
import time
from statistics import NormalDist

import numpy as np
from scenrisk import (
    FiniteProbSpace,
    OrliczTriple,
    RandomVariable,
    RiskFunctional,
    TriState,
    avar,
    cap_at,
    cash_hull,
    cond_exp,
    conjugate_dilatation_check,
    conjugate_sharp,
    discretization_slack,
    dual_higher_order,
    exp_minus_one,
    exponential,
    extend_sup,
    f_transformed,
    fgh1_check,
    fgh2_check,
    higher_order_T,
    kusuoka_value,
    lemma21_sequence,
    linear,
    positive_part,
    power,
    random_partition,
    refinement_convergence,
    t_sharp_eta,
)
from scenrisk.duality import Density, _q_norm


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}; {elapsed:.1f}s <= {budget:g}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed <= budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def _random_space(rng, max_atoms):
    n = int(rng.integers(2, max_atoms + 1))
    if rng.random() < 0.5:
        return FiniteProbSpace.uniform(n)
    return FiniteProbSpace.from_weights(rng.uniform(0.2, 1.0, size=n))


def _random_variable(rng, max_atoms, scale=2.5):
    space = _random_space(rng, max_atoms)
    return RandomVariable(space, rng.normal(scale=scale, size=space.atom_count))


def test_criterion_1_dilatation_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = -math.inf
    for _ in range(1000):
        x = _random_variable(rng, 16)
        part = random_partition(x.space, rng)
        ce = cond_exp(x, part)
        alpha = float(rng.uniform(0.1, 1.0))
        c = float(rng.uniform(1.2, 3.0))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        families = (
            RiskFunctional.avar(alpha),
            RiskFunctional.higher_order(c, p),
            RiskFunctional.transformed(
                OrliczTriple(f=linear(c), g=power(p), h=positive_part(),
                             fgh2=TriState.HOLDS)
            ),
        )
        for rho in families:
            worst = max(worst, rho(ce) - rho(x))
    elapsed = time.perf_counter() - t0
    _report("1 dilatation monotonicity", worst <= 1e-7,
            f"worst rho(E[X|pi])-rho(X) = {worst:.2e} <= 1e-7", elapsed, 60.0)


def test_criterion_2_extension_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_eq, worst_sample, worst_final = 0.0, -math.inf, 0.0
    for i in range(500):
        x = _random_variable(rng, 12)
        if i % 2 == 0:
            rho = RiskFunctional.avar(float(rng.uniform(0.1, 1.0)))
        else:
            rho = RiskFunctional.higher_order(2.0, 2.0)
        res = extend_sup(rho, x, budget=6, seed=1000 + i)
        direct = rho(x)
        worst_eq = max(worst_eq, abs(res.value - direct))
        worst_sample = max(worst_sample, max(v for _, v in res.samples) - direct)
        curve = refinement_convergence(rho, x, depth=8)
        worst_final = max(worst_final, abs(curve[-1].value - direct))
    elapsed = time.perf_counter() - t0
    ok = worst_eq <= 1e-9 and worst_sample <= 1e-9 and worst_final <= 1e-7
    _report("2 extension identity", ok,
            f"|sup-direct| {worst_eq:.2e} <= 1e-9, sample excess {worst_sample:.2e}, "
            f"final gap {worst_final:.2e} <= 1e-7", elapsed, 60.0)


def _acceptance_inputs(n):
    nd = NormalDist()
    space = FiniteProbSpace.uniform(n)
    normal = RandomVariable(space, np.array([nd.inv_cdf((i + 0.5) / n) for i in range(n)]))
    lognormal = RandomVariable(space, np.exp(normal.values))
    k = int(round(0.3 * n))
    twopoint = RandomVariable(space, np.where(np.arange(n) < k, -3.0, 2.0))
    return normal, lognormal, twopoint


def test_criterion_3_lemma21_bounds():
    t0 = time.perf_counter()
    worst_dom, worst_l1 = -math.inf, -math.inf
    for n_atoms in (500, 1000, 2000):
        for x in _acceptance_inputs(n_atoms):
            delta = discretization_slack(x)
            absx = np.abs(x.values)
            for part, k1, eps in lemma21_sequence(x, 20):
                ce = cond_exp(x, part)
                worst_dom = max(worst_dom,
                                float(np.max(np.abs(ce.values) - (absx + k1 + 1.0 + delta))))
                worst_l1 = max(worst_l1,
                               (ce - x).l1() - (eps * (3.0 + 2.0 * k1) + delta))
    elapsed = time.perf_counter() - t0
    ok = worst_dom <= 0.0 and worst_l1 < 0.0
    _report("3 lemma21 bounds", ok,
            f"domination excess {worst_dom:.2e} <= 0, l1 excess {worst_l1:.2e} < 0",
            elapsed, 30.0)


def test_criterion_4_hull_attainment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = -math.inf
    for _ in range(100):
        x = _random_variable(rng, 8, scale=2.0)
        c = float(rng.uniform(1.2, 3.0))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        if p == 1.0 and c < 1.0:
            c = 1.5
        t = OrliczTriple(f=linear(c), g=power(p), h=positive_part(),
                         fgh2=TriState.HOLDS)
        value, s_star = cash_hull(lambda y: f_transformed(y, t), x)
        s = np.linspace(s_star - 5.0, s_star + 5.0, 10001)
        short = np.clip(s[:, None] - x.values[None, :], 0.0, None)
        grid = c * (short ** p @ x.space.probs) ** (1.0 / p) - s
        worst = max(worst, value - float(grid.min()))
    elapsed = time.perf_counter() - t0
    _report("4 hull attainment", worst <= 1e-8,
            f"worst value - grid min = {worst:.2e} <= 1e-8", elapsed, 30.0)


def test_criterion_5_rockafellar_uryasev():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(500):
        x = _random_variable(rng, 12, scale=3.0)
        alpha = float(rng.uniform(0.05, 1.0))
        worst = max(worst, abs(higher_order_T(x, 1.0 / alpha, 1.0) - avar(x, alpha)))
    elapsed = time.perf_counter() - t0
    _report("5 Rockafellar-Uryasev consistency", worst <= 1e-9,
            f"worst |T_(1/a,1) - AVaR_a| = {worst:.2e} <= 1e-9", elapsed, 10.0)


def test_criterion_6_strong_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        x = _random_variable(rng, 12)
        c = float(rng.choice([1.5, 2.0, 4.0]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        primal = higher_order_T(x, c, p)
        dual, _ = dual_higher_order(x, c, p / (p - 1.0))
        worst = max(worst, abs(primal - dual))
    elapsed = time.perf_counter() - t0
    _report("6 strong duality", worst <= 1e-6,
            f"worst |dual - primal| = {worst:.2e} <= 1e-6", elapsed, 60.0)


def test_criterion_7_kusuoka_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_below, worst_above = -math.inf, -math.inf
    for i in range(100):
        x = _random_variable(rng, 12)
        c = float(rng.choice([1.5, 2.0, 4.0]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        primal = higher_order_T(x, c, p)
        value, _ = kusuoka_value(x, c, p)
        worst_below = max(worst_below, primal - value)
        worst_above = max(worst_above, value - primal)
    coin = RandomVariable(FiniteProbSpace.uniform(2), np.array([-1.0, 1.0]))
    exemplar_gap = abs(kusuoka_value(coin, 2.0, 2.0)[0]
                       - higher_order_T(coin, 2.0, 2.0))
    elapsed = time.perf_counter() - t0
    ok = worst_below <= 1e-9 and worst_above <= 1e-6 and exemplar_gap <= 1e-9
    _report("7 Kusuoka sandwich", ok,
            f"primal-value {worst_below:.2e} <= 1e-9, value-primal {worst_above:.2e} "
            f"<= 1e-6, exemplar gap {exemplar_gap:.2e} <= 1e-9", elapsed, 120.0)


def test_criterion_8_eta_form_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    checked = 0
    mismatches = 0
    for _ in range(200):
        space = _random_space(rng, 10)
        z_raw = rng.uniform(0.0, 1.0, size=space.atom_count) ** float(rng.uniform(0.5, 3.0))
        z_raw = z_raw / float(space.probs @ z_raw)
        z = Density(space, z_raw)
        c = float(rng.choice([1.5, 2.0, 4.0]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = p / (p - 1.0)
        t = OrliczTriple(f=linear(c), g=power(p), h=positive_part())
        norm = _q_norm(z.values, space.probs, q)
        if abs(norm - c) <= 2e-9:
            continue  # boundary band: either answer is within tolerance
        checked += 1
        finite = math.isfinite(t_sharp_eta(t, z))
        if finite != (norm <= c):
            mismatches += 1
        # the dual certificate itself is always eta-feasible
        _, zstar = dual_higher_order(z.as_variable() * -1.0, c, q)
        if not math.isfinite(t_sharp_eta(t, zstar)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report("8 eta-form consistency", mismatches == 0 and checked >= 150,
            f"{mismatches} mismatches over {checked} off-boundary cases", elapsed, 30.0)


def test_criterion_9_conjugate_dilatation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    failures = 0
    for _ in range(200):
        space = _random_space(rng, 12)
        alpha = float(rng.choice([0.25, 0.5, 0.75]))
        rho = RiskFunctional.avar(alpha)
        kind = rng.random()
        if kind < 0.4:  # feasible density (bounded by 1/alpha)
            z = np.minimum(rng.uniform(0.0, 1.0, size=space.atom_count), 1.0)
            z = z / float(space.probs @ z)
            while z.max() > 1.0 / alpha:
                z = np.minimum(z, 1.0 / alpha)
                z = z / float(space.probs @ z)
            y = RandomVariable(space, -z)
        elif kind < 0.7:  # density violating the bound
            z = rng.uniform(0.0, 1.0, size=space.atom_count) ** 4
            z = z / float(space.probs @ z)
            y = RandomVariable(space, -z)
        else:  # arbitrary vector
            y = RandomVariable(space, rng.normal(size=space.atom_count))
        part = random_partition(space, rng)
        if not conjugate_dilatation_check(rho, y, part):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report("9 conjugate dilatation monotonicity", failures == 0,
            f"{failures} violations over 200 trials (tolerance 1e-5)", elapsed, 10.0)


def test_conjugate_dilatation_for_penalized_families():
    # beyond criterion 9's AVaR boxes: the T_{c,p} ball, the finite penalty
    # F*(||Z||_2) of the (exp(x) - 1, x^2, x^+) triple and the entropy penalty
    # of the (2x, x^2, exp) triple
    rng = np.random.default_rng(919)
    rhos = (RiskFunctional.higher_order(2.0, 2.0),
            RiskFunctional.transformed(
                OrliczTriple.checked(exp_minus_one(), power(2), positive_part())),
            RiskFunctional.transformed(
                OrliczTriple.checked(linear(2.0), power(2), exponential())))
    finite = densities = finite_entropy = 0
    for _ in range(100):
        space = _random_space(rng, 12)
        if rng.random() < 0.8:
            z = rng.uniform(0.0, 1.0, size=space.atom_count) ** float(rng.uniform(0.5, 4.0))
            y = RandomVariable(space, -z / float(space.probs @ z))
            densities += 1
        else:
            y = RandomVariable(space, rng.normal(size=space.atom_count))
        part = random_partition(space, rng)
        for rho in rhos:
            assert conjugate_dilatation_check(rho, y, part)
        finite += math.isfinite(conjugate_sharp(rhos[1], y))
        finite_entropy += math.isfinite(conjugate_sharp(rhos[2], y))
    assert finite >= 60
    assert finite_entropy == densities >= 60  # the entropy penalty is finite on every density


def test_criterion_10_fgh_checkers():
    t0 = time.perf_counter()
    results = {
        "c>1 holds": fgh2_check(
            OrliczTriple(f=linear(2.0), g=power(2), h=positive_part())) is TriState.HOLDS,
        "c=1 fails": fgh2_check(
            OrliczTriple(f=linear(1.0), g=power(2), h=positive_part())) is TriState.FAILS,
        "jump-F holds": fgh2_check(
            OrliczTriple(f=cap_at(2.0), g=power(2), h=positive_part())) is TriState.HOLDS,
        "fgh1 real-valued F": fgh1_check(
            OrliczTriple(f=linear(2.0), g=power(2), h=positive_part())) is TriState.HOLDS,
        "fgh1 power F": fgh1_check(
            OrliczTriple(f=power(2), g=power(3), h=positive_part())) is TriState.HOLDS,
        "fgh1 exp G": fgh1_check(
            OrliczTriple(f=linear(1.5), g=power(2), h=positive_part())) is TriState.HOLDS,
    }
    elapsed = time.perf_counter() - t0
    bad = [k for k, v in results.items() if not v]
    _report("10 FGH checkers", not bad,
            "exact tri-states" if not bad else f"wrong: {bad}", elapsed, 1.0)
