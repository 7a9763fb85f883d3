"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the criteria are property- and trend-based because the reference
figures plot averages over unspecified random scenarios.
"""

import math
import time

import numpy as np

from pinchslp.ao import fixed_uniform_placement, random_placement
from pinchslp.bench import (
    ExperimentConfig,
    emit_csv,
    generate_scenario,
    run_convergence,
    run_power_vs_numpas,
    run_power_vs_sinr,
)
from pinchslp.channel import ci_margin, effective_channels, received_lambda
from pinchslp.geometry import MovableRegion, validate_placement
from pinchslp.oracles import active_set_qp_oracle, fd_gradient, grid_search_position
from pinchslp.placement import (
    PGDConfig,
    SmoothingParams,
    SubproblemTerms,
    _solve_region,
    build_subproblem_terms,
    pgd_solve,
    pick_eps,
    subproblem_objective,
    subproblem_gradient,
)
from pinchslp.precoder import (
    build_ci_qp,
    db_to_linear,
    recover_beam_matrix,
    solve_min_power,
)

SEED = 2026
NOISE_W = 1e-11
THETA = math.pi / 4
GRID_STEP = 1e-4


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_gradient_terms(rng, num_users=4):
    """Random subproblem data with random wavenumbers: the derivative formula
    is algebraic in beta0/beta1, and order-1 wavenumbers keep the h = 1e-6
    stencil inside the smoothed kink's resolution."""
    K = num_users
    beta0 = float(rng.uniform(0.3, 3.0))
    return SubproblemTerms(
        amp=rng.uniform(0, 1.0, K),
        phase_off=rng.uniform(-np.pi, np.pi, (K, K)),
        user_x=rng.uniform(0, 20, K),
        user_y=rng.uniform(0, 20, K),
        waveguide_y=float(rng.uniform(0, 20)),
        height=5.0,
        beta0=beta0,
        beta1=1.4 * beta0,
        tan_th=float(rng.uniform(0.3, 1.5)),
    )


def precoder_driven_terms(cfg, trial, rng):
    """One in-context single-antenna subproblem: beams from an actual
    minimum-power solve on a random 28 GHz scenario."""
    geom, symbols = generate_scenario(cfg, trial, num_pas=5)
    gamma = np.full(cfg.num_users, 100.0)
    snap = effective_channels(geom, fixed_uniform_placement(geom), cfg.params)
    sol = solve_min_power(build_ci_qp(snap, symbols, gamma, cfg.noise_w, cfg.theta_th))
    W = recover_beam_matrix(sol.x_opt, symbols)
    n = int(rng.integers(0, cfg.num_waveguides))
    return build_subproblem_terms(geom, n, W, symbols.s, cfg.params, cfg.theta_th)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    samples = 0
    worst = 0.0
    while samples < 1000:
        terms = random_gradient_terms(rng)
        x = float(rng.uniform(0.5, 19.5))
        # kappa large enough that the h = 1e-6 stencil resolves the smoothed
        # kink; the derivative formula under test is temperature-independent
        eps = pick_eps(terms, x, SmoothingParams(kappa=1e-2))
        bar = np.empty((4, 4))
        hat = np.empty((4, 4))
        from pinchslp.oracles import phi_branches

        for m in range(4):
            for k in range(4):
                bar[m, k], hat[m, k] = phi_branches(terms, x, m, k)
        if np.min(np.abs(bar - hat)) < 1e-8:  # exact branch ties excluded
            continue
        grad = subproblem_gradient(terms, x, eps)
        fd = fd_gradient(lambda t: subproblem_objective(terms, t, eps), x, 1e-6)
        worst = max(worst, abs(grad - fd) / max(abs(fd), 1e-12))
        samples += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(
        "criterion 1 (gradient vs finite differences)",
        ok,
        f"{samples} samples, worst rel err {worst:.2e} (<=1e-5), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_smoothing_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    evaluations = 0
    max_low = -np.inf  # most negative (phi - max); must stay >= 0
    max_high = -np.inf  # largest (phi - max - eps*log2); must stay <= 0
    while evaluations < 100_000:
        terms = random_gradient_terms(rng) if rng.random() < 0.5 else None
        if terms is None:
            # carrier-scale terms as well
            beta0 = 586.8366061464709
            terms = SubproblemTerms(
                amp=rng.uniform(0, 0.2, 4),
                phase_off=rng.uniform(-np.pi, np.pi, (4, 4)),
                user_x=rng.uniform(0, 20, 4),
                user_y=rng.uniform(0, 20, 4),
                waveguide_y=float(rng.uniform(0, 20)),
                height=5.0,
                beta0=beta0,
                beta1=1.4 * beta0,
                tan_th=1.0,
            )
        eps = float(10 ** rng.uniform(-12, -2))
        xs = rng.uniform(0, 20, 64)
        from pinchslp.placement import _all_branches

        bar, hat, *_ = _all_branches(terms, xs)
        phi = eps * np.logaddexp(bar / eps, hat / eps)
        gap = phi - np.maximum(bar, hat)
        # the lower bound holds up to float rounding of branch-scale values
        den = np.maximum(1.0, np.abs(bar) + np.abs(hat))
        max_low = max(max_low, float((-gap / den).max()))
        max_high = max(max_high, float(gap.max() - eps * math.log(2)))
        evaluations += gap.size
    elapsed = time.perf_counter() - t0
    ok = max_low <= 1e-14 and max_high <= 1e-18 and elapsed < 10.0
    report(
        "criterion 2 (log-sum-exp sandwich)",
        ok,
        f"{evaluations} evaluations, lower rounding slack {max_low:.1e} (<=1e-14), "
        f"upper slack {max_high:.1e}, {elapsed:.1f}s (<10s)",
    )


def test_criterion_3_qp_certification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    cfg = ExperimentConfig(master_seed=SEED + 2)
    worst_rel = 0.0
    worst_kkt = 0.0
    for i in range(100):
        K = int(rng.integers(2, 5))
        sub = ExperimentConfig(num_users=K, num_pas=3, master_seed=SEED + 2)
        geom, symbols = generate_scenario(sub, i, num_pas=3)
        x = random_placement(geom, [SEED + 2, i])
        snap = effective_channels(geom, x, cfg.params)
        gamma = np.full(K, db_to_linear(float(rng.uniform(10, 20))))
        qp = build_ci_qp(snap, symbols, gamma, NOISE_W, THETA)
        sol = solve_min_power(qp)
        oracle = active_set_qp_oracle(qp)
        assert oracle.feasible
        worst_rel = max(worst_rel, abs(sol.power - oracle.power) / oracle.power)
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    # single-user closed form gamma*sigma^2/|h|^2
    from pinchslp.channel import ChannelSnapshot
    from pinchslp.precoder import psk_symbols

    h = 1.7052e-4
    rows = np.array([[h + 0j]])
    snap1 = ChannelSnapshot(
        effective=rows, raw=rows[:, :, None], distances=np.ones((1, 1, 1))
    )
    qp1 = build_ci_qp(
        snap1,
        psk_symbols([0], 4),
        np.array([100.0]),
        NOISE_W,
        THETA,
    )
    closed = abs(solve_min_power(qp1).power - 100.0 * NOISE_W / h**2) / (
        100.0 * NOISE_W / h**2
    )
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and worst_kkt <= 1e-9 and closed <= 1e-8 and elapsed < 30.0
    report(
        "criterion 3 (QP vs enumeration oracle)",
        ok,
        f"100 instances, worst power rel err {worst_rel:.2e} (<=1e-6), "
        f"worst KKT {worst_kkt:.2e} (<=1e-9), closed form {closed:.2e} (<=1e-8), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_4_pgd_vs_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    cfg = ExperimentConfig(master_seed=SEED)
    width = cfg.params.guide_wavelength  # one basin period scale per region
    local_ok = 0
    global_ok = 0
    n = 50
    for trial in range(n):
        terms = precoder_driven_terms(cfg, trial, rng)
        lo = float(rng.uniform(0, 20 - width))
        region = MovableRegion(lo, lo + width)
        x_warm = float(rng.uniform(region.lower, region.upper))
        eps = pick_eps(terms, x_warm, SmoothingParams())

        # plain PGD must sit at a local minimum up to grid resolution: grid
        # slack = step x empirical Lipschitz (max adjacent grid difference)
        xp = pgd_solve(terms, region, eps, PGDConfig(), x_warm)
        fp = subproblem_objective(terms, xp, eps)
        win = MovableRegion(
            max(region.lower, xp - 1e-3), min(region.upper, xp + 1e-3)
        )
        _, f_win = grid_search_position(terms, win, eps, GRID_STEP)
        wgrid = np.arange(win.lower, win.upper + GRID_STEP, GRID_STEP)
        wslack = float(np.max(np.abs(np.diff(subproblem_objective(terms, wgrid, eps)))))
        local_ok += fp <= f_win + wslack

        # restart mode must reach the global grid minimum within the slack
        _, f_glob = grid_search_position(terms, region, eps, GRID_STEP)
        ggrid = np.arange(region.lower, region.upper + GRID_STEP, GRID_STEP)
        gslack = float(np.max(np.abs(np.diff(subproblem_objective(terms, ggrid, eps)))))
        xr = _solve_region(terms, region, eps, PGDConfig(restarts=3), x_warm)
        fr = subproblem_objective(terms, xr, eps)
        global_ok += fr <= f_glob + gslack
    elapsed = time.perf_counter() - t0
    ok = local_ok == n and global_ok >= 0.9 * n and elapsed < 60.0
    report(
        "criterion 4 (PGD vs grid oracle)",
        ok,
        f"local-minimum certificate {local_ok}/{n} (=all), "
        f"restart mode at global minimum {global_ok}/{n} (>=45), {elapsed:.1f}s (<60s)",
    )


def test_criterion_5_power_vs_sinr_trends():
    t0 = time.perf_counter()
    gammas = (10.0, 14.0, 18.0, 20.0)
    cfg = ExperimentConfig(gamma_db=gammas, num_pas=5, trials=50, master_seed=SEED)
    records = run_power_vs_sinr(cfg)
    avg = {}
    for scheme in cfg.schemes:
        for g in gammas:
            vals = [r.power_w for r in records if r.scheme == scheme and r.gamma_db == g]
            assert len(vals) == 50 and all(math.isfinite(v) for v in vals)
            avg[(scheme, g)] = float(np.mean(vals))
    guard_ok = all(avg[("proposed", g)] <= avg[("fixed", g)] for g in gammas)
    order_ok = all(avg[("fixed", g)] < avg[("conventional", g)] for g in gammas)
    mono_ok = all(
        avg[(s, a)] < avg[(s, b)]
        for s in cfg.schemes
        for a, b in zip(gammas, gammas[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = guard_ok and order_ok and mono_ok and elapsed < 300.0
    report(
        "criterion 5 (power vs SINR target trends)",
        ok,
        f"proposed<=fixed {guard_ok}, fixed<conventional {order_ok}, "
        f"strictly increasing in target {mono_ok}, {elapsed:.0f}s (<300s)",
    )


def test_criterion_6_power_vs_numpas_trends():
    t0 = time.perf_counter()
    Ls = (1, 3, 5, 7)
    cfg = ExperimentConfig(
        gamma_db=20.0,
        num_pas=Ls,
        trials=50,
        master_seed=SEED,
        schemes=("proposed", "fixed", "random"),
    )
    records = run_power_vs_numpas(cfg)
    mean_w = {}
    mean_dbm = {}
    for scheme in cfg.schemes:
        for L in Ls:
            vals = [r.power_w for r in records if r.scheme == scheme and r.num_pas == L]
            assert len(vals) == 50
            mean_w[(scheme, L)] = float(np.mean(vals))
            mean_dbm[(scheme, L)] = float(
                np.mean([10 * math.log10(v * 1e3) for v in vals])
            )
    prop = [mean_w[("proposed", L)] for L in Ls]
    mono_ok = all(a >= b for a, b in zip(prop, prop[1:]))
    # figure-style reductions on the decibel scale
    red = {s: mean_dbm[(s, 1)] - mean_dbm[(s, 7)] for s in cfg.schemes}
    red_ok = red["proposed"] > red["fixed"] and red["proposed"] > red["random"]
    elapsed = time.perf_counter() - t0
    ok = mono_ok and red_ok and elapsed < 480.0
    report(
        "criterion 6 (power vs antennas-per-waveguide trends)",
        ok,
        f"proposed non-increasing {mono_ok}, reductions dB "
        f"proposed {red['proposed']:.2f} > fixed {red['fixed']:.2f} "
        f"and > random {red['random']:.2f}, {elapsed:.0f}s (<480s)",
    )


def test_criterion_7_convergence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        gamma_db=16.0,
        num_pas=(3, 5, 7),
        trials=30,
        master_seed=SEED,
        schemes=("proposed",),
    )
    records = run_convergence(cfg)
    traces = {}
    for r in records:
        traces.setdefault((r.trial, r.num_pas), []).append(r)
    mono_ok = True
    converged = 0
    for rows in traces.values():
        rows.sort(key=lambda r: r.ao_iters)
        powers = [r.power_w for r in rows]
        if any(b > a + 1e-18 for a, b in zip(powers, powers[1:])):
            mono_ok = False
        if rows[-1].converged and rows[-1].ao_iters <= 25:
            converged += 1
    total = len(traces)
    elapsed = time.perf_counter() - t0
    ok = mono_ok and converged >= 0.9 * total and total == 90 and elapsed < 300.0
    report(
        "criterion 7 (AO convergence)",
        ok,
        f"monotone traces {mono_ok}, converged within 25 iterations "
        f"{converged}/{total} (>=81), {elapsed:.0f}s (<300s)",
    )


def test_criterion_8_structural_invariants(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        gamma_db=(14.0,), num_pas=3, trials=3, master_seed=SEED,
        schemes=("proposed", "fixed", "random"),
    )
    # every solver output placement-valid with CI margins >= -1e-8
    from pinchslp.ao import ao_solve

    margins_ok = True
    placement_ok = True
    for trial in range(cfg.trials):
        geom, symbols = generate_scenario(cfg, trial, num_pas=3)
        gamma = np.full(4, db_to_linear(14.0))
        W, X, _ = ao_solve(
            geom, cfg.params, symbols, gamma, cfg.noise_w, cfg.theta_th,
            fixed_uniform_placement(geom),
        )
        placement_ok &= validate_placement(geom, X).ok
        snap = effective_channels(geom, X, cfg.params)
        for k in range(4):
            lam = received_lambda(snap, W, symbols.s, k)
            margins_ok &= ci_margin(lam, gamma[k], cfg.noise_w, cfg.theta_th) >= -1e-8
        for placement in (fixed_uniform_placement(geom), random_placement(geom, trial)):
            snap = effective_channels(geom, placement, cfg.params)
            qp = build_ci_qp(snap, symbols, gamma, cfg.noise_w, cfg.theta_th)
            sol = solve_min_power(qp)
            Wb = recover_beam_matrix(sol.x_opt, symbols)
            placement_ok &= validate_placement(geom, placement).ok
            for k in range(4):
                lam = received_lambda(snap, Wb, symbols.s, k)
                margins_ok &= ci_margin(lam, gamma[k], cfg.noise_w, cfg.theta_th) >= -1e-8

    # CSV determinism across two identically seeded runs
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_power_vs_sinr(cfg), str(p1))
    emit_csv(run_power_vs_sinr(cfg), str(p2))
    csv_ok = p1.read_bytes() == p2.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = margins_ok and placement_ok and csv_ok and elapsed < 60.0
    report(
        "criterion 8 (structural invariants)",
        ok,
        f"placements valid {placement_ok}, CI margins >= -1e-8 {margins_ok}, "
        f"CSV determinism {csv_ok}, {elapsed:.0f}s (<60s)",
    )
