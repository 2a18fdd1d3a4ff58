"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``).
Budgets are asserted alongside the numeric tolerances.
"""

import hashlib
import time

import numpy as np
import pytest

from gatesim import harness, motor, pgnn
from gatesim.cli import main as cli_main
from gatesim.fitting import fit_quintic, optimal_velocity
from gatesim.motor import (
    OMEGA_MAX,
    energy_velocity_profile,
    hover_rotor_speed,
    motor_power,
)
from gatesim.planner import MinJerkTrajectory, predict_intercept, sample_arrays
from gatesim.scene import EventCameraSim, WorldConfig, annulus_bbox, step_gate
from gatesim.tracker import lif_step, track_bbox


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def full_models():
    return harness.build_default_models(epochs=2000)


def test_criterion_1_energy_oracle_equivalence(coeffs):
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    omegas = rng.uniform(0.0, OMEGA_MAX, 1000)
    domegas = rng.uniform(-5000.0, 5000.0, 1000)

    j = motor.ROTOR_INERTIA + 0.25 * motor.N_BLADES * motor.BLADE_MASS * (
        motor.BLADE_RADIUS - motor.BLADE_CLEARANCE
    ) ** 2
    current = (
        motor.FRICTION_TORQUE
        + motor.DAMPING * omegas
        + motor.LOAD_TORQUE_COEFF * omegas**2
        + j * domegas
    ) / motor.K_T
    voltage = motor.RESISTANCE * current + motor.K_T * omegas
    oracle = voltage * current

    got = motor_power(coeffs, omegas, domegas)
    rel = np.abs(got - oracle) / np.abs(oracle)
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (power oracle equivalence)",
        bool(np.all(rel < 1e-12) and elapsed < 1.0),
        f"max rel err {rel.max():.2e} over 1000 samples, {elapsed:.2f}s",
    )


def test_criterion_2_hover_power_anchor(coeffs):
    t0 = time.monotonic()
    omega_h = hover_rotor_speed(coeffs)
    total = 4.0 * motor_power(coeffs, omega_h)
    elapsed = time.monotonic() - t0
    ok = abs(total - 124.0) <= 1.24 and omega_h < OMEGA_MAX and elapsed < 1.0
    report(
        "criterion 2 (hover power anchor)",
        ok,
        f"total {total:.3f} W at {omega_h:.1f} rad/s (limit {OMEGA_MAX:.0f}), {elapsed:.2f}s",
    )


def test_criterion_3_profile_shape(coeffs, flight):
    t0 = time.monotonic()
    ok = True
    details = []
    for depth in (2.0, 3.0, 4.0, 5.0, 6.0):
        profile = energy_velocity_profile(coeffs, flight, depth)
        energies = profile[:, 1]
        diffs = np.diff(energies)
        sign_changes = int(np.sum(np.diff(np.sign(diffs)) != 0))
        interior_min = 0 < int(np.argmin(energies)) < len(energies) - 1
        highest_at_slowest = int(np.argmax(energies)) == 0
        ok = ok and sign_changes == 1 and interior_min and highest_at_slowest
        details.append(f"{depth:.0f}m:v*={profile[np.argmin(energies), 0]:.0f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(
        "criterion 3 (U-shaped energy profiles)",
        ok,
        f"{' '.join(details)}, {elapsed:.2f}s",
    )


def test_criterion_4_fit_optimum_oracle(coeffs, flight):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    v = np.arange(1.0, 17.0)
    worst = 0.0
    for trial in range(100):
        if trial < 20:
            profile = energy_velocity_profile(coeffs, flight, rng.uniform(2.0, 6.0))
        else:
            a = rng.uniform(50, 400)
            m = rng.uniform(4, 12)
            b = rng.uniform(0.3, 3.0)
            e = a / v + b * (v - m) ** 2 + rng.uniform(10, 50)
            e = e * (1.0 + rng.normal(0.0, 1e-3, len(v)))
            profile = np.column_stack([v, e])
        fit = fit_quintic(profile)
        v_star = optimal_velocity(fit)
        grid = np.arange(fit.v_lo, fit.v_hi + 5e-4, 1e-3)
        brute = grid[np.argmin(fit.energy(grid))]
        worst = max(worst, abs(v_star - brute))
    elapsed = time.monotonic() - t0
    report(
        "criterion 4 (fitted optimum vs grid oracle)",
        worst <= 0.01 and elapsed < 10.0,
        f"worst |v* - grid argmin| = {worst:.2e} m/s over 100 profiles, {elapsed:.2f}s",
    )


def test_criterion_5_gradient_check(dataset):
    t0 = time.monotonic()
    params = pgnn.init_params(0)
    lam = 1e-2
    depths = np.array([s.depth for s in dataset])
    batch = pgnn.training_batch(dataset)
    _, grads, _ = pgnn.pgnn_loss_grads(params, batch, lam)
    arrays = params.trainable()
    rng = np.random.default_rng(3)
    eps = 1e-5

    def loss_and_pattern():
        v, caches = pgnn._forward(params, depths, "train")
        pattern = [c["y"] > 0 for c in caches[:-1]]
        return pgnn.loss_terms(v, batch, lam)[2], pattern

    worst = 0.0
    checked = 0
    while checked < 50:
        ai = int(rng.integers(len(arrays)))
        arr = arrays[ai]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + eps
        lp, pat_p = loss_and_pattern()
        arr[idx] = orig - eps
        lm, pat_m = loss_and_pattern()
        arr[idx] = orig
        if any(np.any(a != b) for a, b in zip(pat_p, pat_m)):
            continue  # rectifier kink inside the probe interval: not differentiable
        fd = (lp - lm) / (2 * eps)
        ana = grads[ai][idx]
        # entries below the float64 central-difference floor are zero on both sides
        worst = max(worst, abs(fd - ana) / max(abs(fd), abs(ana), 1e-5))
        checked += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 5 (analytic gradients vs finite differences)",
        worst < 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e} over 50 parameters, {elapsed:.2f}s",
    )


def test_criterion_6_pgnn_accuracy(coeffs, flight, dataset):
    t0 = time.monotonic()
    params, history = pgnn.train_pgnn(
        dataset, pgnn.TrainConfig(lam=1e-4, epochs=2000, seed=0)
    )
    depths = np.array([s.depth for s in dataset])
    targets = np.array([s.v_star for s in dataset])
    train_err = float(np.abs(pgnn.mlp_forward(params, depths) - targets).max())

    held_depths = np.array([2.5, 3.7, 5.3])
    oracle = []
    for d in held_depths:
        profile = energy_velocity_profile(coeffs, flight, float(d))
        fit = fit_quintic(profile)
        grid = np.arange(fit.v_lo, fit.v_hi + 5e-4, 1e-3)
        oracle.append(grid[np.argmin(fit.energy(grid))])
    held_err = float(
        np.abs(pgnn.mlp_forward(params, held_depths) - np.array(oracle)).max()
    )
    elapsed = time.monotonic() - t0
    ok = train_err <= 0.5 and held_err <= 0.5 and elapsed < 120.0
    report(
        "criterion 6 (velocity prediction accuracy)",
        ok,
        f"train err {train_err:.2e}, held-out err {held_err:.2e} m/s, "
        f"final mse {history[-1][1]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_intercept_oracle():
    t0 = time.monotonic()
    L, dt = 2.0, 0.1
    rng = np.random.default_rng(4)
    checked = 0
    worst = 0.0
    while checked < 10000:
        y2 = rng.uniform(-1.99, 1.99)
        v = rng.uniform(-2.5, 2.5)
        if abs(v) < 1e-3:
            continue
        y1 = y2 - v * dt
        if abs(y1) > L:
            continue
        t_traj = rng.uniform(0.05, 3.0)
        y_star = predict_intercept(t_traj, L, y1, y2, dt)
        truth = step_gate(y2, v, L, t_traj)[0]
        worst = max(worst, abs(y_star - truth))
        checked += 1

    traces = [
        predict_intercept(1.0, 2.0, 0.4, 0.5, 0.1) - 1.5,
        predict_intercept(1.0, 2.0, 1.7, 1.8, 0.1) - 1.2,
        predict_intercept(1.0, 2.0, -1.7, -1.8, 0.1) + 1.2,
    ]
    traces_ok = max(abs(t) for t in traces) < 1e-12
    elapsed = time.monotonic() - t0
    report(
        "criterion 7 (intercept vs bouncing kinematics)",
        worst <= 1e-9 and traces_ok and elapsed < 5.0,
        f"worst |y* - truth| = {worst:.2e} m over 10000 inputs, "
        f"hand traces ok={traces_ok}, {elapsed:.2f}s",
    )


def test_criterion_8_min_jerk_properties():
    t0 = time.monotonic()
    traj = MinJerkTrajectory([0.0], [3.0], 0.8)
    _, pos, vel, acc = sample_arrays(traj)
    (p0, pT), (v0, vT), (a0, aT) = pos[[0, -1]], vel[[0, -1]], acc[[0, -1]]
    boundaries = (
        p0[0] == 0.0 and pT[0] == 3.0
        and v0[0] == 0.0 and vT[0] == 0.0
        and a0[0] == 0.0 and aT[0] == 0.0
    )
    mid = sample_arrays(MinJerkTrajectory([0.0], [1.0], 1.0))[1][500]
    midpoint = abs(mid[0] - 0.5) < 1e-12

    dt = 1e-4
    tau = np.arange(0.0, 1.0 + dt / 2, dt)
    canonical = 3.0 * tau**3 * (10 - 15 * tau + 6 * tau**2)

    def cost(path):
        jerk = np.diff(path, 3) / (dt * 0.8) ** 3
        return float(np.sum(jerk**2) * dt * 0.8)

    base = cost(canonical)
    rng = np.random.default_rng(5)
    minimal = True
    for _ in range(100):
        alpha = rng.uniform(-8.0, 8.0)
        if abs(alpha) < 1e-3:
            continue
        minimal = minimal and cost(canonical + alpha * tau**3 * (1 - tau) ** 3) > base
    elapsed = time.monotonic() - t0
    report(
        "criterion 8 (minimum-jerk properties)",
        boundaries and midpoint and minimal and elapsed < 5.0,
        f"boundaries={boundaries} midpoint={midpoint} minimal={minimal}, {elapsed:.2f}s",
    )


def _tracking_iou(depth: float, n_bins: int = 30, speed: float = 0.5) -> float:
    def box_iou(a, b):
        ix0, ix1 = max(a[0], b[0]), min(a[1], b[1])
        iy0, iy1 = max(a[2], b[2]), min(a[3], b[3])
        if ix1 < ix0 or iy1 < iy0:
            return 0.0
        inter = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        area_a = (a[1] - a[0] + 1) * (a[3] - a[2] + 1)
        area_b = (b[1] - b[0] + 1) * (b[3] - b[2] + 1)
        return inter / (area_a + area_b - inter)

    # lateral span +-0.6 m keeps the ring fully inside the frame at all depths
    cfg = WorldConfig(gate_y0=-0.6, gate_speed=speed, gate_bound=0.6, gate_plane_x=-2.0,
                      drone_x=depth - 2.0, seed=3)
    cam = cfg.camera()
    sim = EventCameraSim(cfg)
    membrane = np.zeros(cam.shape)
    prev_pixels = None
    prev_mid = None
    ious = []
    for _ in range(n_bins):
        mid_y = step_gate(*sim.gate, cfg.gate_bound, cfg.sensing_dt / 2)[0]
        pixels, counts = sim.step(10)[2:]
        membrane, spikes = lif_step(membrane, pixels, counts)
        if prev_pixels is not None and prev_mid is not None:
            box = track_bbox(spikes, prev_pixels)
            truth = annulus_bbox(cfg, prev_mid)
            if box is not None and truth is not None:
                ious.append(
                    box_iou((box.x_min, box.x_max, box.y_min, box.y_max), truth)
                )
        prev_pixels = pixels
        prev_mid = mid_y
    return float(np.mean(ious)) if ious else 0.0


def test_criterion_9_tracking_iou():
    t0 = time.monotonic()
    iou = {d: _tracking_iou(d) for d in (3.0, 4.0, 5.0, 6.0, 7.0)}
    near_ok = iou[3.0] >= 0.8 and iou[4.0] >= 0.8
    monotone = iou[4.0] > iou[5.0] > iou[6.0] > iou[7.0]
    elapsed = time.monotonic() - t0
    report(
        "criterion 9 (tracking IOU vs depth)",
        near_ok and monotone and elapsed < 60.0,
        "IOU " + " ".join(f"{d:.0f}m={v:.3f}" for d, v in iou.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_10_closed_loop_trends(full_models):
    t0 = time.monotonic()
    comp = harness.energy_comparison(full_models, runs=10)
    a_ok = comp.mean_event_J <= 0.5 * comp.mean_depth_J

    target = (harness.DEPTH_LATENCY - harness.EVENT_LATENCY) * 124.0
    b_ok = abs(comp.mean_surplus_J - target) <= 0.1 * target

    ablation = harness.ablation_matrix(full_models, runs=10)
    by_key = {(c.perception_mode, c.planner_mode): c for c in ablation}
    best = by_key[("event-snn", "pgnn")].mean_energy_J
    c_min_ok = all(best <= c.mean_energy_J + 1e-9 for c in ablation)
    ratio = harness.ablation_energy_ratio(ablation)
    c_ok = c_min_ok and ratio >= 2.0

    grid = harness.success_rate_grid(
        harness.default_success_grid(), full_models, runs=10
    )
    ev = {(r.drone_x, r.drone_y): r.success_rate for r in grid if r.mode == "event-snn"}
    dp = {(r.drone_x, r.drone_y): r.success_rate
          for r in grid if r.mode == "depth-baseline"}
    wins = sum(ev[k] >= dp[k] for k in ev)
    d_ok = wins >= 0.8 * len(ev)

    elapsed = time.monotonic() - t0
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 600.0
    report(
        "criterion 10 (closed-loop trends)",
        ok,
        f"(a) {comp.mean_event_J:.0f} J vs {comp.mean_depth_J:.0f} J "
        f"ratio {comp.mean_depth_J / comp.mean_event_J:.2f}; "
        f"(b) surplus {comp.mean_surplus_J:.1f} J vs {target:.0f} J; "
        f"(c) min-cell ok={c_min_ok} ratio {ratio:.2f}; "
        f"(d) event>=depth in {wins}/{len(ev)} cells; {elapsed:.0f}s",
    )


# The default suite CSVs, bit for bit.  A change that moves simulated outputs
# on purpose updates these once, together with perfbench/reference.json.
SUITE_CSV_SHA256 = {
    "benchmark": "b9f2c7ed9f8cc44bd93cc646b9f42d092f579e6ecc313ed0be20c4ed4c8aa641",
    "ablation": "212f7614445e630d3df38eaa054d7d0c804e7fdc7caeca73844f477d84d002bf",
}


def test_default_suite_csvs_pinned(tmp_path, monkeypatch, full_models):
    # the commands get this module's models instead of training them again
    calls = []

    def build_default_models(**kwargs):
        calls.append(kwargs)
        return full_models

    monkeypatch.setattr(harness, "build_default_models", build_default_models)
    for command, digest in SUITE_CSV_SHA256.items():
        out = tmp_path / f"{command}.csv"
        assert cli_main([command, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command
    # the defaults full_models was trained with
    assert calls == [{"seed": 0, "epochs": 2000}] * 2


def test_criterion_11_csv_determinism(tmp_path):
    t0 = time.monotonic()
    pairs = []
    for name in ("a", "b"):
        out = tmp_path / f"profile_{name}.csv"
        assert cli_main(["profile-energy", "--depth", "4", "--out", str(out)]) == 0
        pairs.append(out.read_bytes())
    profile_ok = pairs[0] == pairs[1]

    pairs = []
    for name in ("a", "b"):
        out = tmp_path / f"bench_{name}.csv"
        grid = tmp_path / "grid.csv"
        grid.write_text("drone_x,drone_y,gate_y0,gate_speed,alternate\n"
                        "2.000,0.000,2.000,0.500,1\n")
        code = cli_main([
            "benchmark", "--grid", str(grid), "--out", str(out),
            "--runs", "2", "--epochs", "30", "--seed", "9",
        ])
        assert code == 0
        pairs.append(out.read_bytes())
    bench_ok = pairs[0] == pairs[1]

    pairs = []
    for name in ("a", "b"):
        out = tmp_path / f"abl_{name}.csv"
        code = cli_main(["ablation", "--out", str(out), "--runs", "1", "--epochs", "30"])
        assert code == 0
        pairs.append(out.read_bytes())
    ablation_ok = pairs[0] == pairs[1]

    elapsed = time.monotonic() - t0
    report(
        "criterion 11 (seeded CSV determinism)",
        profile_ok and bench_ok and ablation_ok,
        f"profile={profile_ok} benchmark={bench_ok} ablation={ablation_ok}, {elapsed:.1f}s",
    )
