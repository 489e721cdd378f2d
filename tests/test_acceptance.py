"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a report:
    pytest tests/test_acceptance.py -v -s
"""

import time
from pathlib import Path

import numpy as np

from adflow import cli, metrics, mrnet, sampler, velnet
from adflow.flowpath import (PathParams, PathState, analytic_state,
                             target_velocity)
from adflow.mrnet import MrRegressor, mr_oracle_lsq, mr_predict, mr_train
from adflow.sampler import (NfePolicy, OracleField, NetField, Schedule,
                            build_schedule, extract, extract_adaptive,
                            fixed_mr, oracle_mr, regressor_mr)
from adflow.signal import DatasetConfig, Waveform, istft, make_dataset, mix, stft
from adflow.velnet import TrainConfig, VelocityNet, otcfm_loss_and_grad


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.sqrt(np.mean(v ** 2))


def test_criterion_1_one_step_oracle_exactness():
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst_err, worst_spread = 0.0, 0.0
    for _ in range(200):
        s1, b = _unit(rng, 2000), _unit(rng, 2000)
        tau = float(rng.uniform(0.0, 0.99))
        x = Waveform(tau * s1 + (1 - tau) * b)
        field = OracleField(b, s1)
        results = []
        for n in range(1, 21):
            sched = Schedule(taus=np.linspace(tau, 1.0, n + 1), nfe=n)
            est, _ = extract(x, x, field, sched)
            results.append(est.samples)
        worst_err = max(worst_err,
                        max(np.max(np.abs(r - s1)) for r in results))
        worst_spread = max(worst_spread,
                           max(np.max(np.abs(r - results[0]))
                               for r in results))
    elapsed = time.time() - t0
    ok = worst_err < 1e-6 and worst_spread < 1e-9 and elapsed < 5.0
    _report(1, "one-step oracle exactness", ok,
            f"max err {worst_err:.2e}, spread {worst_spread:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_2_ode_consistency():
    rng = np.random.default_rng(1)
    params = PathParams(0.0, 0.5)
    b, s1 = rng.standard_normal(512), rng.standard_normal(512)
    z = rng.standard_normal(512)
    h = 1e-4
    worst = 0.0
    for tau in np.linspace(0.1, 0.9, 9):
        tau = float(tau)
        fd = (analytic_state(b, s1, z, tau + h, params).x
              - analytic_state(b, s1, z, tau - h, params).x) / (2 * h)
        v = target_velocity(analytic_state(b, s1, z, tau, params),
                            b, s1, params)
        worst = max(worst, np.linalg.norm(fd - v) / np.linalg.norm(v))
    _report(2, "ODE consistency", worst < 1e-6, f"max rel err {worst:.2e}")


def test_criterion_3_gradient_check():
    h = 1e-4
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = VelocityNet.create(seed, frame_len=8, hidden_dims=(10,),
                                 tau_embed_dim=4, enroll_embed_dim=4)
        batch = [(rng.standard_normal(20), rng.standard_normal(4),
                  float(rng.uniform()), rng.standard_normal(20))
                 for _ in range(3)]
        _, grads = otcfm_loss_and_grad(net, batch)
        for p, g in zip(net.parameters(), grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                hi, _ = otcfm_loss_and_grad(net, batch)
                flat_p[i] = orig - h
                lo, _ = otcfm_loss_and_grad(net, batch)
                flat_p[i] = orig
                fd = (hi - lo) / (2 * h)
                rel = abs(flat_g[i] - fd) / max(abs(flat_g[i]), abs(fd), 1e-4)
                worst = max(worst, rel)
    _report(3, "analytic gradient check", worst < 1e-3,
            f"max rel err {worst:.2e} over 5 seeds")


def test_criterion_4_mr_oracle_inversion():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        s1, b = _unit(rng, 256), _unit(rng, 256)
        tau = float(rng.uniform())
        x = tau * s1 + (1 - tau) * b
        worst = max(worst, abs(mr_oracle_lsq(x, s1, b) - tau))
    _report(4, "MR oracle inversion", worst < 1e-9,
            f"max |err| {worst:.2e} over 1000 draws")


def test_criterion_5_misseeding_linearity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        s1, b = _unit(rng, 512), _unit(rng, 512)
        tau = float(rng.uniform())
        tau_hat = float(rng.uniform(0.0, 0.99))
        x = Waveform(tau * s1 + (1 - tau) * b)
        sched = build_schedule(tau_hat, NfePolicy(max_nfe=5))
        est, _ = extract(x, x, OracleField(b, s1), sched)
        err = np.linalg.norm(est.samples - s1)
        expect = abs(tau_hat - tau) * np.linalg.norm(s1 - b)
        worst = max(worst, abs(err - expect))
    _report(5, "mis-seeding linearity", worst < 1e-9,
            f"max deviation {worst:.2e}")


def test_criterion_6_ablation_ordering(trained_system):
    net, reg, train_time = trained_system
    items = make_dataset(50, "uniform", DatasetConfig(duration_s=0.5), seed=1)
    policy = NfePolicy(max_nfe=5)
    rand_taus = np.random.default_rng(4242).uniform(size=len(items))
    means = {}
    tau1_exact = True
    for source in ("oracle", "estimated", "random", "tau1"):
        sdrs = []
        for i, item in enumerate(items):
            src = {"oracle": oracle_mr(item.s1, item.b),
                   "estimated": regressor_mr(reg),
                   "random": fixed_mr(float(rand_taus[i])),
                   "tau1": fixed_mr(1.0)}[source]
            est, _, _ = extract_adaptive(item.x, item.e, src,
                                         NetField(net, item.e), policy)
            sdrs.append(metrics.si_sdr(est, item.s1))
            if source == "tau1":
                tau1_exact &= (metrics.si_sdr(est, item.s1)
                               == metrics.si_sdr(item.x, item.s1))
                tau1_exact &= bool(np.array_equal(est.samples,
                                                  item.x.samples))
        means[source] = float(np.mean(sdrs))
    ordered = means["oracle"] >= means["estimated"] >= means["random"]
    close = means["oracle"] - means["estimated"] <= 1.0
    in_budget = train_time <= 600.0
    ok = ordered and close and tau1_exact and in_budget
    _report(6, "ablation ordering at desk scale", ok,
            f"oracle {means['oracle']:.3f} >= est {means['estimated']:.3f} "
            f">= random {means['random']:.3f} dB, gap "
            f"{means['oracle'] - means['estimated']:.3f} dB, "
            f"tau1 exact {tau1_exact}, train {train_time:.0f}s")


def test_criterion_7_mr_regressor_accuracy():
    # Threshold 0.08 was frozen after the calibration run recorded in
    # scripts/calibrate_mr.py (held-out RMSE 0.0734 with this recipe).
    cfg = DatasetConfig(duration_s=0.5)
    train = make_dataset(3000, "uniform", cfg, seed=0)
    held_out = make_dataset(300, "uniform", cfg, seed=1)
    reg = MrRegressor.create(17)
    reg, _ = mr_train(reg, train, TrainConfig(
        lr_init=1e-3, lr_min=1e-5, warmup_epochs=5, t_max_epochs=95,
        weight_decay=0.05, epochs=100, batch_size=64, seed=0))
    errs = [mr_predict(reg, it.x, it.e) - it.tau for it in held_out]
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    _report(7, "MR regressor accuracy", rmse < 0.08,
            f"held-out RMSE {rmse:.4f} < 0.08")


def test_criterion_8_schedule_law():
    policy = NfePolicy(max_nfe=5, epsilon=1e-3)
    ok = True
    prev = None
    for tau_hat in np.linspace(0.0, 1.0, 101):
        tau_hat = float(tau_hat)
        n = build_schedule(tau_hat, policy).nfe
        expect = (0 if tau_hat >= 1 - policy.epsilon
                  else max(1, int(np.ceil((1 - tau_hat) * policy.max_nfe))))
        ok &= n == expect
        if prev is not None:
            ok &= n <= prev
        prev = n
    _report(8, "schedule law", ok, "101-point grid")


def test_criterion_9_metric_sanity():
    rng = np.random.default_rng(4)
    ref = rng.standard_normal(4000)
    est = ref + 0.2 * rng.standard_normal(4000)
    base = metrics.si_sdr(est, ref)
    scale_ok = all(abs(metrics.si_sdr(c * est, ref) - base) < 1e-9
                   for c in (1e-3, 0.5, 2.0, 1e3))

    s1, b = rng.standard_normal(8000), rng.standard_normal(8000)
    taus = np.linspace(0.05, 0.95, 21)
    scores = [metrics.si_sdr(tau * s1 + (1 - tau) * b, s1) for tau in taus]
    monotone_ok = all(y > x for x, y in zip(scores, scores[1:]))

    w = Waveform(rng.standard_normal(4000))
    rec = istft(stft(w, 256, 64), len(w), w.sample_rate_hz)
    rt = float(np.max(np.abs(rec.samples - w.samples)[256:-256]))
    ok = scale_ok and monotone_ok and rt < 1e-4
    _report(9, "metric sanity", ok,
            f"scale-invariant {scale_ok}, monotone {monotone_ok}, "
            f"round-trip {rt:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg_text = ("seed = 0\nn_train = 8\nn_eval = 4\nduration_s = 0.125\n"
                "epochs = 3\nbatch_size = 4\nlr_init = 1e-3\nmax_nfe = 3\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text, "utf-8")

    def run_all(tag):
        out = tmp_path / tag
        for command in ("gen-data", "train-vel", "train-mr", "ablate",
                        "nfe-sweep"):
            code = cli.main([command, "--config", str(cfg_path),
                             "--out", str(out)])
            assert code == 0, command
        return {name: (out / name).read_bytes()
                for name in ("manifest.csv", "train_vel_loss.csv",
                             "train_mr_loss.csv", "ablation.csv",
                             "nfe_sweep.csv")}

    first, second = run_all("a"), run_all("b")
    ok = all(first[name] == second[name] for name in first)
    diffs = [name for name in first if first[name] != second[name]]
    _report(10, "CLI determinism", ok,
            "byte-identical CSVs" if ok else f"differs: {diffs}")
