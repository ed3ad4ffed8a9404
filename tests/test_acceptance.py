"""End-to-end acceptance checks.

Each test prints exactly one [PASS]/[FAIL] line for its criterion. The
expensive fixtures (the two-hour synthetic dataset and the desk-scale
training runs) are built once per module and shared across criteria.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from stmotion import cli
from stmotion import evalmetrics as em
from stmotion import model as mo
from stmotion import motiondata as md
from stmotion import so3
from stmotion import training as tr
from stmotion.tensor import Tape, Tensor, backward

pytestmark = pytest.mark.slow


def check(num: int, desc: str, ok: bool):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared fixtures: dataset and desk-scale training runs
# ---------------------------------------------------------------------------

FPS = 60.0
TOTAL_FRAMES = 432000          # 2 hours at 60 fps
VAL_FRAMES = 43200             # last 12 minutes held out

DESK_CFG = mo.ModelConfig(n_joints=9, embed_dim=16, n_heads=2, n_layers=2,
                          ff_size=32, window=32, dropout=0.0)


def desk_train_cfg(seed: int) -> tr.TrainConfig:
    return tr.TrainConfig(batch_size=16, warmup=1000, max_steps=3000,
                          eval_every=500, patience=100, seed=seed,
                          n_val_windows=16)


@pytest.fixture(scope="module")
def dataset():
    sk = md.default_skeleton()
    # noise_std sets the irreducible 1-step error floor (~E|N(0,s)|); 0.002
    # keeps the zero-velocity error dominated by true motion so a trained
    # model can actually halve it
    seq = md.synth_motion(sk, TOTAL_FRAMES, FPS, md.two_frequency_spec(sk),
                          noise_std=0.002, rng=np.random.default_rng(2024))
    split = TOTAL_FRAMES - VAL_FRAMES
    train = [md.MotionSequence(sk, seq.rotations[:split], FPS)]
    val = [md.MotionSequence(sk, seq.rotations[split:], FPS)]
    return train, val, sk


def _desk_run(kind: str, seed: int, train_path: str, val_path: str):
    """One desk training run, in a worker process: (result, its seconds).
    The worker maps the dataset's rotations read-only from .npy files."""
    sk = md.default_skeleton()
    train_seqs = [md.MotionSequence(sk, np.load(train_path, mmap_mode="r"), FPS)]
    val_seqs = [md.MotionSequence(sk, np.load(val_path, mmap_mode="r"), FPS)]
    cfg = DESK_CFG if kind == "st" else mo.matched_vanilla_config(DESK_CFG)
    t0 = time.perf_counter()
    params = mo.init_params(cfg, np.random.default_rng(seed))
    result = tr.train(params, cfg, desk_train_cfg(seed), train_seqs, val_seqs)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_runs(dataset, tmp_path_factory):
    """The six independent desk trainings (st and matched vanilla, seeds
    0-2), run in spawned worker processes, one BLAS thread each, on at most
    two of the usable CPUs."""
    train_seqs, val_seqs, _ = dataset
    root = tmp_path_factory.mktemp("desk_data")
    paths = [str(root / "train.npy"), str(root / "val.npy")]
    for path, seqs in zip(paths, (train_seqs, val_seqs)):
        np.save(path, seqs[0].rotations)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = [(kind, seed) for kind in ("st", "vanilla") for seed in (0, 1, 2)]
    with pytest.MonkeyPatch.context() as env:
        env.setenv("OPENBLAS_NUM_THREADS", "1")
        env.setenv("OMP_NUM_THREADS", "1")
        with ProcessPoolExecutor(max_workers=min(2, cpus or 1),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = {job: pool.submit(_desk_run, *job, *paths) for job in jobs}
            done = {job: f.result() for job, f in futures.items()}
    runs = {"st": {}, "vanilla": {}}
    for (kind, seed), (result, _) in done.items():
        runs[kind][seed] = result
    return {"runs": runs, "van_cfg": mo.matched_vanilla_config(DESK_CFG),
            "seed0_seconds": done["st", 0][1]}


def random_window(cfg: mo.ModelConfig, t: int, rng, batch=None):
    shape = (t, cfg.n_joints) if batch is None else (batch, t, cfg.n_joints)
    r = so3.random_rotations(shape, rng)
    return r.reshape(shape + (9,)).astype(np.float32)


def lively_params(cfg: mo.ModelConfig, rng):
    """Random init with a non-zero output projection so the forward pass
    actually depends on the attention streams."""
    params = mo.init_params(cfg, rng)
    params["out.w"].data = rng.normal(
        0.0, 0.1, size=params["out.w"].data.shape).astype(np.float32)
    return params


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    cfg = mo.ModelConfig(n_joints=3, embed_dim=8, n_heads=2, n_layers=2,
                         ff_size=16, window=8, dropout=0.0)
    rng = np.random.default_rng(7)
    params = mo.init_params(cfg, rng, dtype=np.float64)
    params["out.w"].data = rng.normal(0.0, 0.1, size=params["out.w"].data.shape)
    x = so3.random_rotations((1, 8, 3), rng).reshape(1, 8, 3, 9)
    tgt = so3.random_rotations((1, 8, 3), rng).reshape(1, 8, 3, 9)

    def loss_value() -> float:
        pred, _, _ = mo.forward(params, cfg, x)
        return float(tr.loss_per_joint_l2(pred, tgt).data)

    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        pred, _, _ = mo.forward(params, cfg, x)
        loss = tr.loss_per_joint_l2(pred, tgt)
    backward(loss, tape)

    h = 1e-5
    worst = 0.0
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + h
            up = loss_value()
            p.data[idx] = orig - h
            dn = loss_value()
            p.data[idx] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(analytic[idx] - fd) / max(abs(analytic[idx]) + abs(fd), 1e-6)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    check(1, f"analytic gradients match finite differences "
             f"(worst rel {worst:.2e}, {elapsed:.0f}s)",
          worst < 1e-2 and elapsed < 120.0)


# ---------------------------------------------------------------------------
# 2. Causality
# ---------------------------------------------------------------------------


def test_criterion_2_causality():
    rng = np.random.default_rng(11)
    t = 8
    ok = True
    for variant in ("st", "vanilla_1d", "full_2d"):
        cfg = mo.ModelConfig(n_joints=3, embed_dim=8, n_heads=2, n_layers=2,
                             ff_size=16, window=t, dropout=0.0, variant=variant)
        params = lively_params(cfg, rng)
        for _ in range(100):
            x = random_window(cfg, t, rng)
            base, maps, _ = mo.forward(params, cfg, x, maps=True)
            cut = int(rng.integers(1, t))
            y = x.copy()
            y[cut:] = random_window(cfg, t - cut, rng)
            pert, _, _ = mo.forward(params, cfg, y)
            if not np.array_equal(base.data[:cut], pert.data[:cut]):
                ok = False
        if len(maps.temporal) != cfg.n_layers:
            ok = False
        for m in maps.temporal:
            if np.any(np.triu(m, k=1) != 0.0):
                ok = False
    check(2, "future perturbations never change earlier outputs; "
             "temporal upper triangles exactly zero", ok)


# ---------------------------------------------------------------------------
# 3. Attention validity
# ---------------------------------------------------------------------------


def test_criterion_3_attention_validity():
    rng = np.random.default_rng(13)
    ok = True
    for variant in ("st", "vanilla_1d", "full_2d"):
        for tau in ("softmax", "sum_normalize"):
            cfg = mo.ModelConfig(n_joints=4, embed_dim=8, n_heads=2, n_layers=2,
                                 ff_size=16, window=8, dropout=0.0,
                                 variant=variant, tau_mode=tau)
            params = lively_params(cfg, rng)
            _, maps, _ = mo.forward(params, cfg, random_window(cfg, 8, rng), maps=True)
            spatial_layers = 0 if variant == "vanilla_1d" else cfg.n_layers
            if (len(maps.temporal), len(maps.spatial)) != (cfg.n_layers, spatial_layers):
                ok = False
            for m in maps.temporal + maps.spatial:
                if np.any(m < 0) or np.abs(m.sum(axis=-1) - 1.0).max() > 1e-5:
                    ok = False
    check(3, "exported attention rows are non-negative and sum to 1 "
             "for both tau modes", ok)


# ---------------------------------------------------------------------------
# 4. Complexity accounting
# ---------------------------------------------------------------------------


def test_criterion_4_complexity():
    rng = np.random.default_rng(17)
    n, t = 9, 32
    counters_ok = True
    for variant, expect in (("st", n * t * (t + n)), ("full_2d", (n * t) ** 2)):
        cfg = mo.ModelConfig(n_joints=n, embed_dim=8, n_heads=2, n_layers=2,
                             ff_size=16, window=t, dropout=0.0, variant=variant)
        params = mo.init_params(cfg, rng)
        _, _, stats = mo.forward(params, cfg, random_window(cfg, t, rng))
        if stats.scores_per_layer != [expect] * cfg.n_layers:
            counters_ok = False

    workspace_ok = True
    for part in cli.DEFAULT_BENCH_GRID.split(";"):
        layers, win, batch = (int(v) for v in part.split(","))
        measured = {}
        for variant in ("st", "full_2d"):
            cfg = mo.ModelConfig(n_joints=n, embed_dim=8, n_heads=2,
                                 n_layers=layers, ff_size=16, window=win,
                                 dropout=0.0, variant=variant)
            params = mo.init_params(cfg, rng)
            x = random_window(cfg, win, rng, batch=batch)
            _, _, stats = mo.forward(params, cfg, x)
            measured[variant] = stats.workspace_elements
        if measured["full_2d"] <= measured["st"]:
            workspace_ok = False
    check(4, "score counters match N*T*(T+N) and (N*T)^2 exactly; "
             "2D workspace exceeds decoupled on the default bench grid",
          counters_ok and workspace_ok)


# ---------------------------------------------------------------------------
# 5. Residual identity at initialization
# ---------------------------------------------------------------------------


def test_criterion_5_residual_identity():
    cfg = mo.ModelConfig(n_joints=9, embed_dim=16, n_heads=2, n_layers=2,
                         ff_size=32, window=32, dropout=0.0)
    params = mo.init_params(cfg, np.random.default_rng(19))
    sk = md.default_skeleton()
    seq = md.synth_motion(sk, 32, FPS, md.two_frequency_spec(sk))
    seed = seq.flat()
    pred = mo.rollout(params, cfg, seed, 100)
    base = mo.zero_velocity(seed, 100)
    check(5, "zero-initialized output projection reproduces the "
             "zero-velocity rollout bit-exactly",
          np.array_equal(pred, base))


# ---------------------------------------------------------------------------
# 6. Learning-rate schedule
# ---------------------------------------------------------------------------


def test_criterion_6_lr_schedule(desk_runs):
    res = desk_runs["runs"]["st"][0]
    ok = True
    for row in res.history:
        expect = tr.noam_lr(row["step"], DESK_CFG.embed_dim, 1000)
        if abs(row["lr"] - expect) > 1e-9 * expect:
            ok = False
    lrs = [row["lr"] for row in res.history]
    peak_step = res.history[int(np.argmax(lrs))]["step"]
    check(6, f"history lr matches the warmup formula everywhere; "
             f"peak at step {peak_step}", ok and peak_step == 1000)


# ---------------------------------------------------------------------------
# 7. Rotation utilities
# ---------------------------------------------------------------------------


def test_criterion_7_so3_suite():
    rng = np.random.default_rng(23)
    r = so3.random_rotations((10000,), rng)
    ok = True

    back_q = so3.rotmat_from_quat(so3.quat_from_rotmat(r))
    back_a = so3.rotmat_from_angleaxis(so3.angleaxis_from_rotmat(r))
    back_e = so3.rotmat_from_euler(so3.euler_from_rotmat(r))
    for back in (back_q, back_a, back_e):
        if so3.geodesic_angle(r, back).max() >= 1e-5:
            ok = False

    noisy = r + rng.normal(0.0, 0.05, size=r.shape)
    proj = so3.project_to_so3(noisy)
    if not np.all(so3.is_valid_rotmat(proj)):
        ok = False
    if np.abs(so3.project_to_so3(proj) - proj).max() > 1e-9:
        ok = False

    a, b, c = r[:3000], r[3000:6000], r[6000:9000]
    dab = so3.geodesic_angle(a, b)
    if so3.geodesic_angle(a, a).max() > 1e-6:
        ok = False
    if np.abs(dab - so3.geodesic_angle(b, a)).max() > 1e-9:
        ok = False
    if np.any(dab > so3.geodesic_angle(a, c) + so3.geodesic_angle(c, b) + 1e-9):
        ok = False
    check(7, "round trips, projection idempotence/validity and "
             "metric axioms over 10^4 rotations", ok)


# ---------------------------------------------------------------------------
# 8. Desk-scale learning beats zero-velocity
# ---------------------------------------------------------------------------


def one_step_geodesic(params, cfg, windows):
    inputs, target = windows[:, :-1], windows[:, -1]
    pred, _, _ = mo.forward(params, cfg, inputs)
    n = cfg.n_joints
    last = so3.project_to_so3(
        pred.data[:, -1].reshape(-1, 3, 3)).reshape(-1, n, 3, 3)
    return float(so3.geodesic_angle(last, target.reshape(-1, n, 3, 3)).mean())


def test_criterion_8_desk_scale_learning(dataset, desk_runs):
    _, val_seqs, _ = dataset
    res = desk_runs["runs"]["st"][0]
    windows = tr.make_eval_windows(val_seqs, 64, DESK_CFG.window + 1,
                                   np.random.default_rng(123))
    model_err = one_step_geodesic(res.params, DESK_CFG, windows)
    zv = windows[:, -2].reshape(-1, 9, 3, 3)
    tgt = windows[:, -1].reshape(-1, 9, 3, 3)
    zv_err = float(so3.geodesic_angle(zv, tgt).mean())
    seconds = desk_runs["seed0_seconds"]
    check(8, f"1-step geodesic {model_err:.4f} < 0.5 x zero-velocity "
             f"{zv_err:.4f} after 3000 steps in {seconds:.0f}s",
          model_err < 0.5 * zv_err and seconds < 900.0)


# ---------------------------------------------------------------------------
# 9. Decoupled attention beats the temporal-only baseline
# ---------------------------------------------------------------------------


def eight_step_geodesic(params, cfg, windows):
    t = DESK_CFG.window
    pred = mo.rollout_batch(params, cfg, windows[:, :t], 8)
    tgt = windows[:, t:t + 8]
    return float(so3.geodesic_angle(
        pred.reshape(-1, 3, 3), tgt.reshape(-1, 3, 3)).mean())


def test_criterion_9_architecture_ordering(dataset, desk_runs):
    _, val_seqs, _ = dataset
    van_cfg = desk_runs["van_cfg"]
    windows = tr.make_eval_windows(val_seqs, 64, DESK_CFG.window + 8,
                                   np.random.default_rng(321))
    st_errs = [eight_step_geodesic(desk_runs["runs"]["st"][s].params,
                                   DESK_CFG, windows) for s in (0, 1, 2)]
    va_errs = [eight_step_geodesic(desk_runs["runs"]["vanilla"][s].params,
                                   van_cfg, windows) for s in (0, 1, 2)]
    st_med, va_med = float(np.median(st_errs)), float(np.median(va_errs))
    check(9, f"8-step geodesic median: decoupled {st_med:.4f} <= "
             f"temporal-only {va_med:.4f} at matched parameter budgets",
          st_med <= va_med)


# ---------------------------------------------------------------------------
# 10. Long-horizon rollouts do not collapse
# ---------------------------------------------------------------------------


def test_criterion_10_long_horizon(dataset, desk_runs):
    _, val_seqs, sk = dataset
    res = desk_runs["runs"]["st"][0]
    flat = val_seqs[0].flat()
    seed = flat[:DESK_CFG.window]
    steps = int(20 * FPS)
    pred = mo.rollout(res.params, DESK_CFG, seed, steps)
    base = mo.zero_velocity(seed, steps)
    refs = list(tr.make_eval_windows(val_seqs, 120, int(FPS),
                                     np.random.default_rng(77)))
    _, kld_m, ent_m = em.longterm_eval(pred, sk, refs, FPS)
    _, kld_z, ent_z = em.longterm_eval(base, sk, refs, FPS)
    entropy_ok = all(m > z for m, z in zip(ent_m[1:], ent_z[1:]))
    kld_ok = all(m < z for m, z in zip(kld_m[:10], kld_z[:10]))
    check(10, "20s rollout keeps spectral entropy above zero-velocity after "
              "second 1 and spectral KLD below it through second 10",
          entropy_ok and kld_ok)


# ---------------------------------------------------------------------------
# 11. Metric-suite invariants
# ---------------------------------------------------------------------------


def test_criterion_11_metric_invariants(dataset):
    _, val_seqs, sk = dataset
    ok = True
    x = val_seqs[0].flat()[:120][None]
    report = em.full_report(x, x, sk, [400.0], FPS)[400.0]
    if report["euler"] > 1e-4 or report["geodesic"] > 1e-3:
        ok = False
    if report["positional_mm"] > 1e-3 or report["pck_auc"] != 100.0:
        ok = False

    k = 64
    uniform = np.full((5, k), 1.0 / k)
    if abs(em.ps_entropy(uniform) - np.log(k)) > 1e-12:
        ok = False
    delta = np.zeros((5, k))
    delta[:, 3] = 1.0
    if em.ps_entropy(delta) != 0.0:
        ok = False
    dist = em.ps_of_windows(list(tr.make_eval_windows(
        val_seqs, 8, 64, np.random.default_rng(5))), sk)
    if em.ps_kld(dist, dist) > 1e-12:
        ok = False
    other = uniform[:, ::-1].copy()
    if abs(em.ps_kld(uniform, other) - em.ps_kld(other, uniform)) > 1e-12:
        ok = False
    check(11, "table metrics vanish on equal inputs; uniform entropy is "
              "log K; spectral KLD is zero on equal and symmetric", ok)


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(dataset, tmp_path):
    train_seqs, val_seqs, _ = dataset
    cfg = mo.ModelConfig(n_joints=9, embed_dim=16, n_heads=2, n_layers=2,
                         ff_size=32, window=32, dropout=0.0)
    tcfg = tr.TrainConfig(batch_size=8, warmup=100, max_steps=50,
                          eval_every=25, seed=4, n_val_windows=4)
    outputs = []
    for run in ("a", "b"):
        params = mo.init_params(cfg, np.random.default_rng(4))
        res = tr.train(params, cfg, tcfg, train_seqs, val_seqs)
        hist = tmp_path / f"{run}.csv"
        tr.write_history_csv(hist, res.history)
        ckpt = tmp_path / f"{run}.stt1"
        mo.save_checkpoint(ckpt, cfg, res.params)
        seed = val_seqs[0].flat()[:32]
        pred = mo.rollout(res.params, cfg, seed, 60)
        outputs.append((hist.read_text(), ckpt.read_bytes(), pred))
    same = (outputs[0][0] == outputs[1][0]
            and outputs[0][1] == outputs[1][1]
            and np.array_equal(outputs[0][2], outputs[1][2]))
    check(12, "identical seeds give bit-identical histories, checkpoints "
              "and rollouts", same)
