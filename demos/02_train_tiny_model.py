"""Train a tiny decoupled spatio-temporal model on periodic motion.

Shows the full loop: window sampling with augmentation, the warmup learning
rate schedule, per-joint L2 loss, Adam with gradient clipping, periodic
validation, and a final comparison against the zero-velocity baseline.

Run:  python3 demos/02_train_tiny_model.py          (about a minute)
"""

import numpy as np

from stmotion import model as mo
from stmotion import motiondata as md
from stmotion import so3
from stmotion import training as tr

skeleton = md.default_skeleton()
rng = np.random.default_rng(0)
train_seqs = [md.synth_motion(skeleton, 36000, 60.0,
                              md.two_frequency_spec(skeleton),
                              noise_std=0.01, rng=rng)]
val_seqs = [md.synth_motion(skeleton, 3600, 60.0,
                            md.two_frequency_spec(skeleton),
                            noise_std=0.01, rng=rng)]

cfg = mo.ModelConfig(n_joints=9, embed_dim=16, n_heads=2, n_layers=2,
                     ff_size=32, window=32, dropout=0.0)
params = mo.init_params(cfg, np.random.default_rng(1))
print(f"model: {mo.param_count(cfg)} parameters, variant={cfg.variant}")

tcfg = tr.TrainConfig(batch_size=16, warmup=200, max_steps=600, eval_every=100,
                      seed=0, n_val_windows=8, mirror_prob=0.5)
result = tr.train(params, cfg, tcfg, train_seqs, val_seqs)

print("\nstep   loss      lr          val_geodesic")
for row in result.history:
    if row["val_geodesic"] is not None:
        print(f"{row['step']:5d}  {row['loss']:8.4f}  {row['lr']:.3e}  "
              f"{row['val_geodesic']:.4f}")
print(f"best validation geodesic {result.best_val:.4f} at step {result.best_step}")

# One-step prediction versus the repeat-last-frame baseline on fresh windows.
windows = tr.make_eval_windows(val_seqs, 64, cfg.window + 1,
                               np.random.default_rng(9))
pred, _, _ = mo.forward(result.params, cfg, windows[:, :-1])
last = so3.project_to_so3(pred.data[:, -1].reshape(-1, 3, 3))
target = windows[:, -1].reshape(-1, 3, 3)
zv = windows[:, -2].reshape(-1, 3, 3)
model_err = float(so3.geodesic_angle(last, target).mean())
zv_err = float(so3.geodesic_angle(zv, target).mean())
print(f"\n1-step geodesic: model {model_err:.4f} rad, "
      f"zero-velocity {zv_err:.4f} rad "
      f"({100 * (1 - model_err / zv_err):.0f}% better)")
