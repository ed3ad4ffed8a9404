"""Long-horizon rollouts and power-spectrum health curves.

Trains a small model briefly, rolls it out autoregressively for several
seconds, and tracks two spectrum statistics per second of prediction:
entropy (does the motion stay lively or freeze?) and symmetric KL
divergence from the ground-truth spectrum (does it stay on-distribution?).
The zero-velocity baseline collapses immediately and serves as the foil.

Run:  python3 demos/04_long_horizon_spectra.py       (about a minute)
"""

import numpy as np

from stmotion import evalmetrics as em
from stmotion import model as mo
from stmotion import motiondata as md
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
tcfg = tr.TrainConfig(batch_size=16, warmup=200, max_steps=600, eval_every=200,
                      seed=0, n_val_windows=8)
result = tr.train(params, cfg, tcfg, train_seqs, val_seqs)
print(f"trained to validation geodesic {result.best_val:.4f}")

seed = val_seqs[0].flat()[:cfg.window]
steps = 10 * 60                      # ten seconds at 60 fps
pred = mo.rollout(result.params, cfg, seed, steps)
frozen = mo.zero_velocity(seed, steps)

refs = list(tr.make_eval_windows(val_seqs, 60, 60, np.random.default_rng(3)))
sec, kld_m, ent_m = em.longterm_eval(pred, skeleton, refs, 60.0)
_, kld_z, ent_z = em.longterm_eval(frozen, skeleton, refs, 60.0)

print("\nsecond  entropy(model)  entropy(frozen)  kld(model)  kld(frozen)")
for s, em_, ez, km, kz in zip(sec, ent_m, ent_z, kld_m, kld_z):
    print(f"{s:6d}  {em_:14.4f}  {ez:15.4f}  {km:10.4f}  {kz:11.4f}")

print("\nthe frozen baseline's spectrum is a spike at DC: entropy near zero "
      "and a large divergence from the reference; a healthy rollout keeps "
      "entropy high and divergence low for many seconds.")
