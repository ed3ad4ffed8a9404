"""Inspect attention maps and compare variant complexity.

Runs a forward pass through each architecture variant, prints the exported
temporal/spatial attention maps' structure (causal triangles, row sums),
and contrasts the attention-score counts and workspace estimate of the
decoupled model against the joint space-time (full 2D) variant.

Run:  python3 demos/03_attention_and_complexity.py
"""

import os
import tempfile

import numpy as np

from stmotion import model as mo
from stmotion import so3

rng = np.random.default_rng(0)
N, T = 9, 32
window = so3.random_rotations((T, N), rng).reshape(T, N, 9).astype(np.float32)


def fresh(cfg):
    params = mo.init_params(cfg, np.random.default_rng(1))
    # randomize the output projection so attention influences the output
    params["out.w"].data = np.random.default_rng(2).normal(
        0.0, 0.1, size=params["out.w"].data.shape).astype(np.float32)
    return params


for variant in ("st", "vanilla_1d", "full_2d"):
    cfg = mo.ModelConfig(n_joints=N, embed_dim=16, n_heads=2, n_layers=2,
                         ff_size=32, window=T, dropout=0.0, variant=variant)
    _, maps, stats = mo.forward(fresh(cfg), cfg, window, maps=True)
    tmap = maps.temporal[0]            # (H, T, T), layer 0
    upper = float(np.abs(np.triu(tmap, k=1)).max())
    row_sums = tmap.sum(axis=-1)
    line = (f"{variant:10s} scores/layer/head/elem={stats.scores_per_layer[0]:7d} "
            f"workspace={stats.workspace_elements:9d} "
            f"causal upper-triangle max={upper:.0e} "
            f"row sums in [{row_sums.min():.6f}, {row_sums.max():.6f}]")
    if maps.spatial:
        smap = maps.spatial[0]
        line += f"  spatial rows sum to {smap.sum(-1).mean():.6f}"
    print(line)

print("\nexpected counts at N=9, T=32:")
print(f"  decoupled  N*T*(T+N)  = {N * T * (T + N)}")
print(f"  full 2D    (N*T)^2    = {(N * T) ** 2}")

# Workspace scaling with the window: the 2D variant grows quadratically in
# the token count N*T, the decoupled one only quadratically in each axis.
print("\nwindow  decoupled-workspace  full-2d-workspace")
for t in (16, 32, 64):
    row = [t]
    for variant in ("st", "full_2d"):
        cfg = mo.ModelConfig(n_joints=N, embed_dim=16, n_heads=2, n_layers=2,
                             ff_size=32, window=t, dropout=0.0, variant=variant)
        row.append(mo.budget_bytes(cfg, 1, 0) // 4)  # float32 bytes, in elements
    print(f"{row[0]:6d}  {row[1]:19d}  {row[2]:17d}")

# A rollout's attention maps, one AttentionMaps per step, can be exported as
# CSV for plotting; each step's rows are written as the step ends.
cfg = mo.ModelConfig(n_joints=N, embed_dim=16, n_heads=2, n_layers=1,
                     ff_size=32, window=8, dropout=0.0)
STEPS = 2
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "attention.csv")
    with mo.write_attention_csv(path) as maps:
        mo.rollout(fresh(cfg), cfg, window[:8], steps=STEPS, maps_out=maps)
    with open(path) as fh:
        rows = fh.read().splitlines()
print(f"\nfirst attention CSV rows ({STEPS} steps):")
print("\n".join(rows[:5]))
