"""Distributional check: simulated embedding versus pseudo embedding.

Pseudo embedding adds the sensor noise at the photo-site level and
develops; simulated embedding draws the stego signal directly in the DCT
domain from the analytic covariance.  Both must produce the same Gaussian
law for the unquantized DCT stego signal.  This is a reduced-size version
of the full acceptance check (2000 runs instead of 10000).
"""

import numpy as np

from jpegns import (
    EmbedConfig,
    RawImage,
    SensorParams,
    SimulatedEmbedder,
    develop_cover,
    pseudo_embed,
)

params = SensorParams(a1=0.0, b1=0.0, a2=1.15, b2=-1150.0)
raw = RawImage(data=np.full((48, 48), 2000.0), cfa="RGGB", bit_depth=12,
               params=params)
qf = 95
block = (2, 2)
n_runs = 2000

emb = SimulatedEmbedder(raw, EmbedConfig(qf=qf, K=5, key=0),
                        cache_factors=True)
analytic = emb.joint_covariance([block])
print(f"analytic DC variance of the stego signal: {analytic[0, 0]:.1f}")

sim = np.empty((n_runs, 64))
for key in range(n_runs):
    sim[key] = emb.run_first_lattice_block(key, block)["samples"]

base_plane, _ = develop_cover(raw, qf)
pse = np.empty((n_runs, 64))
for seed in range(n_runs):
    plane, _ = develop_cover(pseudo_embed(raw, seed), qf)
    pse[seed] = (plane - base_plane)[16:24, 16:24].ravel()

cov_sim = sim.T @ sim.copy() / n_runs
cov_pse = pse.T @ pse.copy() / n_runs

def report(name, emp):
    rel = np.abs(np.diag(emp) - np.diag(analytic)) / np.diag(analytic)
    print(f"{name}: max relative diagonal gap {rel.max():.3f} "
          f"(Monte-Carlo noise at n={n_runs} is about "
          f"{np.sqrt(2 / n_runs):.3f})")

report("simulated embedding", cov_sim)
report("pseudo embedding   ", cov_pse)
corr = np.corrcoef(cov_sim.ravel(), cov_pse.ravel())[0, 1]
print(f"correlation between the two empirical covariances: {corr:.4f}")
