"""The one-round protocol end to end: workers each send a single framed
message over loopback TCP, the coordinator aggregates whatever arrives.

Run:  python3 demos/cluster_round.py
"""

import numpy as np

from betadpca import (
    CvSelect,
    FixedBeta,
    GAUSSIAN,
    JobSpec,
    encode_summary,
    make_population,
    rho_similarity,
    run_local,
    run_sockets,
    sample_data,
    split_shards,
    worker_round,
)

P, N, M, R, Q = 60, 150, 5, 3, 6

model = make_population(P, N, R, GAUSSIAN, seed=42)
shards = split_shards(sample_data(model), M)
job = JobSpec(r=R, q=Q, beta_mode=FixedBeta(0.0))

# --- what actually goes over the wire -------------------------------------
msg = worker_round(shards[0], job.q)  # all of the job a worker acts on
frame = encode_summary(msg)
print(f"one worker message: p={msg.p} q={msg.q} n_ell={msg.n_ell}")
print(f"frame size: {len(frame)} bytes = q(p+1)*8 + 30 = {Q * (P + 1) * 8 + 30}")
raw = shards[0].samples.nbytes
print(f"raw shard size would have been {raw} bytes ({raw / len(frame):.0f}x more)")

# --- sockets vs in-process: same bytes in, same estimate out --------------
a = run_local(shards, job)
b = run_sockets(shards, job)
print("\nsocket round == in-process round:",
      bool(np.all(a.sigma_beta == b.sigma_beta)))
print(f"aggregate rho_r = {rho_similarity(a.leading, model.gamma[:, :R]):.4f} "
      f"(branch: {a.branch})")

# --- CV mode rides the same round ------------------------------------------
# Workers send the very same frames: they act on q only, and the
# coordinator validates on each machine's leading r columns, so beta selection
# costs no extra bytes.
job_cv = JobSpec(r=R, q=Q, beta_mode=CvSelect(folds=5))
res = run_sockets(shards, job_cv)
print(f"\nCV over the wire picked beta={res.beta_used:+.0f} "
      f"(scores: {{{', '.join(f'{b:+.0f}: {s:.4f}' for b, s in res.cv.scores.items())}}})")
print("CV-mode frame == fixed-beta frame:",
      encode_summary(worker_round(shards[0], job_cv.q)) == frame)
