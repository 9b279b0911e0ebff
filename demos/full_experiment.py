"""A miniature of the full simulation: replicate the data, race the five
methods, count which beta the CV picks, and print the accuracy curves.

Desk scale (p=200) takes a few seconds; this demo shrinks it further.
The CLI equivalent is:
    python3 -m betadpca simulate --p 120 --n 200 --m 5 --reps 8 --dist t3 \
        --seed 1 --out results.csv

Run:  python3 demos/full_experiment.py
"""

import time

from betadpca import ExperimentSpec, GAUSSIAN, STUDENT_T3, run_experiment

spec = ExperimentSpec(p=120, n=200, m=5, r=5, q=10, replicates=8,
                      k_max=12, seed=1)

for dist in (GAUSSIAN, STUDENT_T3):
    t0 = time.perf_counter()
    result = run_experiment(ExperimentSpec(**{**spec.__dict__, "distribution": dist}))
    took = time.perf_counter() - t0

    print(f"--- {dist}  (p={spec.p}, m={spec.m}, {spec.replicates} replicates, "
          f"{took:.1f}s) ---")
    counts = ", ".join(f"beta={b:+.0f}: {c}" for b, c in result.selection_counts.items())
    print(f"CV selection counts: {counts}")

    ks = result.spec.k_range
    print(f"mean rho_k for k in {ks[0]}..{ks[-1]}:")
    for method, curve in result.mean_rho.items():
        line = " ".join(f"{curve[k]:.3f}" for k in ks)
        print(f"  {method:8s} {line}")
    print()

# Expected picture: on gaussian data all methods are nearly tied; on t3
# data the beta<=0 aggregates and the CV track well above the plain
# projection average.
