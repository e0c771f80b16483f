"""Lazy weight fusion versus homomorphic reordering, in operation counts.

The basis computation leaves results in column-tile order. The naive path
reorders them with a permutation-matrix product before the linear layer;
the lazy path folds that permutation into the weights offline, so the
encrypted pipeline never pays for it. Counts are deterministic, so the
comparison is hardware-independent. The CSV's wall_ms column times the
simulator, which runs the exact permutation matvec as one gather; it is not
the permutation's cost under a real scheme.
"""

from hekan.inference import bench_lazy_vs_naive, write_bench_csv

CONFIGS = [(64, 3, 2), (128, 5, 3), (256, 5, 3), (256, 10, 3), (256, 10, 5)]

rows = bench_lazy_vs_naive(CONFIGS, slot_count=2 ** 15, depth_budget=32,
                           n_o=10, seed=0)

print(f"{'(n_i,g,k)':>12} {'path':>6} {'rot':>6} {'ct_mul':>7} "
      f"{'pt_mul':>7} {'depth':>6} {'ratio':>7}")
for row in rows:
    print(f"{row['config']:>12} {row['path']:>6} {row['rotations']:>6} "
          f"{row['ct_mults']:>7} {row['pt_mults']:>7} {row['depth']:>6} "
          f"{row['speedup_vs_naive_counts']:>7}")

print("\nnaive overhead per config: n_i*(g+k) extra plaintext multiplies "
      "plus ~2*sqrt(n_i*(g+k)) extra rotations")
write_bench_csv(rows, "bench_lazy_vs_naive.csv")
print("rows written to bench_lazy_vs_naive.csv")
