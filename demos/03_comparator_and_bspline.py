"""Encrypted interval tests and the packed B-spline basis.

The comparator is a composition of odd minimax polynomials approximating
the sign function; interval membership is two comparator calls, and the
Cox-de Boor recursion then runs over all basis functions in parallel
thanks to repeat packing.
"""

import numpy as np

from hekan import (
    BackendConfig,
    GridMatrix,
    build_composite_sign,
    bspline_basis_he,
    bspline_basis_plain,
    make_backend,
    poly_comp,
    repeat_pack,
)
from hekan.approx import EXACT_COMPARATOR

cs = build_composite_sign()  # separation 2^-5, certified error 2^-20
print("composite sign: stage degrees", [s.degree for s in cs.stages],
      f"-> certified max error {cs.certified_max_error():.2e}, "
      f"depth {cs.depth()} levels")

be = make_backend(BackendConfig(slot_count=8, depth_budget=16))
a = be.encrypt([0.5, 0.2, 0.37])
b = np.array([0.2, 0.5, 0.37, 0, 0, 0, 0, 0])
out = be.decrypt(poly_comp(a, b, cs))[:3]
print(f"comp(0.5, 0.2) ~ 1: {out[0]:.6f}")
print(f"comp(0.2, 0.5) ~ 0: {out[1]:.6f}")
print(f"comp(x, x) = 1/2 exactly: {out[2]}")

print("\n== repeat packing ==")
n_i, g, k = 4, 5, 2
be = make_backend(BackendConfig(slot_count=256, depth_budget=24))
x = np.array([-0.62, -0.11, 0.33, 0.78])
ct = be.encrypt(x)
packed = repeat_pack(ct, g, k, n_i)
print(f"{g + 2 * k} copies of {n_i} values in one ciphertext, "
      f"{be.counter.rotations} rotations (log2 instead of linear)")

print("\n== all basis functions in one shot ==")
grid = GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
bv = bspline_basis_he(packed, grid, EXACT_COMPARATOR)
he_vals = be.decrypt(bv.ct)[: bv.length].reshape(bv.n_basis, n_i).T
plain = np.array([bspline_basis_plain(xi, grid.entries[i], k)
                  for i, xi in enumerate(x)])
print("worst deviation vs scalar Cox-de Boor:",
      f"{np.max(np.abs(he_vals - plain)):.2e}")
print("per-feature basis sums (partition of unity):",
      np.round(he_vals.sum(axis=1), 12))

print("\n== with the polynomial comparator ==")
be2 = make_backend(BackendConfig(slot_count=256, depth_budget=24))
packed2 = repeat_pack(be2.encrypt(x), g, k, n_i)
bv2 = bspline_basis_he(packed2, grid, cs)
vals2 = be2.decrypt(bv2.ct)[: bv2.length].reshape(bv2.n_basis, n_i).T
print("deviation vs exact basis:", f"{np.max(np.abs(vals2 - plain)):.2e}",
      "(grows near knots and far outside each basis support)")
