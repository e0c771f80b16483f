"""Encrypted interval tests and the packed B-spline basis.

The comparator is a composition of odd minimax polynomials approximating
the sign function; interval membership is one comparator call over all
knot columns, h, whose order-0 basis is h minus h read one block ahead,
and the Cox-de Boor recursion then runs over all basis functions in parallel
thanks to repeat packing. Every stage function takes a ciphertext or a
plain array: on an array it is the mirror, with the same bits.
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
grid = GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
be = make_backend(BackendConfig(slot_count=256, depth_budget=24))
x = np.array([-0.62, -0.11, 0.33, 0.78])
ct = be.encrypt(x)
packed = repeat_pack(ct, grid)  # copies of x / (2R), the comparator's unit
print(f"{1 << be.counter.rotations} copies of {n_i} values in one ciphertext "
      f"(the basis reads {g + 2 * k + 1}), "
      f"{be.counter.rotations} rotations (log2 instead of linear)")

print("\n== all basis functions in one shot ==")
bv = bspline_basis_he(packed, grid, EXACT_COMPARATOR)
he_vals = be.decrypt(bv)[: n_i * grid.n_basis].reshape(grid.n_basis, n_i).T
plain = np.array([bspline_basis_plain(xi, grid.entries[i], k)
                  for i, xi in enumerate(x)])
deviation = np.max(np.abs(he_vals - plain))
print("worst deviation vs scalar Cox-de Boor:", f"{deviation:.2e}")
assert deviation <= 1e-12, deviation
print("per-feature basis sums (partition of unity):",
      np.round(he_vals.sum(axis=1), 12))

print("\n== with the polynomial comparator ==")
be2 = make_backend(BackendConfig(slot_count=256, depth_budget=24))
packed2 = repeat_pack(be2.encrypt(x), grid)
bv2 = bspline_basis_he(packed2, grid, cs)
vals2 = be2.decrypt(bv2)[: n_i * grid.n_basis].reshape(grid.n_basis, n_i).T
print("deviation vs exact basis:", f"{np.max(np.abs(vals2 - plain)):.2e}",
      "(grows near knots and far outside each basis support)")

print("\n== the same programs on the plain array (the mirror) ==")
mirror = bspline_basis_he(repeat_pack(x, grid), grid, cs)
mirror_vals = mirror[: n_i * grid.n_basis].reshape(grid.n_basis, n_i).T
print("bit-identical to the decrypted basis:", np.array_equal(mirror_vals, vals2))
