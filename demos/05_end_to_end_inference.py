"""End to end: fit a one-layer KAN to a symbolic formula, run it
encrypted, and verify against the plaintext forward pass.
"""

import numpy as np

from hekan import (
    BackendConfig,
    Dataset,
    GridMatrix,
    KanModel,
    PipelineConfig,
    encrypt_input,
    fit_layer_ls,
    make_backend,
    model_forward_he,
    model_forward_plain,
    plan_model,
)

rng = np.random.default_rng(0)

# target: f(x) = exp(sin(pi x)) on [-1, 1]
x_train = rng.uniform(-1, 1, 400)
y_train = np.exp(np.sin(np.pi * x_train))
grid = GridMatrix.uniform(1, 10, 3, -1.0, 1.0)
layer, rmse = fit_layer_ls(Dataset(x_train.reshape(-1, 1), y_train.reshape(-1, 1)),
                           1, grid)
model = KanModel(layers=[layer], input_shape=(1, 1, 1))
print(f"layer fitted: g=10 k=3, train RMSE {rmse:.2e}")

backend_cfg = BackendConfig(slot_count=64, depth_budget=20)
cfg = PipelineConfig(comparator_mode="exact", backend=backend_cfg)
print("\ndepth plan:")
print(plan_model(model, cfg).describe())

backend = make_backend(backend_cfg)
x_test = np.linspace(-0.95, 0.95, 9)
print(f"\n{'x':>7} {'f(x)':>9} {'plain':>9} {'encrypted':>10}")
encrypted = []
for v in x_test:
    ct = encrypt_input(np.array([[[v]]]), model, backend)
    before = backend.counter.copy()
    out_ct, _ = model_forward_he(model, ct, cfg)
    cost = backend.counter.since(before)
    he_val = backend.decrypt(out_ct)[0]
    plain = model_forward_plain(model, [v])[0]
    encrypted.append(he_val)
    print(f"{v:>7.3f} {np.exp(np.sin(np.pi * v)):>9.5f} {plain:>9.5f} {he_val:>10.5f}")

plain_all = np.array([model_forward_plain(model, [v])[0] for v in x_test])
print(f"\nencrypted vs plain RMSE: "
      f"{np.sqrt(np.mean((np.array(encrypted) - plain_all) ** 2)):.2e}")
print(f"per-inference cost: {cost.rotations} rotations, "
      f"{cost.ct_mults} ct mults, {cost.pt_mults} pt mults, "
      f"depth {ct.level - out_ct.level}")
