"""Build the estimator, inspect the feature chain, take a training step.

Uses a desk-scale 40x40 configuration so it runs in seconds.
Run: python demos/04_model_and_training.py
"""

import numpy as np

from stormkan import (ModelConfig, Tape, TrainConfig, build_model, ops,
                      multitask_loss, sgd_step)
from stormkan.data import SyntheticDataset
from stormkan.training import collate, evaluate, train

cfg = ModelConfig(image_hw=40, r_center=20, ring_count=9)
model = build_model(cfg, seed=0)
print("parameters:", model.param_count())

ds = list(SyntheticDataset(range(6), 4, seed=3, image_hw=40))
xs, xi, tm, tr = collate(ds, range(8))

# one annotated forward pass
tape = Tape()
f_seq = model.temporal_features(tape, xs)
f_img = model.spatial_features(tape, xi)
rings = model.ring_features(tape, xi)
print("temporal features:", f_seq.shape, "| spatial:", f_img.shape,
      "| ring means:", rings.shape)
a_msw = model.head_msw.forward(rings, f_seq)
a_rmw = model.head_rmw.forward(rings, f_seq)
gamma_r2m, gamma_m2r = model.physics_constraint(a_msw, a_rmw)
print("task features:", a_msw.shape, "| coupled:", gamma_r2m.shape)
ym, yr = model.forward(tape, xs, xi)
print("predictions:", ym.shape, yr.shape)

# one SGD step on the multitask MAE
loss = multitask_loss(ym, yr, tape.constant(tm), tape.constant(tr))
print("loss before:", float(loss.data))
grads = tape.backprop(loss)
sgd_step(model.parameters(), grads, lr=0.01)
tape2 = Tape()
ym2, yr2 = model.forward(tape2, xs, xi)
loss2 = multitask_loss(ym2, yr2, tape2.constant(tm), tape2.constant(tr))
print("loss after one step:", float(loss2.data))

# a short seeded training run with the plateau scheduler + early stop
result = train(model, ds, ds, TrainConfig(lr=0.01, batch=8, max_epochs=3,
                                          seed=5))
print("epochs run:", result.epochs_run)
_, metrics = evaluate(model, ds)
print(f"denormalized train-set errors: "
      f"MSW MAE {metrics.mae_msw_kt:.1f} kt, "
      f"RMW MAE {metrics.mae_rmw_nmi:.1f} nmi")
