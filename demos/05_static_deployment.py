"""Lower a deploy-variant model to a static graph and benchmark it.

The deploy variant replaces the LSTM with a flattened-input spline
stack, so the whole forward pass becomes a branch-free op list with
precomputed spline coefficients.  The graph has no pool node: the ring
means are two matmuls on a constant averaging matrix, the spatial
quadrant mean is computed on tap means in front of the convs it follows,
and the 2x2 max-pool, like each conv's bias and ReLU, runs inside its
CONV2D node.

Run: python demos/05_static_deployment.py
"""

import numpy as np

from stormkan import (ModelConfig, Session, Tape, bench, build_model, export,
                      load_graph, save_graph)
from stormkan.staticgraph import CONV2D

cfg = ModelConfig(image_hw=40, r_center=20, ring_count=9, variant="deploy")
model = build_model(cfg, seed=1)

graph = export(model)
print(f"graph: {len(graph.nodes)} nodes, "
      f"{graph.parameter_count()} constant values")
print("conv (relu, pool) attributes:",
      [n.attrs[3:] for n in graph.nodes if n.op == CONV2D])

payload = save_graph(graph)
print("serialized bytes:", len(payload))
graph2 = load_graph(payload)  # constructing the loaded graph validates it

rng = np.random.default_rng(0)
inputs = {
    "x_seq_flat": rng.uniform(0, 1, (1, 15)).astype(np.float32),
    "x_img": rng.uniform(0, 1, (1, 8, 40, 40)).astype(np.float32),
}
session = Session(graph2)
static_out = session.run(inputs)

tape = Tape()
ym, yr = model.forward_deploy(tape, inputs["x_seq_flat"], inputs["x_img"])
print("static vs dynamic |diff|:",
      abs(float(static_out["y_msw"][0, 0]) - float(ym.data[0, 0])),
      abs(float(static_out["y_rmw"][0, 0]) - float(yr.data[0, 0])))

report = bench(graph2, n_warmup=3, n_runs=20)
print(f"latency: mean {report['mean_ms']:.2f} ms, "
      f"p50 {report['p50_ms']:.2f} ms, p95 {report['p95_ms']:.2f} ms; "
      f"steady-state allocations: {report['steady_state_allocs']}, "
      f"measured {report['alloc_mib_per_run']:.3f} MiB per run")

# the full (recurrent) variant refuses to lower, by design
try:
    export(build_model(ModelConfig(image_hw=40, r_center=20, ring_count=9),
                       seed=2))
except Exception as exc:
    print("full variant export ->", type(exc).__name__, "-", exc)
