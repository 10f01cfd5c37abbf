"""Spline-parameterized multitask cyclone estimation at desk scale.

Layers: a numpy-backed tape autodiff engine (`tape`, `ops`), B-spline
KAN layers (`spline`), the estimator network and its deploy/ablation
variants (`model`), the training protocol (`training`), a synthetic
data generator with closed-form ground truth (`data`), static-graph
deployment lowering and interpreter (`staticgraph`), and a CLI (`cli`).
"""

from .errors import (CheckpointError, ConfigError, DataError, ExportError,
                     GraphError, NumericsError, ShapeError, StormkanError,
                     TrainingError)
from .tensor import Parameter
from .tape import Tape, Var
from .spline import (KanLinear, SplineGrid, bspline_basis, kan_init,
                     precompute_basis_coefficients)
from .model import CycloneNet, ModelConfig, build_model
from .training import (Metrics, PlateauTracker, TrainConfig, TrainResult,
                       compute_metrics, denormalize, evaluate, mae, mae_loss,
                       model_from_checkpoint, multitask_loss, normalize,
                       predict, read_checkpoint, rmse, save_checkpoint,
                       sgd_step, train, write_checkpoint)
from .data import (SyntheticDataset, TcSample, VortexParams,
                   augment_rotations, estimate_latents, generate_sample,
                   load_dataset, save_dataset, split_dataset, split_storm_ids)
from .staticgraph import (Session, StaticGraph, bench, export, load_graph,
                          save_graph)

__version__ = "0.1.0"
