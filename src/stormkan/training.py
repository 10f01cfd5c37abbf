"""Multitask training: MAE losses, plain SGD on micro-batched passes,
plateau scheduling, early stopping, denormalized metrics, and
checkpoint round-trips.

A train step runs its batch as passes of at most ``MICRO_BATCH``
samples on ``WORKERS`` workers, each a forward and backward on its own
tape, and sums their gradients, weighted by pass size, into one SGD
update: the batch-mean gradient, at the memory of one pass per worker.

A ``.kfc`` checkpoint is a ``tensor.write_container`` payload (magic
"KFC1", version 1): the JSON header holds the model config, the dtype
and any run record, and each parameter is a tensor named by its state
key, in sorted order.

Targets are normalized to [0, 1]; reported errors are denormalized to
knots (peak wind, range [19, 170]) and nautical miles (radius of peak
wind, range [5, 200]).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ops
from .errors import (CheckpointError, ConfigError, DataError, NumericsError,
                     ShapeError, TrainingError)
from .model import CycloneNet, ModelConfig, build_model
from .ops import WORKERS
from .tape import Tape, Var
from .tensor import Parameter, read_container, write_container

CKPT_MAGIC = b"KFC1"
CKPT_VERSION = 1

# samples per forward/backward pass of a train step; a larger batch is
# several passes, on WORKERS workers, summed before one SGD step
MICRO_BATCH = 2

# a validation loss is a new best only if below the best by more than this
IMPROVEMENT_THRESHOLD = 1e-6
# the lr is cut by PLATEAU_FACTOR at every PLATEAU_PATIENCE epochs without
# a new best, and training stops at EARLY_STOP_PATIENCE of them
PLATEAU_PATIENCE = 5
PLATEAU_FACTOR = 0.5
EARLY_STOP_PATIENCE = 10

MSW_RANGE = (19.0, 170.0)   # knots
RMW_RANGE = (5.0, 200.0)    # nautical miles
_RANGES = {"msw": MSW_RANGE, "rmw": RMW_RANGE}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    batch: int = 128
    max_epochs: int = 200
    alpha: float = 1.0
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.alpha < 0 or self.beta < 0 or (self.alpha == 0 and self.beta == 0):
            raise ConfigError("task weights must be >= 0 and not both zero")
        if self.batch < 1 or self.max_epochs < 1:
            raise ConfigError("batch and max_epochs must be >= 1")


@dataclass
class Metrics:
    mae_msw_kt: float
    rmse_msw_kt: float
    mae_rmw_nmi: float
    rmse_rmw_nmi: float


# ---------------------------------------------------------------------------
# losses and metrics


def mae(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.size == 0:
        raise ShapeError("mae on empty input")
    if pred.shape != target.shape:
        raise ShapeError(f"mae length mismatch: {pred.shape} vs {target.shape}")
    return float(np.abs(pred - target).mean())


def rmse(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.size == 0:
        raise ShapeError("rmse on empty input")
    if pred.shape != target.shape:
        raise ShapeError(f"rmse length mismatch: {pred.shape} vs {target.shape}")
    return float(np.sqrt(((pred - target) ** 2).mean()))


def mae_loss(pred: Var, target: Var) -> Var:
    """Mean absolute error as a tape op (subgradient 0 at zero error)."""
    return ops.mean(ops.abs_(ops.sub(pred, target)))


def multitask_loss(y_msw: Var, y_rmw: Var, t_msw: Var, t_rmw: Var,
                   alpha: float = 1.0, beta: float = 1.0) -> Var:
    if alpha < 0 or beta < 0:
        raise ConfigError("task weights must be non-negative")
    return ops.add(ops.scale(mae_loss(y_msw, t_msw), alpha),
                   ops.scale(mae_loss(y_rmw, t_rmw), beta))


def denormalize(y_norm, task: str):
    """Min-max inverse to physical units; extrapolates linearly outside [0,1]."""
    lo, hi = _RANGES[task]
    return lo + np.asarray(y_norm) * (hi - lo)


def compute_metrics(pred_msw_norm, pred_rmw_norm,
                    t_msw_norm, t_rmw_norm) -> Metrics:
    pm, tm = denormalize(pred_msw_norm, "msw"), denormalize(t_msw_norm, "msw")
    pr, tr = denormalize(pred_rmw_norm, "rmw"), denormalize(t_rmw_norm, "rmw")
    return Metrics(mae(pm, tm), rmse(pm, tm), mae(pr, tr), rmse(pr, tr))


# ---------------------------------------------------------------------------
# optimization


def sgd_step(params: list[Parameter], grads, lr: float) -> list[Parameter]:
    """Plain SGD: p <- p - lr * g (no momentum, no weight decay)."""
    for p in params:
        g = grads.wrt_param(p)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != parameter {p.name} "
                f"shape {p.data.shape}")
        p.data -= lr * g
    return params


class PlateauTracker:
    """The best validation loss and the epochs since it last improved by
    more than ``IMPROVEMENT_THRESHOLD``: the lr, starting at `lr`, is cut
    by ``PLATEAU_FACTOR`` at every ``PLATEAU_PATIENCE`` of those epochs,
    and training stops at ``EARLY_STOP_PATIENCE`` of them."""

    def __init__(self, lr: float):
        self.lr = lr
        self.best = np.inf
        self.stale = 0

    def update(self, loss: float) -> bool:
        """Record one epoch's validation loss; True if it is a new best."""
        if loss < self.best - IMPROVEMENT_THRESHOLD:
            self.best = loss
            self.stale = 0
            return True
        self.stale += 1
        if self.stale % PLATEAU_PATIENCE == 0:
            self.lr *= PLATEAU_FACTOR
        return False

    @property
    def stop(self) -> bool:
        return self.stale >= EARLY_STOP_PATIENCE


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: CycloneNet, extra: dict | None = None) -> bytes:
    config = {
        "model": asdict(model.cfg),
        "dtype": model.dtype.name,
    }
    if extra:
        config["run"] = extra
    state = model.state()
    return write_container(CKPT_MAGIC, CKPT_VERSION, config,
                           {name: state[name] for name in sorted(state)})


def write_checkpoint(path, model: CycloneNet, extra: dict | None = None):
    with open(path, "wb") as fp:
        fp.write(save_checkpoint(model, extra))


def load_checkpoint(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        return read_container(data, CKPT_MAGIC, CKPT_VERSION)
    except DataError as exc:
        raise CheckpointError(f"invalid checkpoint: {exc}") from exc


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fp:
        return load_checkpoint(fp.read())


def model_from_checkpoint(data_or_path) -> tuple[CycloneNet, dict]:
    if isinstance(data_or_path, (bytes, bytearray)):
        config, state = load_checkpoint(bytes(data_or_path))
    else:
        config, state = read_checkpoint(data_or_path)
    try:
        cfg = ModelConfig(**config["model"])
        dtype = np.dtype(config.get("dtype", "float32"))
        if dtype.kind != "f":
            raise ConfigError(f"dtype {dtype} is not a float type")
    except (TypeError, KeyError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint/config mismatch: {exc}") from exc
    # a corrupt size must not make build_model allocate far past the
    # file: in checkpoints this package writes none exceeds the widest
    # stored extent (an all-MLP model's grid size no tensor)
    widest = max((max(a.shape, default=1) for a in state.values()), default=0)
    for name in ("d_attn", "lstm_hidden", "task_dim", "reduce_channels",
                 "grid_size", "spline_order"):
        if getattr(cfg, name) > widest:
            raise CheckpointError(f"{name} exceeds every stored extent")
    model = build_model(cfg, seed=0, dtype=dtype)
    try:
        model.load_state(state)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint/config mismatch: {exc}") from exc
    return model, config


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    epochs_run: int
    best_epoch: int
    best_val_loss: float
    log_lines: list[str] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)
    stopped_early: bool = False
    final_metrics: Metrics | None = None

    @property
    def log_text(self) -> str:
        return "\n".join(self.log_lines) + "\n"


def collate(dataset, indices, dtype=np.float32):
    # one read per sample: a lazy dataset builds the sample on each read
    samples = [dataset[i] for i in indices]
    xs = np.stack([s.x_seq for s in samples])
    xi = np.stack([s.x_img for s in samples])
    tm = np.array([[s.y_msw_norm] for s in samples], dtype=dtype)
    tr = np.array([[s.y_rmw_norm] for s in samples], dtype=dtype)
    return xs.astype(dtype, copy=False), xi.astype(dtype, copy=False), tm, tr


def predict(model: CycloneNet, dataset, batch: int = 64):
    """Normalized predictions over a dataset, [N] per task, on
    forward-only tapes: no op keeps its backward context, nor any node
    its output."""
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    if len(dataset) == 0:
        raise ShapeError("predict on an empty dataset")
    preds_m, preds_r = [], []
    for start in range(0, len(dataset), batch):
        idxs = range(start, min(start + batch, len(dataset)))
        xs, xi, _, _ = collate(dataset, idxs, dtype=model.dtype)
        ym, yr = model.forward(Tape(grad=False), xs, xi)
        preds_m.append(ym.data[:, 0].copy())
        preds_r.append(yr.data[:, 0].copy())
    return np.concatenate(preds_m), np.concatenate(preds_r)


def evaluate(model: CycloneNet, dataset, alpha: float = 1.0,
             beta: float = 1.0, batch: int = 64):
    """(multitask normalized MAE, denormalized Metrics) over a dataset."""
    pm, pr = predict(model, dataset, batch)
    samples = [dataset[i] for i in range(len(dataset))]
    # targets in the model's precision, as collate gives them to training
    tm = np.array([s.y_msw_norm for s in samples], dtype=model.dtype)
    tr = np.array([s.y_rmw_norm for s in samples], dtype=model.dtype)
    loss = alpha * mae(pm, tm) + beta * mae(pr, tr)
    return loss, compute_metrics(pm, pr, tm, tr)


class _GradientSum:
    """Per-parameter gradients summed over a batch's passes, read by
    ``sgd_step`` as it reads a tape's ``Gradients``."""

    def __init__(self, params: list[Parameter]):
        self._params = params
        self._by_id = {id(p): np.zeros_like(p.data) for p in params}

    def add(self, grads, weight: float) -> None:
        for p in self._params:
            self._by_id[id(p)] += weight * grads.wrt_param(p)

    def wrt_param(self, param: Parameter) -> np.ndarray:
        return self._by_id[id(param)]


def _pass_loss(model: CycloneNet, cfg: TrainConfig, tape: Tape, dataset,
               idxs) -> Var:
    """The multitask loss of the samples `idxs`, forward on `tape`."""
    xs, xi, tm, tr = collate(dataset, idxs, dtype=model.dtype)
    ym, yr = model.forward(tape, xs, xi)
    return multitask_loss(ym, yr, tape.constant(tm), tape.constant(tr),
                          cfg.alpha, cfg.beta)


def _run_pass(model: CycloneNet, cfg: TrainConfig, dataset, idxs,
              total: _GradientSum, weight: float) -> float:
    """One pass of a batch: forward, loss and, if the loss is finite,
    backward, whose parameter gradients times `weight` go into `total`.
    Returns the pass loss; every array of the pass is dropped on
    return."""
    tape = Tape()
    loss = _pass_loss(model, cfg, tape, dataset, idxs)
    lval = float(loss.data)
    if np.isfinite(lval):
        total.add(tape.backprop(loss), weight)
    return lval


def _run_step(model: CycloneNet, cfg: TrainConfig, dataset, passes,
              size: int) -> tuple[_GradientSum, list]:
    """A batch's passes, pass k on worker k % WORKERS, on two cores
    while BLAS is pinned to one thread (``ops._on_workers``).  Returns
    the workers' gradient sums added in worker order, and each pass's
    loss, exception, or None after a worker's failed pass."""
    sums = [_GradientSum(model.parameters()) for _ in range(WORKERS)]
    outcomes = [None] * len(passes)

    def work(w):
        try:
            for k in range(w, len(passes), WORKERS):
                outcomes[k] = _run_pass(model, cfg, dataset, passes[k],
                                        sums[w], len(passes[k]) / size)
                if not np.isfinite(outcomes[k]):
                    return
        except Exception as exc:
            outcomes[k] = exc

    with ops._one_blas_thread():
        ops._on_workers(work, WORKERS)
    for other in sums[1:]:
        sums[0].add(other, 1.0)
    return sums[0], outcomes


def _first_nonfinite(model: CycloneNet, cfg: TrainConfig, dataset,
                     idxs) -> str:
    """Where a pass's loss goes non-finite: its forward and loss re-run
    on a checked, forward-only tape, which stops at the first non-finite
    leaf or op output (``Tape(checked=True)``)."""
    try:
        _pass_loss(model, cfg, Tape(checked=True, grad=False), dataset, idxs)
    except NumericsError as exc:
        return str(exc)
    return "every output is finite on a re-run"


def train(model: CycloneNet, train_set, val_set, cfg: TrainConfig,
          log_path=None, quiet: bool = True) -> TrainResult:
    """SGD epochs with shuffled batches, plateau scheduling + early stop.

    Each batch runs as passes of at most ``MICRO_BATCH`` samples, each
    with its own tape, forward, loss and backward, on ``WORKERS``
    workers (``_run_step``); their parameter gradients, weighted by pass
    size over batch size, sum in a fixed order to the batch's, and one
    ``sgd_step`` applies them.  A pass's arrays are dropped before its
    worker's next pass collates, so peak memory is that of one pass per
    worker whatever the batch; validation runs in batches of at most
    ``MICRO_BATCH`` too.

    The best-validation parameter state is restored into the model at
    the end.  One log line per epoch: epoch, train_loss (the mean pass
    loss over samples), val_loss, lr, the four denormalized validation
    metrics, then the epoch's wall time in seconds (its steps and its
    validation) and its training samples per second of that time.  A
    batch's first failing pass re-raises its error, or for a non-finite
    loss raises TrainingError naming the epoch, the batch and the first
    leaf or op output that goes non-finite when the pass is re-run on a
    checked tape (``_first_nonfinite``).
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise TrainingError("empty train or validation set")
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    plateau = PlateauTracker(cfg.lr)
    best_epoch = 0
    best_state = {k: v.copy() for k, v in model.state().items()}
    result = TrainResult(0, 0, np.inf)

    for epoch in range(1, cfg.max_epochs + 1):
        start = time.perf_counter()
        lr = plateau.lr
        order = rng.permutation(len(train_set))
        total = 0.0
        for bstart in range(0, len(order), cfg.batch):
            idxs = order[bstart:bstart + cfg.batch]
            passes = [idxs[p:p + MICRO_BATCH]
                      for p in range(0, len(idxs), MICRO_BATCH)]
            grads, outcomes = _run_step(model, cfg, train_set, passes,
                                        len(idxs))
            for pidxs, lval in zip(passes, outcomes):
                if isinstance(lval, BaseException):
                    raise lval
                if not np.isfinite(lval):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch "
                        f"{bstart // cfg.batch} (lr={lr}): "
                        f"{_first_nonfinite(model, cfg, train_set, pidxs)}")
                total += lval * len(pidxs)
            sgd_step(params, grads, lr)
        train_loss = total / len(order)

        val_loss, metrics = evaluate(model, val_set, cfg.alpha, cfg.beta,
                                     batch=min(cfg.batch, MICRO_BATCH))
        wall = time.perf_counter() - start
        line = ",".join(repr(float(v)) for v in (
            train_loss, val_loss, lr, metrics.mae_msw_kt,
            metrics.rmse_msw_kt, metrics.mae_rmw_nmi, metrics.rmse_rmw_nmi,
            wall, len(order) / wall))
        result.log_lines.append(f"{epoch},{line}")
        result.val_history.append(val_loss)
        result.final_metrics = metrics
        if not quiet:
            print(result.log_lines[-1], flush=True)

        result.epochs_run = epoch
        if plateau.update(val_loss):
            best_epoch = epoch
            best_state = {k: v.copy() for k, v in model.state().items()}
        if plateau.stop:
            result.stopped_early = True
            break

    result.best_epoch = best_epoch
    result.best_val_loss = float(plateau.best)
    model.load_state(best_state)
    if log_path is not None:
        with open(log_path, "w") as fp:
            fp.write(result.log_text)
    return result
