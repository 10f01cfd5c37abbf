"""Multitask cyclone estimator: spline layers + annular attention.

Two normalized targets (peak wind, radius of peak wind) are predicted
from a 3x5 temporal sequence and an 8x156x156 infrared image stack.
The network composes a shared temporal/spatial extractor, one
ring-attention head per task, bidirectional residual task coupling,
and per-task fusion decoders.

The trunk, conv1 and conv2, runs its bias, ReLU and (after conv2) 2x2
max-pool inside ``ops.conv2d``, so no unpooled map outlives the forward.
The spatial tail never runs at the resolution of the trunk (78x78 at 156²).
Between the max-pooled trunk map and the image projection, ``res``, the
three dilated convs, their sum, the concat, ``reduce`` and the 2x2
quadrant mean are all linear, so the mean moves in front of them: each
conv runs on the quadrant means of shifted copies of the trunk map
(``quadrant_tap_matrix``), a tap grid of 2x2 quadrants x kxk kernel
taps, at stride k.  One matmul pair computes all four convs' tap grids
(``quadrant_tap_grid``), so the backward forms one full-size gradient.

The ring features are linear in the image as well: in both variants,
every ring's 2x2 quadrant means are ``M_i X M_i^T`` for a constant
``[2, n]`` averaging matrix ``M_i`` (``_ring_mean_matrix``), two small
GEMMs that need no backward of their own.  A ``deploy`` variant
replaces the LSTM with a flattened-input spline stack, so the whole
forward pass can be lowered to a static graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .spline import KanLinear, SplineGrid, kan_init
from .tape import Tape, Var
from .tensor import Parameter

IMG_CHANNELS = 8
ATTN_CHANNEL = 6     # 0-based index of the long-wave infrared channel
CONV1_CH = 16
CONV2_CH = 32
RES_CH = 64

VARIANTS = ("full", "deploy")
ABLATION_FLAGS = ("no_lstm", "no_seq", "mlp_extract", "mlp_attention",
                  "mlp_constraint", "mlp_decoder")


@dataclass(frozen=True)
class ModelConfig:
    d_attn: int = 32
    heads: int = 4
    lstm_hidden: int = 64
    shared_dim: int = 64
    task_dim: int = 32
    reduce_channels: int = 64
    ring_count: int = 39
    r_center: int = 77
    image_hw: int = 156
    seq_len: int = 3
    seq_feat: int = 5
    variant: str = "full"
    no_lstm: bool = False
    no_seq: bool = False
    mlp_extract: bool = False
    mlp_attention: bool = False
    mlp_constraint: bool = False
    mlp_decoder: bool = False
    compressed: bool = False
    grid_size: int = 5
    spline_order: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value).__name__ != f.type:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            low = 0 if f.name == "spline_order" else 1
            if f.type == "int" and value < low:
                raise ConfigError(f"{f.name} must be >= {low}, got {value}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.no_seq and self.no_lstm:
            raise ConfigError("conflicting ablation flags: no_seq with no_lstm")
        if self.no_seq and self.variant == "deploy":
            raise ConfigError("no_seq conflicts with the deploy variant")
        cfg = self._resolved_fields()
        if cfg["d_attn"] % self.heads != 0:
            raise ConfigError(
                f"d_attn {cfg['d_attn']} not divisible by heads {self.heads}")
        if cfg["shared_dim"] != 2 * cfg["task_dim"]:
            raise ConfigError("shared_dim must equal 2 * task_dim")
        err = ops.ring_geometry_error(self.r_center, self.ring_count,
                                      self.image_hw)
        if err is not None:
            raise ConfigError(f"ring geometry invalid: {err}")
        if self.image_hw % 2 != 0:
            raise ConfigError("image_hw must be even (2x2 max-pool stage)")

    def _resolved_fields(self) -> dict:
        if not self.compressed:
            return {"d_attn": self.d_attn, "task_dim": self.task_dim,
                    "shared_dim": self.shared_dim,
                    "lstm_hidden": self.lstm_hidden,
                    "reduce_channels": self.reduce_channels}
        return {"d_attn": 16, "task_dim": 16, "shared_dim": 32,
                "lstm_hidden": 32, "reduce_channels": 32}

    def resolved(self) -> "ModelConfig":
        """Apply the compressed preset (halved hidden widths)."""
        if not self.compressed:
            return self
        return replace(self, compressed=False, **self._resolved_fields())

    @property
    def flat_seq(self) -> int:
        return self.seq_len * self.seq_feat

    @property
    def flatten_width(self) -> int:
        return 4 * self.reduce_channels

    @property
    def decoder_in(self) -> int:
        return 2 * self.task_dim + self.shared_dim


def _ring_mean_matrix(cfg: ModelConfig, dtype) -> np.ndarray:
    """[rings, 2, image_hw] averaging matrix M of the ring quadrants.

    Row (i, q) averages the pixels of bin q (``ops._adaptive_bins``) of
    ring i's crop (``ops.ring_crops``), so for an image X [.., n, n],
    M_i X M_i^T holds ring i's 2x2 quadrant means.
    """
    m = np.zeros((cfg.ring_count, 2, cfg.image_hw), dtype=dtype)
    for i, (lo, hi) in enumerate(ops.ring_crops(cfg.r_center,
                                                cfg.ring_count)):
        for q, (b0, b1) in enumerate(ops._adaptive_bins(hi - lo, 2)):
            m[i, q, lo + b0:lo + b1] = 1.0 / (b1 - b0)
    return m


def quadrant_tap_matrix(n: int, offsets, dtype) -> np.ndarray:
    """[n, 2 * len(offsets)] averaging matrix of the shifted quadrant means.

    Column q * len(offsets) + i averages the rows of quadrant q's
    adaptive bin (``ops._adaptive_bins(n, 2)``) shifted by offsets[i];
    rows shifted outside [0, n) are dropped, which is zero padding.  So
    for a map X [.., n, n], R^T X R holds the 2x2 quadrant means of
    every shifted copy of X: quadrant (p, q) at shift (o_i, o_j) is
    element (p * k + i, q * k + j), k = len(offsets).
    """
    k = len(offsets)
    r = np.zeros((n, 2 * k), dtype=dtype)
    for q, (lo, hi) in enumerate(ops._adaptive_bins(n, 2)):
        for i, off in enumerate(offsets):
            r[max(lo + off, 0):min(hi + off, n), q * k + i] = 1.0 / (hi - lo)
    return r


def quadrant_tap_grid(n: int, layers, dtype):
    """Each layer's ``quadrant_tap_matrix`` side by side in one matrix R,
    and each layer's [lo, hi) block of R's columns: for a map X [.., n, n],
    R^T X R holds every layer's [2k, 2k] tap grid on a diagonal block."""
    mats = [quadrant_tap_matrix(n, layer.tap_offsets, dtype)
            for layer in layers]
    ends = np.cumsum([m.shape[1] for m in mats]).tolist()
    return np.concatenate(mats, axis=1), list(zip([0] + ends[:-1], ends))


# ---------------------------------------------------------------------------
# layer containers


class Conv2dLayer:
    def __init__(self, name, cin, cout, kernel, padding, dilation, rng, dtype):
        fan_in = cin * kernel * kernel
        bound = 1.0 / math.sqrt(fan_in)
        self.padding = padding
        self.dilation = dilation
        self.w = Parameter(f"{name}.w",
                           rng.uniform(-bound, bound,
                                       (cout, cin, kernel, kernel)).astype(dtype))
        self.b = Parameter(f"{name}.b",
                           rng.uniform(-bound, bound, cout).astype(dtype))

    def parameters(self):
        return [self.w, self.b]

    def forward(self, x: Var, relu: bool = False, pool: bool = False) -> Var:
        t = x.tape
        return ops.conv2d(x, t.param(self.w), t.param(self.b), stride=1,
                          padding=self.padding, dilation=self.dilation,
                          relu=relu, pool=pool)

    @property
    def tap_offsets(self) -> tuple[int, ...]:
        """Row (and column) shift of each kernel tap against the output."""
        return tuple(j * self.dilation - self.padding
                     for j in range(self.w.data.shape[-1]))


class LinearBlock:
    """Dense layer with bias and an optional fixed activation."""

    def __init__(self, name, in_dim, out_dim, activation, rng, dtype):
        bound = 1.0 / math.sqrt(in_dim)
        self.activation = activation   # "relu" | "tanh" | "none"
        self.w = Parameter(f"{name}.w",
                           rng.uniform(-bound, bound, (out_dim, in_dim)).astype(dtype))
        self.b = Parameter(f"{name}.b",
                           rng.uniform(-bound, bound, out_dim).astype(dtype))

    def parameters(self):
        return [self.w, self.b]

    def forward(self, x: Var) -> Var:
        t = x.tape
        out = ops.add(ops.linear(x, t.param(self.w)), t.param(self.b))
        if self.activation == "relu":
            return ops.relu(out)
        if self.activation == "tanh":
            return ops.tanh(out)
        return out


class LstmLayer:
    def __init__(self, name, feat, hidden, rng, dtype):
        # few bounded input features: scale wx for O(1) gate
        # pre-activations and start the input/output gates open, so the
        # short unroll transmits temporal signal from the first step
        in_bound = math.sqrt(20.0 / feat)
        rec_bound = 1.0 / math.sqrt(hidden)
        self.hidden = hidden
        self.wx = Parameter(f"{name}.wx",
                            rng.uniform(-in_bound, in_bound,
                                        (4 * hidden, feat)).astype(dtype))
        self.wh = Parameter(f"{name}.wh",
                            rng.uniform(-rec_bound, rec_bound,
                                        (4 * hidden, hidden)).astype(dtype))
        bias = np.zeros(4 * hidden)
        bias[:hidden] = 2.0
        bias[3 * hidden:] = 2.0
        self.b = Parameter(f"{name}.b", bias.astype(dtype))

    def parameters(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x: Var) -> Var:
        t = x.tape
        return ops.lstm(x, t.param(self.wx), t.param(self.wh), t.param(self.b))


def _proj(name, in_dim, out_dim, grid, rng, dtype, use_mlp, activation):
    if use_mlp:
        return LinearBlock(name, in_dim, out_dim, activation, rng, dtype)
    return kan_init(name, in_dim, out_dim, grid, rng, dtype)


class AttentionHead:
    """Ring-content attention for one task (Q/V from ring means, K from
    normalized ring distance), fused with the temporal features."""

    def __init__(self, name, cfg: ModelConfig, grid, rng, dtype):
        self.cfg = cfg
        act = "tanh"
        m = cfg.mlp_attention
        self.content = _proj(f"{name}.content", 4, 2 * cfg.d_attn, grid, rng,
                             dtype, m, act)
        self.dist = _proj(f"{name}.dist", 1, cfg.d_attn, grid, rng, dtype,
                          m, act)
        self.out = _proj(f"{name}.out", cfg.d_attn + cfg.task_dim,
                         cfg.task_dim, grid, rng, dtype, m, act)

    def parameters(self):
        return (self.content.parameters() + self.dist.parameters()
                + self.out.parameters())

    def forward(self, ring_feats: Var, f_seq: Var) -> Var:
        cfg = self.cfg
        tape = ring_feats.tape
        bsz, rings = ring_feats.shape[0], cfg.ring_count
        d, heads = cfg.d_attn, cfg.heads
        dh = d // heads

        qv = self.content.forward(ring_feats)             # [B, rings, 2d]
        q = ops.slice_(qv, (slice(None), slice(None), slice(0, d)))
        v = ops.slice_(qv, (slice(None), slice(None), slice(d, 2 * d)))
        gdist = tape.constant(
            np.linspace(0.0, 1.0, rings, dtype=ring_feats.dtype)[:, None])
        k = self.dist.forward(gdist)                      # [rings, d]

        qh = ops.transpose(ops.reshape(q, (bsz, rings, heads, dh)),
                           (0, 2, 1, 3))
        vh = ops.transpose(ops.reshape(v, (bsz, rings, heads, dh)),
                           (0, 2, 1, 3))
        kh = ops.transpose(ops.reshape(k, (rings, heads, dh)), (1, 0, 2))
        scores = ops.scale(ops.matmul(qh, ops.transpose(kh, (0, 2, 1))),
                           1.0 / math.sqrt(dh))
        attn = ops.softmax(scores, axis=-1)               # [B, h, rings, rings]
        ctx = ops.matmul(attn, vh)                        # [B, h, rings, dh]
        merged = ops.reshape(ops.transpose(ctx, (0, 2, 1, 3)),
                             (bsz, rings, d))
        c_avg = ops.mean(merged, axis=1)                  # [B, d]
        return self.out.forward(ops.concat([c_avg, f_seq], axis=1))


# ---------------------------------------------------------------------------
# the network


class CycloneNet:
    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        cfg = cfg.resolved()
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.grid = SplineGrid(cfg.grid_size, cfg.spline_order)
        rng = np.random.default_rng(seed)
        g = self.grid
        dt = self.dtype

        # temporal path
        self.lstm = None
        self.seq_proj = None
        self.deploy_seq1 = self.deploy_seq2 = None
        self.noseq1 = self.noseq2 = None
        if cfg.no_seq:
            self.noseq1 = LinearBlock("temporal.enc1", cfg.seq_feat,
                                      cfg.lstm_hidden, "tanh", rng, dt)
            self.noseq2 = LinearBlock("temporal.enc2", cfg.lstm_hidden,
                                      cfg.task_dim, "tanh", rng, dt)
        elif cfg.variant == "deploy" or cfg.no_lstm:
            self.deploy_seq1 = kan_init("temporal.kan1", cfg.flat_seq,
                                        cfg.lstm_hidden, g, rng, dt)
            self.deploy_seq2 = kan_init("temporal.kan2", cfg.lstm_hidden,
                                        cfg.task_dim, g, rng, dt)
        else:
            self.lstm = LstmLayer("temporal.lstm", cfg.seq_feat,
                                  cfg.lstm_hidden, rng, dt)
            self.seq_proj = _proj("temporal.proj", cfg.lstm_hidden,
                                  cfg.task_dim, g, rng, dt,
                                  cfg.mlp_extract, "relu")

        # spatial trunk
        self.conv1 = Conv2dLayer("spatial.conv1", IMG_CHANNELS, CONV1_CH,
                                 5, 2, 1, rng, dt)
        self.conv2 = Conv2dLayer("spatial.conv2", CONV1_CH, CONV2_CH,
                                 3, 1, 1, rng, dt)
        self.res = Conv2dLayer("spatial.res", CONV2_CH, RES_CH, 1, 0, 1,
                               rng, dt)
        self.dilated = [
            Conv2dLayer(f"spatial.dil{d}", CONV2_CH, CONV2_CH, 3, d, d,
                        rng, dt)
            for d in (1, 2, 3)
        ]
        self.reduce = Conv2dLayer("spatial.reduce", RES_CH + CONV2_CH,
                                  cfg.reduce_channels, 1, 0, 1, rng, dt)
        self.img_proj = _proj("spatial.proj", cfg.flatten_width,
                              cfg.task_dim, g, rng, dt,
                              cfg.mlp_extract, "relu")

        # task heads, coupling, decoders
        self.head_msw = AttentionHead("attn.msw", cfg, g, rng, dt)
        self.head_rmw = AttentionHead("attn.rmw", cfg, g, rng, dt)
        self.k_msw2rmw = _proj("physics.msw2rmw", cfg.task_dim, cfg.task_dim,
                               g, rng, dt, cfg.mlp_constraint, "relu")
        self.k_rmw2msw = _proj("physics.rmw2msw", cfg.task_dim, cfg.task_dim,
                               g, rng, dt, cfg.mlp_constraint, "relu")
        self.dec_msw = _proj("decode.msw", cfg.decoder_in, 1, g, rng, dt,
                             cfg.mlp_decoder, "none")
        self.dec_rmw = _proj("decode.rmw", cfg.decoder_in, 1, g, rng, dt,
                             cfg.mlp_decoder, "none")

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        layers = [self.lstm, self.seq_proj, self.deploy_seq1,
                  self.deploy_seq2, self.noseq1, self.noseq2,
                  self.conv1, self.conv2, self.res, *self.dilated,
                  self.reduce, self.img_proj, self.head_msw, self.head_rmw,
                  self.k_msw2rmw, self.k_rmw2msw, self.dec_msw, self.dec_rmw]
        out = []
        for layer in layers:
            if layer is not None:
                out.extend(layer.parameters())
        return out

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def state(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    def load_state(self, state: dict[str, np.ndarray],
                   strict: bool = True) -> None:
        params = {p.name: p for p in self.parameters()}
        for name, arr in state.items():
            p = params.get(name)
            if p is None:
                if strict:
                    raise ConfigError(f"unexpected parameter {name!r}")
                continue
            if p.data.shape != arr.shape:
                raise ConfigError(
                    f"parameter {name!r} shape {arr.shape} != {p.data.shape}")
            p.data = arr.astype(self.dtype)
        if strict:
            missing = set(params) - set(state)
            if missing:
                raise ConfigError(f"missing parameters: {sorted(missing)}")

    # -- forward pieces ------------------------------------------------------

    def temporal_features(self, tape: Tape, x_seq: np.ndarray) -> Var:
        cfg = self.cfg
        xs = tape.constant(np.asarray(x_seq, dtype=self.dtype))
        if cfg.no_seq:
            last = ops.slice_(xs, (slice(None), cfg.seq_len - 1))
            return self.noseq2.forward(self.noseq1.forward(last))
        if self.deploy_seq1 is not None:
            flat = ops.reshape(xs, (-1, cfg.flat_seq))
            return self.deploy_seq2.forward(self.deploy_seq1.forward(flat))
        return self.seq_proj.forward(self.lstm.forward(xs))

    def spatial_features(self, tape: Tape, x_img: np.ndarray) -> Var:
        """Only conv1 and conv2 see full-resolution maps: conv1 with its
        ReLU, conv2 with its ReLU and the 2x2 max-pool, fused into the
        conv (``ops.conv2d``).  res, the dilated convs and reduce run on
        quadrant means, since the pool after them is linear
        (``spatial_tail``)."""
        xi = tape.constant(np.asarray(x_img, dtype=self.dtype))
        c1 = self.conv1.forward(xi, relu=True)
        c2 = self.conv2.forward(c1, relu=True, pool=True)
        flat = ops.reshape(self.spatial_tail(c2),
                           (c2.shape[0], self.cfg.flatten_width))
        return self.img_proj.forward(flat)

    def spatial_tail(self, c2: Var) -> Var:
        """[B, reduce_channels, 2, 2] quadrant means of reduce(concat(res,
        dil1 + dil2 + dil3)) on the max-pooled trunk map c2.

        The pool is linear, so it moves in front of the convs: each
        layer's [2k, 2k] block of c2's tap grids (``quadrant_tap_grid``)
        convolved with its kxk kernel at stride k gives its 2x2 map
        directly, since its size-preserving conv keeps c2's bins.
        reduce runs on the 2x2 concat.
        """
        t = c2.tape
        layers = [self.res, *self.dilated]
        r, blocks = quadrant_tap_grid(c2.shape[-1], layers, c2.dtype)
        taps = ops.matmul(ops.matmul(t.constant(r.T), c2), t.constant(r))
        res, dsum, *rest = [
            ops.conv2d(ops.slice_(taps, (slice(None), slice(None),
                                         slice(lo, hi), slice(lo, hi))),
                       t.param(layer.w), t.param(layer.b),
                       stride=layer.w.data.shape[-1])
            for layer, (lo, hi) in zip(layers, blocks)]
        for d in rest:
            dsum = ops.add(dsum, d)
        return self.reduce.forward(ops.concat([res, dsum], axis=1))

    def ring_features(self, tape: Tape, x_img) -> Var:
        """[B, rings, 4] ring means of the attention infrared channel:
        (X M^T) gives each ring's column-bin means of every row, then M
        averages their row bins (``_ring_mean_matrix``)."""
        cfg = self.cfg
        n, rings = cfg.image_hw, cfg.ring_count
        xi = tape.constant(np.asarray(x_img, dtype=self.dtype))
        ch7 = ops.slice_(
            xi, (slice(None), slice(ATTN_CHANNEL, ATTN_CHANNEL + 1)))
        m = _ring_mean_matrix(cfg, self.dtype)
        cols = ops.matmul(ch7, tape.constant(m.reshape(-1, n).T))
        cols = ops.transpose(ops.reshape(cols, (-1, n, rings, 2)),
                             (0, 2, 1, 3))
        return ops.reshape(ops.matmul(tape.constant(m), cols),
                           (-1, rings, 4))

    def physics_constraint(self, a_msw: Var, a_rmw: Var) -> tuple[Var, Var]:
        """Returns (gamma_rmw2msw, gamma_msw2rmw)."""
        gamma_m2r = ops.add(a_rmw, self.k_msw2rmw.forward(a_msw))
        gamma_r2m = ops.add(a_msw, self.k_rmw2msw.forward(a_rmw))
        return gamma_r2m, gamma_m2r

    def fuse_decode(self, a_msw: Var, a_rmw: Var, gamma_r2m: Var,
                    gamma_m2r: Var, f_shared: Var) -> tuple[Var, Var]:
        y_msw = self.dec_msw.forward(
            ops.concat([a_msw, gamma_r2m, f_shared], axis=1))
        y_rmw = self.dec_rmw.forward(
            ops.concat([a_rmw, gamma_m2r, f_shared], axis=1))
        return y_msw, y_rmw

    # -- end-to-end ----------------------------------------------------------

    def forward(self, tape: Tape, x_seq, x_img) -> tuple[Var, Var]:
        """The one forward body of both variants."""
        cfg = self.cfg
        if x_img.shape[1:] != (IMG_CHANNELS, cfg.image_hw, cfg.image_hw):
            raise ShapeError(f"image shape {x_img.shape} does not match config")
        if x_seq.shape[1:] != (cfg.seq_len, cfg.seq_feat):
            raise ShapeError(f"sequence shape {x_seq.shape} does not match config")
        f_seq = self.temporal_features(tape, x_seq)
        f_img = self.spatial_features(tape, x_img)
        f_shared = ops.concat([f_seq, f_img], axis=1)
        rings = self.ring_features(tape, x_img)
        a_msw = self.head_msw.forward(rings, f_seq)
        a_rmw = self.head_rmw.forward(rings, f_seq)
        gamma_r2m, gamma_m2r = self.physics_constraint(a_msw, a_rmw)
        return self.fuse_decode(a_msw, a_rmw, gamma_r2m, gamma_m2r, f_shared)

    def forward_deploy(self, tape: Tape, x_seq_flat, x_img) -> tuple[Var, Var]:
        """``forward`` of a deploy-variant model on the flat [B, seq_len *
        seq_feat] sequence that the static graph takes."""
        cfg = self.cfg
        if cfg.variant != "deploy":
            raise ConfigError("forward_deploy requires a deploy-variant model")
        x_seq_flat = np.asarray(x_seq_flat)
        if x_seq_flat.ndim != 2 or x_seq_flat.shape[1] != cfg.flat_seq:
            raise ShapeError(
                f"flattened sequence must be [B, {cfg.flat_seq}], "
                f"got {x_seq_flat.shape}")
        x_seq = x_seq_flat.reshape(-1, cfg.seq_len, cfg.seq_feat)
        return self.forward(tape, x_seq, x_img)


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> CycloneNet:
    return CycloneNet(cfg, seed=seed, dtype=dtype)
