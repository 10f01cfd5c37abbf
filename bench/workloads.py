"""The benchmark's workloads, driven through stormkan's public API.

A run of one workload:

1. builds its inputs from the seed (the program sees only these);
2. sets the program up ``SETUP_REPS`` times and reports the median as
   ``setup_s``;
3. runs the set-up check where one applies (train_b16's gradient check);
4. warms up, and on untraced runs measures memory with tracemalloc in
   that same untimed pass;
5. runs a closed loop, one caller and no think time, for the requested
   seconds (a traced run alternates untraced and traced blocks, and the
   difference is the tracing overhead);
6. checks every output of the timed loop, outside the timed section.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from layers import MIB, PER_LAYER, instrument, layer_metrics
from spans import Patches, Tracer
from stats import supported_percentile

clock = time.perf_counter

SETUP_REPS = 7
# a traced run alternates untraced and traced blocks, so host drift
# during the run reaches both sides of trace.overhead_share alike
TRACE_BLOCKS = 4
PARITY_TOL = 1e-5   # the test suite's full-vs-deploy parity tolerance
GRAD_TOL = 1e-4     # the test suite's end-to-end gradient-check gate
LR = 0.01

# every workload reports each of these on an untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_mib", "MiB", "lower"),
)

# serve_b1 request pool: 13 storms x 8 steps x 4 rotations = 416 inputs,
# 324 MB of float32 images, larger than the 300 MiB L3 of the 2-core
# Xeon the benchmark was sized on, so every request reads a cold input
SERVE_STORMS, SERVE_STEPS = 13, 8
SERVE_WINDOW = 16   # requests per samples_per_s window, about one second
# train_b16: 4 storms train (32 samples, 2 steps per epoch), 1 validates
TRAIN_STORMS, VAL_STORMS, TRAIN_STEPS = 4, 1, 8
# eval_b64: one 64-sample batch per evaluate call
EVAL_STORMS, EVAL_STEPS = 8, 8
EVAL_CHECK_ROWS = 3


def serve_pool(sk, seed, storms=SERVE_STORMS, steps=SERVE_STEPS):
    """Session inputs for every rotation of every (storm, step) sample,
    in a seeded order."""
    pool = []
    for sid in range(storms):
        for t in range(steps):
            base = sk.generate_sample(sid, t, seed)
            for s in [base, *sk.augment_rotations(base)]:
                pool.append({"x_seq_flat": s.x_seq.reshape(1, -1),
                             "x_img": s.x_img[None]})
    order = np.random.default_rng(seed).permutation(len(pool))
    return [pool[i] for i in order]


def dataset_samples(sk, seed, storms, steps):
    ds = sk.SyntheticDataset(range(storms), steps, seed)
    return [ds[i] for i in range(len(ds))]


@dataclass
class Phase:
    """One timed section: per-operation durations and what to check."""
    durations: list = field(default_factory=list)   # seconds per operation
    outputs: list = field(default_factory=list)     # checked after timing
    windows: list = field(default_factory=list)     # (samples, seconds)
    samples: int = 0
    wall: float = 0.0

    def samples_per_s(self) -> float:
        """Median over windows of samples completed / window wall time;
        the whole section when it was too short for one window."""
        windows = self.windows or [(self.samples, self.wall)]
        return median([n / s for n, s in windows])


@dataclass
class Outcome:
    rows: list              # (name, value, unit, note) for the reader
    metrics: dict           # name -> value for the result line
    attempted: int
    failed: int
    errors: list
    tracer: Tracer | None = None


class Workload:
    name = ""

    def __init__(self, sk, seed, workdir):
        self.sk = sk
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []

    # -- steps each workload defines ---------------------------------------

    def set_up(self) -> dict[str, float]:
        """Builds the program state; returns seconds per phase and "total"."""
        raise NotImplementedError

    def release(self) -> None:
        """Drops the previous set-up's state so each set-up starts alike."""

    def check_set_up(self) -> bool | None:
        """A set-up invariant counted as one operation; None when absent."""
        return None

    def warm_up(self, measure: bool) -> dict[str, float]:
        raise NotImplementedError

    def timed(self, seconds: float, patches: Patches) -> Phase:
        raise NotImplementedError

    def verify(self, phase: Phase) -> tuple[int, int]:
        """(attempted, failed) operations of a finished phase."""
        raise NotImplementedError

    def rows(self, setup, phase, memory) -> list:
        raise NotImplementedError

    def setup_layers(self, setup) -> dict[str, float]:
        raise NotImplementedError

    # -- the run -------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> Outcome:
        reps = []
        for _ in range(SETUP_REPS):
            self.release()
            gc.collect()
            reps.append(self.set_up())
        setup = {k: median([r[k] for r in reps]) for k in reps[0]}
        attempted = failed = 0
        ok = self.check_set_up()
        if ok is not None:
            attempted += 1
            failed += not ok
        memory = self.warm_up(measure=not trace)

        tracer = None
        gc.collect()
        if trace:
            tracer = Tracer()
            base, traced = [], []
            for block in range(TRACE_BLOCKS):
                with Patches() as patches:
                    if block % 2:
                        instrument(tracer, patches)
                    phase = self.timed(seconds / TRACE_BLOCKS, patches)
                (traced if block % 2 else base).append(phase)
                gc.collect()
            phases = base + traced
        else:
            with Patches() as patches:
                phases = [self.timed(seconds, patches)]
        for phase in phases:
            a, f = self.verify(phase)
            attempted += a
            failed += f

        if trace:
            metrics = dict.fromkeys((n for n, _, _ in PER_LAYER), 0.0)
            traced_ops = [d for p in traced for d in p.durations]
            base_ops = [d for p in base for d in p.durations]
            metrics.update(layer_metrics(tracer, len(traced_ops)))
            metrics.update(self.setup_layers(setup))
            metrics["trace.overhead_share"] = (
                median(traced_ops) / median(base_ops) - 1.0)
            rows = [(k, v, "", "") for k, v in metrics.items()]
        else:
            phase = phases[0]
            metrics = {
                "setup_s": setup["total"],
                "latency_p50_ms": median(phase.durations) * 1e3,
                "samples_per_s": phase.samples_per_s(),
                "peak_mib": memory["peak_mib"],
            }
            rows = self.rows(setup, phase, memory)
        rows.append(("failed_share", failed / max(attempted, 1), "ratio",
                     f"{failed} of {attempted} operations"))
        return Outcome(rows, metrics, attempted, failed, self.errors, tracer)


def _throughput_row(phase, windows):
    return ("samples_per_s", phase.samples_per_s(), "1/s",
            f"median of {len(phase.windows)} {windows}; whole section "
            f"{phase.samples} samples in {phase.wall:.2f} s")


# ---------------------------------------------------------------------------
# serve_b1


class Serve(Workload):
    """Back-to-back Session.run at batch 1 on the full-size deploy graph."""

    name = "serve_b1"

    def __init__(self, sk, seed, workdir):
        super().__init__(sk, seed, workdir)
        self.model = sk.build_model(sk.ModelConfig(variant="deploy"),
                                    seed=seed)
        self.pool = serve_pool(sk, seed)
        self.next_request = 0
        self.refs: dict[int, tuple[float, float]] = {}
        self.ref_ms: list[float] = []

    def release(self):
        self.graph = self.blob = self.session = None

    def set_up(self):
        sg = self.sk.staticgraph
        t0 = clock()
        graph = sg.export(self.model)
        t1 = clock()
        blob = sg.save_graph(graph)
        t2 = clock()
        loaded = sg.load_graph(blob)
        t3 = clock()
        session = sg.Session(loaded)
        t4 = clock()
        self.graph, self.blob, self.session = loaded, blob, session
        return {"total": t4 - t0, "export": t1 - t0, "save": t2 - t1,
                "load": t3 - t2, "session_init": t4 - t3}

    def warm_up(self, measure):
        for inp in self.pool[:3]:
            self.session.run(inp)
        if not measure:
            return {}
        sg = self.sk.staticgraph
        tracemalloc.start()
        try:
            session = sg.Session(sg.load_graph(self.blob))
            held = tracemalloc.get_traced_memory()[0]
            session.run(self.pool[0])
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            session.run(self.pool[1])
            transient = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        del session
        counted = sg.bench(self.graph, n_warmup=1, n_runs=3,
                           inputs=self.pool[0])["steady_state_allocs"]
        return {"peak_mib": peak / MIB, "session_mib": held / MIB,
                "alloc_mib_per_request": transient / MIB,
                "steady_state_allocs": counted}

    def timed(self, seconds, patches):
        phase = Phase()
        ends = []
        run = self.session.run
        start = clock()
        deadline = start + seconds
        while True:
            idx = self.next_request % len(self.pool)
            self.next_request += 1
            t0 = clock()
            try:
                out = run(self.pool[idx])
                result = (idx, float(out["y_msw"][0, 0]),
                          float(out["y_rmw"][0, 0]))
            except Exception as exc:  # a failed request is counted, not fatal
                self.errors.append(f"request {idx}: {exc!r}")
                result = (idx, None, None)
            t1 = clock()
            ends.append(t1)
            phase.durations.append(t1 - t0)
            phase.outputs.append(result)
            if t1 >= deadline:
                break
        phase.wall = clock() - start
        phase.samples = len(phase.durations)
        marks = [start, *ends[SERVE_WINDOW - 1::SERVE_WINDOW]]
        phase.windows = [(SERVE_WINDOW, b - a) for a, b in zip(marks, marks[1:])]
        return phase

    def reference(self, idx):
        """Tape forward_deploy of the same model and input."""
        if idx not in self.refs:
            inp = self.pool[idx]
            t0 = clock()
            ym, yr = self.model.forward_deploy(self.sk.Tape(),
                                               inp["x_seq_flat"], inp["x_img"])
            self.ref_ms.append((clock() - t0) * 1e3)
            self.refs[idx] = (float(ym.data[0, 0]), float(yr.data[0, 0]))
        return self.refs[idx]

    def verify(self, phase):
        failed = 0
        for idx, msw, rmw in phase.outputs:
            ref = self.reference(idx)
            if msw is None:
                failed += 1
            elif not (abs(msw - ref[0]) <= PARITY_TOL
                      and abs(rmw - ref[1]) <= PARITY_TOL):
                failed += 1
                self.errors.append(
                    f"request {idx}: session ({msw}, {rmw}) vs tape {ref}")
        return len(phase.outputs), failed

    def rows(self, setup, phase, memory):
        n = len(phase.durations)
        tail = supported_percentile(phase.durations, 95)
        if tail is None:
            p95 = ("latency_p95_ms", float("nan"), "ms",
                   f"not reported: fewer than 10 of {n} requests beyond it")
        else:
            p95 = ("latency_p95_ms", tail[0] * 1e3, "ms",
                   f"{tail[1]} of {n} requests beyond it")
        return [
            ("setup_s", setup["total"], "s",
             f"median of {SETUP_REPS}: export + save_graph + load_graph "
             f"+ Session()"),
            ("latency_p50_ms", median(phase.durations) * 1e3, "ms",
             f"median of {n} requests"),
            p95,
            _throughput_row(phase, "16-request windows"),
            ("alloc_mib_per_request", memory["alloc_mib_per_request"], "MiB",
             "tracemalloc peak inside one warm Session.run"),
            ("steady_state_allocs", memory["steady_state_allocs"], "count",
             "self-counted by staticgraph.bench, next to the figure above"),
            ("session_mib", memory["session_mib"], "MiB",
             "traced memory of load_graph + Session()"),
            ("peak_mib", memory["peak_mib"], "MiB",
             "tracemalloc peak of load_graph + Session() + first run"),
        ]

    def setup_layers(self, setup):
        return {
            "staticgraph.export_ms": setup["export"] * 1e3,
            "staticgraph.save_ms": setup["save"] * 1e3,
            "staticgraph.load_ms": setup["load"] * 1e3,
            "staticgraph.session_init_ms": setup["session_init"] * 1e3,
            "staticgraph.nodes": len(self.graph.nodes),
            "staticgraph.constant_values": self.graph.parameter_count(),
            "staticgraph.graph_bytes": len(self.blob),
            "staticgraph.tape_reference_ms": median(self.ref_ms),
        }


# ---------------------------------------------------------------------------
# train_b16 and eval_b64: dataset written and read back at set-up


class DatasetWorkload(Workload):
    storms = steps = 0

    def release(self):
        self.model = self.loaded = None

    def set_up(self):
        sk = self.sk
        path = tempfile.mkdtemp(prefix="data-", dir=self.workdir)
        try:
            t0 = clock()
            samples = dataset_samples(sk, self.seed, self.storms, self.steps)
            t1 = clock()
            sk.save_dataset(path, samples)
            t2 = clock()
            loaded = sk.load_dataset(path)
            t3 = clock()
            nbytes = sum(e.stat().st_size for e in os.scandir(path))
        finally:
            shutil.rmtree(path, ignore_errors=True)
        t4 = clock()
        self.model = sk.build_model(sk.ModelConfig(), seed=self.seed)
        t5 = clock()
        self.loaded = loaded
        self.dataset_mib = nbytes / MIB
        return {"total": (t3 - t0) + (t5 - t4), "generate": t1 - t0,
                "save": t2 - t1, "load": t3 - t2}

    def one_operation(self, model) -> None:
        raise NotImplementedError

    def warm_up(self, measure):
        """One operation on a fresh model; with measure, under tracemalloc."""
        if measure:
            tracemalloc.start()
        try:
            self.one_operation(self.sk.build_model(self.sk.ModelConfig(),
                                                   seed=self.seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if measure:
                tracemalloc.stop()
        return {"peak_mib": peak / MIB} if measure else {}

    def setup_layers(self, setup):
        return {
            "data.generate_ms_per_sample":
                setup["generate"] * 1e3 / len(self.loaded),
            "data.save_mib_per_s": self.dataset_mib / setup["save"],
            "data.load_mib_per_s": self.dataset_mib / setup["load"],
        }

    def _setup_row(self, setup):
        return ("setup_s", setup["total"], "s",
                f"median of {SETUP_REPS}: generate + save_dataset + "
                f"load_dataset ({len(self.loaded)} samples, "
                f"{self.dataset_mib:.1f} MiB) + build_model")


class Train(DatasetWorkload):
    """training.train on the full LSTM variant at 156^2, batch 16."""

    name = "train_b16"
    batch = 16
    storms, steps = TRAIN_STORMS + VAL_STORMS, TRAIN_STEPS

    def release(self):
        super().release()
        self.train_set = self.val_set = None

    def set_up(self):
        out = super().set_up()
        self.train_set = [s for s in self.loaded if s.storm_id < TRAIN_STORMS]
        self.val_set = [s for s in self.loaded if s.storm_id >= TRAIN_STORMS]
        return out

    def config(self):
        return self.sk.TrainConfig(lr=LR, batch=self.batch, max_epochs=1,
                                   seed=self.seed)

    def check_set_up(self):
        """One directional central difference of the multitask loss,
        full size, float64."""
        sk = self.sk
        model = sk.build_model(sk.ModelConfig(), seed=self.seed,
                               dtype=np.float64)
        xs, xi, tm, tr = sk.training.collate(self.train_set, [0],
                                             dtype=np.float64)

        def loss():
            tape = sk.Tape()
            ym, yr = model.forward(tape, xs, xi)
            return tape, sk.multitask_loss(ym, yr, tape.constant(tm),
                                           tape.constant(tr))

        tape, value = loss()
        grads = tape.backprop(value)
        params = model.parameters()
        rng = np.random.default_rng([self.seed, 0x6A])
        dirs = [rng.standard_normal(p.data.shape) for p in params]
        norm = math.sqrt(sum(float((d ** 2).sum()) for d in dirs))
        analytic = sum(float((grads.wrt_param(p) * d).sum())
                       for p, d in zip(params, dirs)) / norm
        h = 1e-5
        values = []
        for sign in (1.0, -1.0):
            for p, d in zip(params, dirs):
                p.data += sign * h / norm * d
            values.append(float(loss()[1].data))
            for p, d in zip(params, dirs):
                p.data -= sign * h / norm * d
        numeric = (values[0] - values[1]) / (2 * h)
        rel = abs(analytic - numeric) / max(1.0, abs(numeric))
        if not rel < GRAD_TOL:
            self.errors.append(f"gradient check: rel err {rel:.3e}")
        return rel < GRAD_TOL

    def one_operation(self, model):
        self.sk.training.train(model, self.train_set[:self.batch],
                               self.val_set[:1], self.config())

    def timed(self, seconds, patches):
        training = self.sk.training
        stamps, losses = [], []
        sgd_step, multitask_loss = training.sgd_step, training.multitask_loss

        def stamped_sgd_step(*args, **kwargs):
            out = sgd_step(*args, **kwargs)
            stamps.append(clock())
            return out

        def kept_loss(*args, **kwargs):
            out = multitask_loss(*args, **kwargs)
            losses.append(float(out.data))
            return out

        patches.set(training, "sgd_step", stamped_sgd_step)
        patches.set(training, "multitask_loss", kept_loss)
        cfg = self.config()
        steps = -(-len(self.train_set) // self.batch)
        phase = Phase()
        start = clock()
        deadline = start + seconds
        while True:
            first_stamp, first_loss = len(stamps), len(losses)
            t_call = clock()
            try:
                training.train(self.model, self.train_set, self.val_set, cfg)
                error = None
            except Exception as exc:  # the epoch's steps count as failed
                error = repr(exc)
            t_end = clock()
            marks = [t_call] + stamps[first_stamp:]
            phase.durations += [b - a for a, b in zip(marks, marks[1:])]
            phase.outputs.append((steps, losses[first_loss:], error))
            phase.windows.append(((len(marks) - 1) * self.batch, t_end - t_call))
            if t_end >= deadline:
                break
        phase.wall = clock() - start
        phase.samples = len(phase.durations) * self.batch
        return phase

    def verify(self, phase):
        attempted = failed = 0
        for steps, losses, error in phase.outputs:
            attempted += steps
            bad = sum(not math.isfinite(v) for v in losses)
            if error is not None:
                self.errors.append(error)
                bad = steps
            failed += max(bad, steps - len(losses))
        return attempted, failed

    def rows(self, setup, phase, memory):
        return [
            self._setup_row(setup),
            ("step_p50_ms", median(phase.durations) * 1e3, "ms",
             f"median of {len(phase.durations)} steps, spacing of "
             f"sgd_step calls"),
            _throughput_row(phase, "train() epochs, validation included"),
            ("peak_mib", memory["peak_mib"], "MiB",
             "tracemalloc peak of build_model + one train step"),
        ]


class Eval(DatasetWorkload):
    """training.evaluate on the full variant at batch 64, forward only."""

    name = "eval_b64"
    batch = 64
    storms, steps = EVAL_STORMS, EVAL_STEPS

    def set_up(self):
        out = super().set_up()
        rng = np.random.default_rng([self.seed, 0xE5])
        self.check_rows = sorted(rng.choice(len(self.loaded),
                                            EVAL_CHECK_ROWS, replace=False))
        self.refs = None
        return out

    def one_operation(self, model):
        self.sk.training.evaluate(model, self.loaded, batch=self.batch)

    def timed(self, seconds, patches):
        sk = self.sk
        cyclone = sk.model.CycloneNet
        forward = vars(cyclone)["forward"]
        stamps, preds = [], []

        def stamped_forward(model, tape, x_seq, x_img):
            stamps.append(clock())
            ym, yr = forward(model, tape, x_seq, x_img)
            preds.append((ym.data[:, 0].copy(), yr.data[:, 0].copy()))
            return ym, yr

        patches.set(cyclone, "forward", stamped_forward)
        phase = Phase()
        start = clock()
        deadline = start + seconds
        while True:
            first = len(preds)
            t_call = clock()
            try:
                loss, _ = sk.training.evaluate(self.model, self.loaded,
                                               batch=self.batch)
                error = None
            except Exception as exc:  # the call's batches count as failed
                loss, error = float("nan"), repr(exc)
            t_end = clock()
            phase.outputs.append((preds[first:], loss, error))
            phase.windows.append((sum(len(m) for m, _ in preds[first:]),
                                  t_end - t_call))
            if t_end >= deadline:
                break
        end = clock()
        marks = stamps + [end]
        phase.durations = [b - a for a, b in zip(marks, marks[1:])]
        phase.wall = end - start
        phase.samples = sum(len(m) for m, _ in preds)
        return phase

    def references(self):
        """Batch-1 forward of each checked row."""
        if self.refs is None:
            sk = self.sk
            self.refs = {}
            for i in self.check_rows:
                xs, xi, _, _ = sk.training.collate(self.loaded, [i],
                                                   dtype=self.model.dtype)
                ym, yr = self.model.forward(sk.Tape(), xs, xi)
                self.refs[i] = (float(ym.data[0, 0]), float(yr.data[0, 0]))
        return self.refs

    def verify(self, phase):
        refs = self.references()
        batches = -(-len(self.loaded) // self.batch)
        attempted = failed = 0
        for preds, loss, error in phase.outputs:
            attempted += batches
            if error is not None or not math.isfinite(loss):
                self.errors.append(error or f"evaluate loss {loss}")
                failed += batches
                continue
            for b, (pm, pr) in enumerate(preds):
                bad = not (np.isfinite(pm).all() and np.isfinite(pr).all())
                for i, (rm, rr) in refs.items():
                    j = i - b * self.batch
                    if 0 <= j < len(pm) and not (
                            abs(pm[j] - rm) <= PARITY_TOL
                            and abs(pr[j] - rr) <= PARITY_TOL):
                        self.errors.append(
                            f"row {i}: batch ({pm[j]}, {pr[j]}) vs "
                            f"batch-1 ({rm}, {rr})")
                        bad = True
                failed += bad
        return attempted, failed

    def rows(self, setup, phase, memory):
        return [
            self._setup_row(setup),
            ("step_p50_ms", median(phase.durations) * 1e3, "ms",
             f"median of {len(phase.durations)} batches, spacing of "
             f"forward calls"),
            _throughput_row(phase, "evaluate() passes"),
            ("peak_mib", memory["peak_mib"], "MiB",
             "tracemalloc peak of build_model + one evaluate batch"),
        ]


WORKLOADS = {w.name: w for w in (Serve, Train, Eval)}
