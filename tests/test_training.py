"""Losses, optimizer, schedulers, metrics, checkpoints, train loop."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormkan.data import SyntheticDataset
from stormkan.errors import (CheckpointError, ConfigError, ShapeError,
                             StormkanError, TrainingError)
from stormkan.model import COMPRESSED, ModelConfig, build_model
from stormkan.tape import Tape
from stormkan import ops, training
from stormkan.training import (MSW_RANGE, RMW_RANGE, PlateauTracker,
                               TrainConfig, compute_metrics, denormalize,
                               evaluate, load_checkpoint, mae, mae_loss,
                               model_from_checkpoint, multitask_loss,
                               predict, rmse, save_checkpoint, sgd_step,
                               train)

from helpers import container_sections, reference_checkpoint, total

rng = np.random.default_rng(11)

TINY = ModelConfig(image_hw=40, r_center=20, ring_count=9)


class TestMae:
    def test_perfect(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_example(self):
        assert mae([1.0, 3.0], [0.0, 0.0]) == 2.0

    def test_against_loop_oracle(self):
        pred = rng.standard_normal(1000)
        target = rng.standard_normal(1000)
        loop = sum(abs(p - t) for p, t in zip(pred, target)) / 1000
        assert abs(mae(pred, target) - loop) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            mae([], [])

    def test_rmse_ge_mae(self):
        for _ in range(20):
            p = rng.standard_normal(50)
            t = rng.standard_normal(50)
            assert rmse(p, t) >= mae(p, t) - 1e-12


class TestMultitaskLoss:
    def _vars(self, ym, yr, tm, tr):
        tape = Tape()
        return tape, (tape.constant(ym), tape.constant(yr),
                      tape.constant(tm), tape.constant(tr))

    def test_alpha_only(self):
        tape, (ym, yr, tm, tr) = self._vars(
            np.array([[0.4]]), np.array([[0.9]]),
            np.array([[0.5]]), np.array([[0.1]]))
        loss = multitask_loss(ym, yr, tm, tr, alpha=1.0, beta=0.0)
        assert abs(float(loss.data) - 0.1) < 1e-7

    def test_both_maes_sum(self):
        tape, (ym, yr, tm, tr) = self._vars(
            np.array([[0.6]]), np.array([[0.3]]),
            np.array([[0.5]]), np.array([[0.2]]))
        loss = multitask_loss(ym, yr, tm, tr)
        assert abs(float(loss.data) - 0.2) < 1e-7

    def test_negative_weights_rejected(self):
        tape, args = self._vars(*(np.zeros((1, 1)),) * 4)
        with pytest.raises(ConfigError):
            multitask_loss(*args, alpha=-1.0)

    def test_mae_loss_gradient(self):
        x = rng.standard_normal((4, 1))
        t = rng.standard_normal((4, 1))
        tape = Tape()
        xv = tape.leaf(x, requires_grad=True)
        grads = tape.backprop(mae_loss(xv, tape.constant(t)))
        np.testing.assert_allclose(grads.wrt(xv), np.sign(x - t) / 4,
                                   atol=1e-12)


class TestSgd:
    def test_zero_grads_unchanged(self):
        from stormkan.tensor import Parameter
        p = Parameter("p", np.array([1.0, 2.0]))

        class ZeroGrads:
            def wrt_param(self, param):
                return np.zeros_like(param.data)

        sgd_step([p], ZeroGrads(), 0.5)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_hand_step(self):
        from stormkan.tensor import Parameter
        p = Parameter("p", np.array([1.0]))

        class G:
            def wrt_param(self, param):
                return np.array([2.0])

        sgd_step([p], G(), 0.1)
        np.testing.assert_allclose(p.data, [0.8])

    def test_descends_convex_quadratic(self):
        from stormkan import ops
        from stormkan.tensor import Parameter
        p = Parameter("p", rng.standard_normal(5))

        def loss_val():
            tape = Tape()
            pv = tape.param(p)
            return tape, tape.backprop(total(ops.mul(pv, pv)))

        before = float((p.data ** 2).sum())
        _, grads = loss_val()
        sgd_step([p], grads, 0.01)
        after = float((p.data ** 2).sum())
        assert after < before


def plateau_replay(history):
    """(lr multiplier, 1-based epochs whose update reduced the lr)."""
    plateau = PlateauTracker(1.0)
    reductions = []
    for epoch, loss in enumerate(history, start=1):
        before = plateau.lr
        plateau.update(loss)
        if plateau.lr != before:
            reductions.append(epoch)
    return plateau.lr, reductions


def stop_epoch(history):
    """1-based epoch at which the tracker first says stop, or None."""
    plateau = PlateauTracker(TrainConfig().lr)
    for epoch, loss in enumerate(history, start=1):
        plateau.update(loss)
        if plateau.stop:
            return epoch
    return None


class TestSchedulers:
    def test_strictly_decreasing_no_reduction(self):
        mult, reductions = plateau_replay([1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
        assert mult == 1.0 and reductions == []

    def test_flat_six_one_reduction_after_epoch_five(self):
        mult, reductions = plateau_replay([1.0] * 6)
        assert reductions == [6]
        assert mult == 0.5

    def test_two_plateaus_two_reductions(self):
        history = [1.0] * 6 + [0.5] + [0.5] * 5
        mult, reductions = plateau_replay(history)
        assert len(reductions) == 2
        assert mult == 0.25

    def test_early_stop_improving_never_stops(self):
        assert stop_epoch([1.0 - 0.01 * i for i in range(200)]) is None

    def test_early_stop_flat_11(self):
        assert stop_epoch([0.7] * 11) == 11


class TestDenormalize:
    def test_floor_and_ceiling(self):
        assert denormalize(0.0, "msw") == 19.0
        assert denormalize(1.0, "rmw") == 200.0

    def test_midpoint(self):
        assert abs(denormalize(0.5, "msw") - 94.5) < 1e-12

    def test_roundtrip_identity(self):
        for task, (lo, hi) in (("msw", MSW_RANGE), ("rmw", RMW_RANGE)):
            vals = rng.uniform(lo, hi, 100)
            back = denormalize((vals - lo) / (hi - lo), task)
            assert np.abs(back - vals).max() < 1e-6

    def test_linear_extrapolation(self):
        assert denormalize(-0.1, "msw") < 19.0
        assert denormalize(1.1, "rmw") > 200.0


class TestMetrics:
    def test_rmse_ge_mae_in_records(self):
        m = compute_metrics(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30),
                            rng.uniform(0, 1, 30), rng.uniform(0, 1, 30))
        assert m.rmse_msw_kt >= m.mae_msw_kt
        assert m.rmse_rmw_nmi >= m.mae_rmw_nmi


@pytest.fixture(scope="module")
def tiny_sets():
    train_ds = list(SyntheticDataset(range(4), 4, seed=5, image_hw=40))
    val_ds = list(SyntheticDataset(range(100, 102), 4, seed=5, image_hw=40))
    return train_ds, val_ds


class TestTrainLoop:
    def test_loss_mostly_non_increasing_small_lr(self, tiny_sets):
        from stormkan.training import collate
        train_ds, _ = tiny_sets
        model = build_model(TINY, seed=2)
        xs, xi, tm, tr = collate(train_ds, range(4))
        losses = []
        for _ in range(50):
            tape = Tape()
            ym, yr = model.forward(tape, xs, xi)
            loss = multitask_loss(ym, yr, tape.constant(tm),
                                  tape.constant(tr))
            losses.append(float(loss.data))
            grads = tape.backprop(loss)
            sgd_step(model.parameters(), grads, 1e-4)
        increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
        assert increases <= 0.05 * len(losses) + 1

    def test_seeded_rerun_bit_identical(self, tiny_sets):
        # every log column but the last two, which time the epoch, and
        # every parameter
        train_ds, val_ds = tiny_sets
        cfg = TrainConfig(lr=0.01, batch=8, max_epochs=2, seed=3)
        logs, states = [], []
        for _ in range(2):
            model = build_model(TINY, seed=4)
            res = train(model, train_ds, val_ds, cfg)
            logs.append([line.rsplit(",", 2)[0] for line in res.log_lines])
            states.append(model.state())
        assert logs[0] == logs[1]
        assert states[0].keys() == states[1].keys()
        for name, value in states[0].items():
            assert value.tobytes() == states[1][name].tobytes(), name

    def test_log_columns(self, tiny_sets):
        # epoch, train_loss, val_loss, lr, the four validation metrics,
        # then the epoch's wall time and its training samples per second
        train_ds, val_ds = tiny_sets
        cfg = TrainConfig(lr=0.01, batch=8, max_epochs=2, seed=3)
        res = train(build_model(TINY, seed=4), train_ds, val_ds, cfg)
        assert len(res.log_lines) == 2
        for epoch, line in enumerate(res.log_lines, start=1):
            cols = line.split(",")
            assert len(cols) == 10
            assert cols[0] == str(epoch)
            train_loss, val_loss, lr, *metrics, wall, rate = map(float,
                                                                 cols[1:])
            assert val_loss == res.val_history[epoch - 1]
            assert lr == 0.01 and train_loss > 0
            assert metrics[0] <= metrics[1] and metrics[2] <= metrics[3]
            assert wall > 0
            assert rate == pytest.approx(len(train_ds) / wall, rel=1e-12)
        m = res.final_metrics
        assert list(map(float, cols[4:8])) == [
            m.mae_msw_kt, m.rmse_msw_kt, m.mae_rmw_nmi, m.rmse_rmw_nmi]

    def test_collate_stacks_without_a_second_copy(self, tiny_sets):
        # the float32 samples are stacked once, not copied again to
        # float32; the batch is unchanged in either dtype
        import tracemalloc
        from stormkan.training import collate
        train_ds, _ = tiny_sets
        idxs = [3, 0, 2]
        for dtype in (np.float32, np.float64):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                xs, xi, tm, tr = collate(train_ds, idxs, dtype=dtype)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            if dtype == np.float32:
                assert peak < 1.25 * (xs.nbytes + xi.nbytes)
            for got, field in ((xs, "x_seq"), (xi, "x_img")):
                want = np.stack([getattr(train_ds[i], field) for i in idxs])
                assert got.dtype == dtype and got.flags.c_contiguous
                np.testing.assert_array_equal(got, want.astype(dtype))
            assert tm.dtype == tr.dtype == dtype
            np.testing.assert_array_equal(tm[:, 0], np.array(
                [train_ds[i].y_msw_norm for i in idxs], dtype))
            np.testing.assert_array_equal(tr[:, 0], np.array(
                [train_ds[i].y_rmw_norm for i in idxs], dtype))

    def test_collate_and_evaluate_read_each_sample_once(self, tiny_sets):
        # a lazy dataset builds a sample on every read, so each read costs
        # a sample's generation
        train_ds, _ = tiny_sets

        class Counting:
            reads = 0

            def __len__(self):
                return 4

            def __getitem__(self, i):
                Counting.reads += 1
                return train_ds[i]

        from stormkan.training import collate
        collate(Counting(), [3, 0, 2])
        assert Counting.reads == 3
        Counting.reads = 0
        evaluate(build_model(TINY, seed=2), Counting())
        # predict's collate reads each sample once, then evaluate reads
        # each once more for its targets
        assert Counting.reads == 8

    def test_early_stop_fires_on_constant_loss(self, tiny_sets):
        train_ds, val_ds = tiny_sets
        # lr=0 would be rejected; an effectively-zero lr freezes the model
        cfg = TrainConfig(lr=1e-30, batch=8, max_epochs=50, seed=1)
        model = build_model(TINY, seed=5)
        res = train(model, train_ds, val_ds, cfg)
        assert res.stopped_early
        assert res.epochs_run == 11

    def test_best_epoch_restored(self, tiny_sets):
        # a large lr makes validation worse after the first epoch.  The
        # best epoch is the last to beat every earlier one by the
        # threshold, and the restored model evaluates to its loss at
        # train's validation batch
        train_ds, val_ds = tiny_sets
        cfg = TrainConfig(lr=0.05, batch=8, max_epochs=3, seed=3)
        model = build_model(TINY, seed=3)
        res = train(model, train_ds, val_ds, cfg)
        best, best_epoch = np.inf, 0
        for epoch, loss in enumerate(res.val_history, 1):
            if loss < best - training.IMPROVEMENT_THRESHOLD:
                best, best_epoch = loss, epoch
        assert (res.best_epoch, res.best_val_loss) == (best_epoch, best)
        assert best_epoch < res.epochs_run
        assert evaluate(model, val_ds, cfg.alpha, cfg.beta,
                        batch=min(cfg.batch, training.MICRO_BATCH))[0] == best

    def test_empty_dataset_rejected(self, tiny_sets):
        with pytest.raises(TrainingError):
            train(build_model(TINY, seed=0), [], [], TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostic(self, tiny_sets):
        train_ds, val_ds = tiny_sets
        model = build_model(TINY, seed=6)
        for p in model.parameters():
            p.data[:] = np.float32(1e30)
        with pytest.raises(TrainingError, match="epoch 1"):
            train(model, train_ds, val_ds,
                  TrainConfig(lr=1e6, batch=8, max_epochs=2, seed=0))

    @pytest.mark.parametrize("key,value,names", [
        ((0, 0, 1, 1), np.nan, "op 'leaf': parameter spatial.conv2.w"),
        (..., np.finfo(np.float32).max, "op 'conv2d'"),
    ], ids=["nan", "overflow"])
    def test_nonfinite_loss_names_first_bad_output(self, tiny_sets, key,
                                                   value, names):
        # a poisoned weight: one NaN is named as the parameter it is in;
        # the largest float32 in every tap overflows conv2's output,
        # named as its op
        train_ds, val_ds = tiny_sets
        model = build_model(TINY, seed=6)
        conv2 = {p.name: p for p in model.parameters()}["spatial.conv2.w"]
        conv2.data[key] = value
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as err:
            train(model, train_ds, val_ds,
                  TrainConfig(lr=0.01, batch=8, max_epochs=1, seed=0))
        assert "epoch 1, batch 0" in str(err.value)
        assert str(err.value).endswith(names)


class TestMicroBatch:
    def test_uneven_passes_match_whole_passes(self, tiny_sets, monkeypatch):
        # batches of 8 in passes of MICRO_BATCH, or of 3, 3 and 2, take
        # the same step as in one pass of 8: parameters and both losses
        # agree to rounding
        train_ds, val_ds = tiny_sets
        cfg = TrainConfig(lr=0.01, batch=8, max_epochs=1, seed=3)
        runs = []
        for micro in (8, training.MICRO_BATCH, 3):
            monkeypatch.setattr(training, "MICRO_BATCH", micro)
            model = build_model(TINY, seed=4, dtype=np.float64)
            res = train(model, train_ds, val_ds, cfg)
            runs.append((model.state(), res.log_lines[0].split(",")))
        (whole, whole_log), *splits = runs
        for split, split_log in splits:
            for name, value in whole.items():
                np.testing.assert_allclose(split[name], value, rtol=1e-12,
                                           atol=1e-12, err_msg=name)
            for col in (1, 2):   # train_loss, val_loss
                assert float(split_log[col]) == pytest.approx(
                    float(whole_log[col]), rel=1e-12, abs=1e-12)

    def test_peak_memory_is_one_pass_whatever_the_batch(self):
        # at 40^2 the activations of a batch dominate the model's own
        # arrays: a batch of 4 passes per worker peaks at the memory of
        # one pass per worker
        import tracemalloc
        ds = SyntheticDataset(range(8), 4, seed=5, image_hw=40)
        micro = training.WORKERS * training.MICRO_BATCH
        samples = [ds[i] for i in range(4 * micro)]
        peaks = []
        for batch in (micro, 4 * micro):
            model = build_model(TINY, seed=1)
            cfg = TrainConfig(lr=0.01, batch=batch, max_epochs=1, seed=0)
            tracemalloc.start()
            try:
                train(model, samples, samples[:1], cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


def _run(train_ds, val_ds, cfg):
    """One run of `train` from a fixed model seed: the log columns but
    the two that time the epoch, and the parameters."""
    model = build_model(TINY, seed=4)
    res = train(model, train_ds, val_ds, cfg)
    return [line.rsplit(",", 2)[0] for line in res.log_lines], model.state()


def _assert_same_bits(a, b):
    assert a[0] == b[0]
    assert a[1].keys() == b[1].keys()
    for name, value in a[1].items():
        assert value.tobytes() == b[1][name].tobytes(), name


class TestWorkers:
    @pytest.fixture
    def blas(self):
        """The BLAS thread-count setter and getter train pins with."""
        if ops._openblas_threads() is None:
            pytest.skip("this numpy build exports no OpenBLAS thread setter")
        return ops._openblas_threads()

    @pytest.mark.parametrize("workers", [training.WORKERS, 4])
    def test_threaded_matches_sequential(self, tiny_sets, blas, workers,
                                         monkeypatch):
        # at one BLAS thread, the workers on their threads, switching
        # often, and the same workers in turn, without the setter, give
        # the same bits; 4 workers outnumber the cores
        import sys
        train_ds, val_ds = tiny_sets
        cfg = TrainConfig(lr=0.01, batch=8, max_epochs=2, seed=3)
        monkeypatch.setattr(training, "WORKERS", workers)
        setter, getter = blas
        before, interval = getter(), sys.getswitchinterval()
        setter(1)
        sys.setswitchinterval(1e-5)
        try:
            threaded = _run(train_ds, val_ds, cfg)
            monkeypatch.setattr(ops, "_openblas_threads", lambda: None)
            sequential = _run(train_ds, val_ds, cfg)
        finally:
            setter(before)
            sys.setswitchinterval(interval)
        _assert_same_bits(threaded, sequential)

    def test_sequential_repeats_at_default_blas(self, tiny_sets,
                                                monkeypatch):
        monkeypatch.setattr(ops, "_openblas_threads", lambda: None)
        train_ds, val_ds = tiny_sets
        cfg = TrainConfig(lr=0.01, batch=8, max_epochs=2, seed=3)
        _assert_same_bits(_run(train_ds, val_ds, cfg),
                          _run(train_ds, val_ds, cfg))

    def test_lowest_failing_pass_raises_and_threads_end(self, tiny_sets,
                                                        blas, monkeypatch):
        # pass 1, worker 1's first, raises ShapeError and pass 2, worker
        # 0's second, another error: train raises pass 1's, unchanged,
        # and a second call starts no thread, nor does either leave a
        # changed BLAS thread count behind
        import threading
        from stormkan.errors import DataError
        train_ds, val_ds = tiny_sets
        cfg = TrainConfig(lr=0.01, batch=8, max_epochs=1, seed=0)
        micro = training.MICRO_BATCH
        order = np.random.default_rng(cfg.seed).permutation(len(train_ds))
        failing = {tuple(order[micro:2 * micro]): ShapeError("pass 1"),
                   tuple(order[2 * micro:3 * micro]): DataError("pass 2")}
        pass_loss = training._pass_loss

        def patched(model, cfg, tape, dataset, idxs):
            if tuple(idxs) in failing:
                raise failing[tuple(idxs)]
            return pass_loss(model, cfg, tape, dataset, idxs)

        monkeypatch.setattr(training, "_pass_loss", patched)
        setter, getter = blas
        before = getter()
        setter(2)   # not the count train pins
        try:
            blas_threads, threads = getter(), []
            for _ in range(2):
                with pytest.raises(ShapeError) as err:
                    train(build_model(TINY, seed=4), train_ds, val_ds, cfg)
                threads.append(threading.active_count())
                assert getter() == blas_threads
            assert threads[1] == threads[0]
        finally:
            setter(before)
        assert err.value is failing[tuple(order[micro:2 * micro])]

    def test_workers_run_in_the_callers_errstate(self, tiny_sets):
        # conv2's overflow under the caller's errstate(all="ignore")
        # warns on no thread, worker 1's included: it ends as the
        # TrainingError naming it
        import warnings
        train_ds, val_ds = tiny_sets
        model = build_model(TINY, seed=6)
        conv2 = {p.name: p for p in model.parameters()}["spatial.conv2.w"]
        conv2.data[...] = np.finfo(np.float32).max
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(all="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(TrainingError, match="op 'conv2d'"):
                train(model, train_ds, val_ds,
                      TrainConfig(lr=0.01, batch=8, max_epochs=1, seed=0))
        assert [str(w.message) for w in caught] == []


class TestPredict:
    def test_empty_dataset_rejected(self):
        model = build_model(TINY, seed=0)
        for call in (predict, evaluate):
            with pytest.raises(ShapeError, match="empty"):
                call(model, [])

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected(self, tiny_sets, batch):
        train_ds, _ = tiny_sets
        model = build_model(TINY, seed=0)
        for call in (predict, evaluate):
            with pytest.raises(ConfigError, match="batch"):
                call(model, train_ds, batch=batch)

    def test_forward_only_tape_matches_grad_tape(self, tiny_sets):
        # predict runs forward-only tapes: the same bits as a forward on
        # a tape that keeps backward rules, with no rule kept
        from stormkan.training import collate
        train_ds, _ = tiny_sets
        n = len(train_ds)
        model = build_model(TINY, seed=8)
        xs, xi, _, _ = collate(train_ds, range(n), dtype=model.dtype)
        grad_tape = Tape()
        ym, yr = model.forward(grad_tape, xs, xi)
        pm, pr = predict(model, train_ds, batch=n)
        assert pm.tobytes() == ym.data[:, 0].tobytes()
        assert pr.tobytes() == yr.data[:, 0].tobytes()
        tape = Tape(grad=False)
        model.forward(tape, xs, xi)
        assert len(tape.nodes) == len(grad_tape.nodes)
        assert any(node.backward for node in grad_tape.nodes)
        assert not any(node.backward or node.requires_grad
                       for node in tape.nodes)


class TestCheckpoints:
    def test_roundtrip_bit_identical_forward(self, tiny_sets):
        train_ds, _ = tiny_sets
        model = build_model(TINY, seed=7)
        payload = save_checkpoint(model, extra={"note": 1})
        model2, config = model_from_checkpoint(payload)
        assert config["run"] == {"note": 1}
        s = train_ds[0]
        t1, t2 = Tape(), Tape()
        y1 = model.forward(t1, s.x_seq[None], s.x_img[None])
        y2 = model2.forward(t2, s.x_seq[None], s.x_img[None])
        assert np.array_equal(y1[0].data, y2[0].data)
        assert np.array_equal(y1[1].data, y2[1].data)

    def test_save_is_deterministic(self):
        model = build_model(TINY, seed=8)
        assert save_checkpoint(model) == save_checkpoint(model)

    @pytest.mark.parametrize("cfg", [
        TINY, ModelConfig(image_hw=40, r_center=20, ring_count=9,
                          variant="deploy"),
        ModelConfig(image_hw=40, r_center=20, ring_count=9, **COMPRESSED),
    ], ids=["full", "deploy", "compressed"])
    def test_bytes_equal_the_version_1_layout(self, cfg):
        # the shared container writer keeps .kfc bytes as they were
        model = build_model(cfg, seed=13)
        assert save_checkpoint(model) == reference_checkpoint(model)
        assert (save_checkpoint(model, extra={"note": 1})
                == reference_checkpoint(model, extra={"note": 1}))

    def test_other_version_rejected(self):
        payload = save_checkpoint(build_model(TINY, seed=9))
        bad = payload[:4] + struct.pack("<I", 2) + payload[8:]
        with pytest.raises(CheckpointError, match="version 2"):
            load_checkpoint(bad)

    def test_deeply_nested_config_rejected(self):
        # json.loads raises RecursionError on this, not a JSON error
        payload = save_checkpoint(build_model(TINY, seed=9))
        (n,) = struct.unpack_from("<I", payload, 8)
        deep = b"[" * 100_000
        bad = (payload[:8] + struct.pack("<I", len(deep)) + deep
               + payload[12 + n:])
        with pytest.raises(CheckpointError, match="JSON header"):
            model_from_checkpoint(bad)

    def test_corrupt_magic(self):
        with pytest.raises(CheckpointError):
            load_checkpoint(b"XXXX" + b"\x00" * 32)

    def test_truncation(self):
        payload = save_checkpoint(build_model(TINY, seed=9))
        with pytest.raises(CheckpointError):
            load_checkpoint(payload[: len(payload) // 2])

    @pytest.mark.parametrize("part", ["name", "config"])
    def test_invalid_utf8_rejected(self, part):
        payload = save_checkpoint(build_model(TINY, seed=9))
        _, state = load_checkpoint(payload)
        target = sorted(state)[0].encode() if part == "name" else b'"model"'
        assert payload.count(target) == 1
        corrupt = payload.replace(target, b"\xff" + target[1:])
        with pytest.raises(CheckpointError):
            load_checkpoint(corrupt)

    @pytest.mark.parametrize("edit", [
        lambda c: c["model"].update(ring_count=0),
        lambda c: c.update(dtype="not-a-dtype"),
        lambda c: c.pop("model"),
        lambda c: c.update(dtype="int32"),
        lambda c: c["model"].update(d_attn=32.0),
        lambda c: c["model"].update(task_dim=0),
        lambda c: c["model"].update(lstm_hidden=10**6),
        lambda c: c["model"].update(ring_count=10**12),
        lambda c: c["model"].update(compressed=False),
    ], ids=["ring_count_0", "bad_dtype", "no_model", "int_dtype",
            "float_width", "zero_width", "oversized_width",
            "huge_ring_count", "removed_key"])
    def test_invalid_stored_config_rejected(self, edit):
        payload = save_checkpoint(build_model(TINY, seed=9))
        (blob_len,) = struct.unpack("<I", payload[8:12])
        config = json.loads(payload[12:12 + blob_len])
        edit(config)
        blob = json.dumps(config).encode()
        edited = (payload[:8] + struct.pack("<I", len(blob)) + blob
                  + payload[12 + blob_len:])
        with pytest.raises(CheckpointError):
            model_from_checkpoint(edited)

    def test_mismatched_state_rejected(self):
        model = build_model(TINY, seed=10)
        payload = save_checkpoint(model)
        config, state = load_checkpoint(payload)
        state.pop(sorted(state)[0])
        from stormkan.model import build_model as bm
        model2 = bm(ModelConfig(**config["model"]))
        with pytest.raises(ConfigError):
            model2.load_state(state)


# every width small, so that each of the fuzz examples builds quickly
FUZZ_CFG = ModelConfig(d_attn=8, heads=2, lstm_hidden=8, task_dim=4,
                       reduce_channels=4, ring_count=3, r_center=8,
                       image_hw=16, grid_size=3, spline_order=2)


@pytest.fixture(scope="module")
def fuzz_checkpoint():
    return save_checkpoint(build_model(FUZZ_CFG, seed=12))


class TestFuzzCheckpoint:
    """Byte mutations of a tiny checkpoint: model_from_checkpoint raises
    only StormkanError subclasses."""

    def test_trailing_bytes_rejected(self, fuzz_checkpoint):
        model_from_checkpoint(fuzz_checkpoint)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(fuzz_checkpoint + b"\x00")

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_mutations_fail_typed(self, fuzz_checkpoint, data):
        blob = bytearray(fuzz_checkpoint)
        start, end = data.draw(st.sampled_from(
            container_sections(fuzz_checkpoint)))
        pos = data.draw(st.integers(start, end - 1))
        kind = data.draw(st.sampled_from(
            ["overwrite", "insert", "delete", "truncate", "append"]))
        chunk = data.draw(st.binary(min_size=1, max_size=8))
        if kind == "overwrite":
            blob[pos:pos + len(chunk)] = chunk
        elif kind == "insert":
            blob[pos:pos] = chunk
        elif kind == "delete":
            del blob[pos:pos + len(chunk)]
        elif kind == "truncate":
            del blob[pos:]
        else:
            blob += chunk
        try:
            model_from_checkpoint(bytes(blob))
        except StormkanError:
            pass


class TestTrainConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)

    def test_zero_weights(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0.0, beta=0.0)
