"""Network assembly: extent chain, attention geometry, variants."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from stormkan import ops
from stormkan.errors import ConfigError
from stormkan.model import (ATTN_CHANNEL, VARIANTS, CycloneNet, ModelConfig,
                            build_model, quadrant_tap_matrix)
from stormkan.tape import Tape
from stormkan.training import multitask_loss

from helpers import adaptive_avgpool2d, max_rel_err, total

rng = np.random.default_rng(3)

TINY = ModelConfig(image_hw=40, r_center=20, ring_count=9)


def tiny_inputs(batch=2, hw=40, seed=0):
    r = np.random.default_rng(seed)
    return (r.uniform(0, 1, (batch, 3, 5)),
            r.uniform(0, 1, (batch, 8, hw, hw)))


@pytest.fixture(scope="module")
def tiny_model():
    return build_model(TINY, seed=1, dtype=np.float64)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.d_attn % cfg.heads == 0
        assert cfg.flatten_width == 256
        assert cfg.decoder_in == 128

    def test_conflicting_flags(self):
        with pytest.raises(ConfigError):
            ModelConfig(no_seq=True, no_lstm=True)

    def test_ring_geometry_validated(self):
        with pytest.raises(ConfigError):
            ModelConfig(r_center=10, ring_count=9)
        with pytest.raises(ConfigError):
            ModelConfig(r_center=155, ring_count=1)    # ring 0 hi = 157
        with pytest.raises(ConfigError):
            ModelConfig(ring_count=0)

    def test_compressed_preset(self):
        cfg = ModelConfig(compressed=True).resolved()
        assert (cfg.task_dim, cfg.d_attn, cfg.lstm_hidden) == (16, 16, 32)
        assert cfg.flatten_width == 128
        assert cfg.decoder_in == 64


class TestRingGeometry:
    def test_bounds(self):
        cfg = ModelConfig()
        bounds = ops.ring_crops(cfg.r_center, cfg.ring_count)
        assert len(bounds) == 39
        assert bounds[0] == (76, 79)               # 3x3 center crop
        for i in range(1, 39):
            lo, hi = bounds[i]
            assert (lo, hi) == (77 - 2 * i, 77 + 2 * i)
            assert hi - lo == 4 * i                # side 4i
            plo, phi = bounds[i - 1]
            if i == 1:
                # side 4 around the pixel corner at 77 cannot strictly
                # contain the 3x3 crop around pixel 77: the high edges meet
                assert lo < plo and hi == phi
            else:
                assert lo < plo and hi > phi       # strictly nested
        assert bounds[38] == (1, 153)              # 152x152 outermost
        assert bounds[38][1] <= 156

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("cfg", [ModelConfig(), TINY],
                             ids=["full_size", "tiny"])
    def test_ring_features_match_crop_means(self, cfg, variant):
        # ring 0 is 3x3 at every size: its two bins share the middle row
        # and column
        cfg = replace(cfg, variant=variant)
        m = build_model(cfg, seed=0, dtype=np.float64)
        xi = rng.standard_normal((2, 8, cfg.image_hw, cfg.image_hw))
        got = m.ring_features(Tape(), xi)
        ref = naive_ring_means(xi[:, ATTN_CHANNEL],
                               ops.ring_crops(cfg.r_center, cfg.ring_count))
        assert got.shape == ref.shape == (2, cfg.ring_count, 4)
        np.testing.assert_allclose(got.data, ref, rtol=1e-12, atol=1e-12)


def naive_ring_means(x, bounds):
    """[B, rings, 4] 2x2 means of each square crop [lo, hi) of x [B, H, W]
    over floor/ceil bins, by a loop over crops (reference)."""
    out = np.empty((x.shape[0], len(bounds), 4))
    for i, (lo, hi) in enumerate(bounds):
        side = hi - lo
        bins = [(lo, lo + (side + 1) // 2), (lo + side // 2, hi)]
        for p, (r0, r1) in enumerate(bins):
            for q, (c0, c1) in enumerate(bins):
                out[:, i, 2 * p + q] = x[:, r0:r1, c0:c1].mean(axis=(1, 2))
    return out


TAP_OFFSETS = [(0,), (-1, 0, 1), (-2, 0, 2), (-3, 0, 3)]


def conv_path_tail(m, c2):
    """The spatial tail as convs at c2's resolution, then the adaptive
    2x2 pool: the reference that ``spatial_tail`` must equal."""
    tape = c2.tape

    def conv(layer, x):
        return ops.conv2d(x, tape.param(layer.w), tape.param(layer.b),
                          padding=layer.padding, dilation=layer.dilation)
    dsum = conv(m.dilated[0], c2)
    for layer in m.dilated[1:]:
        dsum = ops.add(dsum, conv(layer, c2))
    multi = ops.concat([conv(m.res, c2), dsum], axis=1)
    return adaptive_avgpool2d(conv(m.reduce, multi), 2, 2)


class TestSpatialTail:
    @pytest.mark.parametrize("offsets", TAP_OFFSETS, ids=str)
    def test_tap_matrix_odd_extent(self, offsets):
        # at 127 the two quadrant bins overlap on row 63
        n, k, pad = 127, len(offsets), max(offsets)
        x = rng.standard_normal((2, 3, n, n))
        r = quadrant_tap_matrix(n, offsets, np.float64)
        assert r.shape == (n, 2 * k)
        taps = r.T @ x @ r
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for i, oi in enumerate(offsets):
            for j, oj in enumerate(offsets):
                shifted = xp[:, :, pad + oi:pad + oi + n,
                             pad + oj:pad + oj + n]
                ref = adaptive_avgpool2d(Tape().constant(shifted), 2, 2)
                np.testing.assert_allclose(taps[:, :, i::k, j::k], ref.data,
                                           rtol=1e-12, atol=1e-14)

    def test_matches_conv_path_full_size(self):
        m = build_model(ModelConfig(), seed=5, dtype=np.float64)
        c2 = np.random.default_rng(6).uniform(0, 1, (2, 32, 78, 78))
        weights = rng.standard_normal((2, 64, 2, 2))
        layers = [m.res, *m.dilated, m.reduce]
        got = []
        for tail in (m.spatial_tail, partial(conv_path_tail, m)):
            tape = Tape()
            x = tape.leaf(c2, requires_grad=True)
            pooled = tail(x)
            grads = tape.backprop(total(ops.mul(pooled,
                                                   tape.constant(weights))))
            got.append([pooled.data, grads.wrt(x)]
                       + [grads.wrt_param(p) for layer in layers
                          for p in layer.parameters()])
        assert got[0][0].shape == (2, 64, 2, 2)
        for new, ref in zip(*got):
            scale = np.abs(ref).max()
            assert scale > 0
            assert np.abs(new - ref).max() <= 1e-10 * scale


class TestShapeWalk:
    def test_extent_chain(self, tiny_model):
        m = tiny_model
        xs, xi = tiny_inputs()
        tape = Tape()
        f_seq = m.temporal_features(tape, xs)
        assert f_seq.shape == (2, 32)
        f_img = m.spatial_features(tape, xi)
        assert f_img.shape == (2, 32)
        f_shared = ops.concat([f_seq, f_img], axis=1)
        assert f_shared.shape == (2, 64)
        rings = m.ring_features(tape, xi)
        assert rings.shape == (2, 9, 4)
        a_msw = m.head_msw.forward(rings, f_seq)
        a_rmw = m.head_rmw.forward(rings, f_seq)
        assert a_msw.shape == a_rmw.shape == (2, 32)
        gamma_r2m, gamma_m2r = m.physics_constraint(a_msw, a_rmw)
        assert gamma_r2m.shape == gamma_m2r.shape == (2, 32)
        assert m.dec_msw.in_dim == 128
        ym, yr = m.forward(tape, xs, xi)
        assert ym.shape == yr.shape == (2, 1)

    def test_spatial_flatten_width(self, tiny_model):
        assert tiny_model.img_proj.in_dim == 256

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_batch_forward(self, variant):
        # no tape value folds the batch into another axis, so an empty
        # batch runs: numpy infers no -1 extent of a zero-size array
        m = build_model(replace(TINY, variant=variant), seed=0)
        ym, yr = m.forward(Tape(grad=False), np.zeros((0, 3, 5)),
                           np.zeros((0, 8, 40, 40)))
        assert ym.shape == yr.shape == (0, 1)

    def test_zero_weights_zero_features(self):
        m = build_model(TINY, seed=0, dtype=np.float64)
        for p in m.parameters():
            p.data[:] = 0
        tape = Tape()
        out = ops.concat([m.temporal_features(tape, np.zeros((1, 3, 5))),
                          m.spatial_features(tape, np.zeros((1, 8, 40, 40)))],
                         axis=1)
        np.testing.assert_array_equal(out.data, np.zeros((1, 64)))


class TestAttention:
    def test_uniform_image_rings_identical(self, tiny_model):
        tape = Tape()
        xi = np.full((1, 8, 40, 40), 0.37)
        rings = tiny_model.ring_features(tape, xi)
        np.testing.assert_allclose(rings.data, 0.37, atol=1e-6)
        # identical ring content: the context rows agree regardless of
        # the softmax weights
        f_seq = tape.constant(np.zeros((1, 32)))
        out1 = tiny_model.head_msw.forward(rings, f_seq)
        assert out1.shape == (1, 32)

    def test_batch_permutation_equivariance(self, tiny_model):
        xs, xi = tiny_inputs(batch=4, seed=5)
        perm = np.array([2, 0, 3, 1])
        tape = Tape()
        ym, yr = tiny_model.forward(tape, xs, xi)
        tape2 = Tape()
        ym_p, yr_p = tiny_model.forward(tape2, xs[perm], xi[perm])
        np.testing.assert_allclose(ym.data[perm], ym_p.data, atol=1e-10)
        np.testing.assert_allclose(yr.data[perm], yr_p.data, atol=1e-10)


class TestPhysicsConstraint:
    def test_identity_with_zero_coupling(self, tiny_model):
        m = build_model(TINY, seed=2)
        for p in (m.k_msw2rmw.parameters() + m.k_rmw2msw.parameters()):
            p.data[:] = 0
        tape = Tape()
        a_msw = tape.constant(rng.standard_normal((3, 32)).astype(np.float32))
        a_rmw = tape.constant(rng.standard_normal((3, 32)).astype(np.float32))
        gamma_r2m, gamma_m2r = m.physics_constraint(a_msw, a_rmw)
        assert np.array_equal(gamma_r2m.data, a_msw.data)
        assert np.array_equal(gamma_m2r.data, a_rmw.data)

    def test_gradient_flows_to_both_inputs(self, tiny_model):
        tape = Tape()
        a_msw = tape.leaf(rng.standard_normal((2, 32)), requires_grad=True)
        a_rmw = tape.leaf(rng.standard_normal((2, 32)), requires_grad=True)
        gamma_r2m, _ = tiny_model.physics_constraint(a_msw, a_rmw)
        grads = tape.backprop(total(gamma_r2m))
        assert np.abs(grads.wrt(a_msw)).sum() > 0
        assert np.abs(grads.wrt(a_rmw)).sum() > 0


class TestDecoders:
    def test_zero_weights_zero_predictions(self):
        m = build_model(TINY, seed=3, dtype=np.float64)
        for layer in (m.dec_msw, m.dec_rmw):
            for p in layer.parameters():
                p.data[:] = 0
        xs, xi = tiny_inputs()
        tape = Tape()
        ym, yr = m.forward(tape, xs, xi)
        np.testing.assert_array_equal(ym.data, np.zeros((2, 1)))
        np.testing.assert_array_equal(yr.data, np.zeros((2, 1)))

    def test_decoder_independence(self):
        m = build_model(TINY, seed=4)
        xs, xi = tiny_inputs()
        tape = Tape()
        ym_before, _ = m.forward(tape, xs, xi)
        for p in m.dec_rmw.parameters():
            p.data += 1.0
        tape2 = Tape()
        ym_after, yr_after = m.forward(tape2, xs, xi)
        np.testing.assert_array_equal(ym_before.data, ym_after.data)


class TestEndToEndGradient:
    def test_directional_finite_difference(self):
        m = build_model(TINY, seed=5, dtype=np.float64)
        xs, xi = tiny_inputs(seed=9)
        tm = rng.uniform(0, 1, (2, 1))
        tr = rng.uniform(0, 1, (2, 1))

        def loss_value():
            tape = Tape()
            ym, yr = m.forward(tape, xs, xi)
            from stormkan.training import multitask_loss
            loss = multitask_loss(ym, yr, tape.constant(tm),
                                  tape.constant(tr))
            return tape, loss

        tape, loss = loss_value()
        grads = tape.backprop(loss)
        params = m.parameters()
        dirs_rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(3):
            vs = [dirs_rng.standard_normal(p.data.shape) for p in params]
            norm = np.sqrt(sum((v ** 2).sum() for v in vs))
            vs = [v / norm for v in vs]
            analytic = sum((grads.wrt_param(p) * v).sum()
                           for p, v in zip(params, vs))
            for p, v in zip(params, vs):
                p.data += h * v
            fplus = float(loss_value()[1].data)
            for p, v in zip(params, vs):
                p.data -= 2 * h * v
            fminus = float(loss_value()[1].data)
            for p, v in zip(params, vs):
                p.data += h * v
            numeric = (fplus - fminus) / (2 * h)
            assert max_rel_err(np.array(analytic), np.array(numeric)) < 1e-4

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_per_tensor_finite_difference(self, variant):
        # one direction per parameter tensor, so a wrong gradient of one
        # tensor cannot hide in a direction spread over all of them; the
        # bound is relative to each tensor's own directional derivative
        m = build_model(replace(TINY, variant=variant), seed=5,
                        dtype=np.float64)
        xs, xi = tiny_inputs(seed=9)
        r = np.random.default_rng(11)
        tm, tr = r.uniform(0, 1, (2, 1)), r.uniform(0, 1, (2, 1))

        def loss_value():
            tape = Tape()
            ym, yr = m.forward(tape, xs, xi)
            return tape, multitask_loss(ym, yr, tape.constant(tm),
                                        tape.constant(tr))

        tape, loss = loss_value()
        grads = tape.backprop(loss)
        dirs_rng = np.random.default_rng(23)
        h = 1e-5
        for p in m.parameters():
            v = dirs_rng.standard_normal(p.data.shape)
            v /= np.linalg.norm(v)
            analytic = float((grads.wrt_param(p) * v).sum())
            orig = p.data.copy()
            p.data = orig + h * v
            fplus = float(loss_value()[1].data)
            p.data = orig - h * v
            fminus = float(loss_value()[1].data)
            p.data = orig
            numeric = (fplus - fminus) / (2 * h)
            assert abs(analytic - numeric) <= 1e-4 * abs(numeric), \
                (p.name, analytic, numeric)


class TestDeployVariant:
    def test_forward_requires_deploy(self, tiny_model):
        with pytest.raises(ConfigError):
            tiny_model.forward_deploy(Tape(), np.zeros((1, 15)),
                                      np.zeros((1, 8, 40, 40)))

    def test_differs_only_via_temporal_path(self):
        cfg_dep = ModelConfig(image_hw=40, r_center=20, ring_count=9,
                              variant="deploy")
        full = build_model(TINY, seed=6)
        dep = build_model(cfg_dep, seed=7)
        shared = {n: t for n, t in full.state().items()
                  if not n.startswith("temporal.")}
        dep.load_state(shared, strict=False)
        # zero both temporal paths: remaining computation must agree
        for m in (full, dep):
            for p in m.parameters():
                if p.name.startswith("temporal."):
                    p.data[:] = 0
        xs, xi = tiny_inputs(seed=11)
        t1, t2 = Tape(), Tape()
        y_full = full.forward(t1, xs, xi)
        y_dep = dep.forward_deploy(t2, xs.reshape(2, 15), xi)
        np.testing.assert_allclose(y_full[0].data, y_dep[0].data, atol=1e-5)
        np.testing.assert_allclose(y_full[1].data, y_dep[1].data, atol=1e-5)

    def test_deterministic(self):
        cfg = ModelConfig(image_hw=40, r_center=20, ring_count=9,
                          variant="deploy")
        m = build_model(cfg, seed=8)
        xs, xi = tiny_inputs(seed=13)
        outs = []
        for _ in range(2):
            tape = Tape()
            ym, yr = m.forward_deploy(tape, xs.reshape(2, 15), xi)
            outs.append((ym.data.copy(), yr.data.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])


ABLATIONS = ["mlp_extract", "mlp_attention", "mlp_constraint", "mlp_decoder",
             "all_mlp"]


class TestAblations:
    @pytest.mark.parametrize("name", ABLATIONS)
    def test_constructs_and_trains_one_step(self, name):
        flags = ({f: True for f in ("mlp_extract", "mlp_attention",
                                    "mlp_constraint", "mlp_decoder")}
                 if name == "all_mlp" else {name: True})
        cfg = ModelConfig(image_hw=40, r_center=20, ring_count=9, **flags)
        m = build_model(cfg, seed=9)
        xs, xi = tiny_inputs(seed=21)
        from stormkan.training import multitask_loss, sgd_step
        tape = Tape()
        ym, yr = m.forward(tape, xs, xi)
        loss = multitask_loss(ym, yr, tape.constant(np.full((2, 1), 0.5)),
                              tape.constant(np.full((2, 1), 0.5)))
        grads = tape.backprop(loss)
        sgd_step(m.parameters(), grads, 0.01)
        assert np.isfinite(float(loss.data))

    def test_mlp_constraint_zero_weights_identity(self):
        cfg = ModelConfig(image_hw=40, r_center=20, ring_count=9,
                          mlp_constraint=True)
        m = build_model(cfg, seed=10)
        for p in (m.k_msw2rmw.parameters() + m.k_rmw2msw.parameters()):
            p.data[:] = 0
        tape = Tape()
        a_msw = tape.constant(rng.standard_normal((2, 32)).astype(np.float32))
        a_rmw = tape.constant(rng.standard_normal((2, 32)).astype(np.float32))
        gamma_r2m, gamma_m2r = m.physics_constraint(a_msw, a_rmw)
        assert np.array_equal(gamma_r2m.data, a_msw.data)
        assert np.array_equal(gamma_m2r.data, a_rmw.data)

    def test_no_seq_uses_last_step_only(self):
        cfg = ModelConfig(image_hw=40, r_center=20, ring_count=9, no_seq=True)
        m = build_model(cfg, seed=11)
        xs, xi = tiny_inputs(seed=23)
        xs2 = xs.copy()
        xs2[:, :2, :] = 0.123  # earlier steps must not matter
        t1, t2 = Tape(), Tape()
        y1 = m.forward(t1, xs, xi)
        y2 = m.forward(t2, xs2, xi)
        np.testing.assert_array_equal(y1[0].data, y2[0].data)

    def test_no_lstm_uses_deploy_temporal_path(self):
        cfg = ModelConfig(image_hw=40, r_center=20, ring_count=9,
                          no_lstm=True)
        m = build_model(cfg, seed=12)
        assert m.lstm is None and m.deploy_seq1 is not None


class TestParameterBudget:
    def test_full_config_under_budget(self):
        m = build_model(ModelConfig(), seed=0)
        assert m.param_count() <= 1_500_000

    def test_compressed_strictly_smaller(self):
        full = build_model(ModelConfig(), seed=0)
        small = build_model(ModelConfig(compressed=True), seed=0)
        assert small.param_count() < full.param_count()

    def test_state_roundtrip_bitexact(self):
        m = build_model(TINY, seed=13)
        state = {k: v.copy() for k, v in m.state().items()}
        m2 = build_model(TINY, seed=99)
        m2.load_state(state)
        xs, xi = tiny_inputs(seed=31)
        t1, t2 = Tape(), Tape()
        y1 = m.forward(t1, xs, xi)
        y2 = m2.forward(t2, xs, xi)
        assert np.array_equal(y1[0].data, y2[0].data)
        assert np.array_equal(y1[1].data, y2[1].data)
