import math
import weakref

import numpy as np
import pytest

from csilink import chanmodel as cm
from csilink import codec


DESK_DIMS = (128, 4, 16)


def tiny_model(seed=0, kappa=0.5, dims=(2, 1, 2)):
    return codec.ae_init(kappa, dims, seed)


def two_branch_sigmoid(x):
    """The overflow-free logistic function in its textbook two-branch form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def decoder_output(model, z):
    """Realified decompress output of each latent row of ``z``, which travel
    as float32 as on the wire. A fresh model's normalization stats (0, 1)
    leave the decoder's output unscaled."""
    rows = []
    for values in np.atleast_2d(z):
        latent = codec.LatentCsi(values, model.kappa_index, model.dims)
        rows.append(codec.realify(codec.vectorize_csi(codec.decompress(model, latent))))
    return np.array(rows)


def full_batch_output(model, x):
    """Reference reconstruction of input rows ``x``: the codec's two forward
    halves, then the sigmoid output layer as one full-batch product, which
    the codec's training runs in row blocks."""
    a4 = codec._decode_hidden(model, codec._encode(model, x)[2])
    return two_branch_sigmoid(a4 @ model.weights[4] + model.biases[4])


def textbook_backprop(model, x):
    """Loss and gradients with one fresh temporary per elementwise step."""
    w, b = model.weights, model.biases
    n_complex = model.input_dim // 2
    bsz = x.shape[0]
    z1 = x @ w[0] + b[0]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w[1] + b[1]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w[2] + b[2]
    z4 = z3 @ w[3] + b[3]
    a4 = np.maximum(z4, 0.0)
    y = two_branch_sigmoid(a4 @ w[4] + b[4])
    diff = y - x
    loss = float(np.sum(diff**2) / (n_complex * bsz))
    d5 = (2.0 / (n_complex * bsz)) * diff * y * (1.0 - y)
    d4 = (d5 @ w[4].T) * (z4 > 0)
    d3 = d4 @ w[3].T
    d2 = (d3 @ w[2].T) * (z2 > 0)
    d1 = (d2 @ w[1].T) * (z1 > 0)
    grads = []
    for a, d in ((x, d1), (a1, d2), (a2, d3), (z3, d4), (a4, d5)):
        grads.extend([a.T @ d, d.sum(axis=0)])
    return loss, grads


class TestRealify:
    def test_definition(self):
        out = codec.realify(np.array([1 + 2j, 3 - 4j]))
        assert np.array_equal(out, [1.0, 3.0, 2.0, -4.0])

    def test_zero_vector(self):
        out = codec.realify(np.zeros(5, dtype=complex))
        assert out.shape == (10,)
        assert not out.any()

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.normal(size=8) + 1j * rng.normal(size=8)
            assert np.array_equal(codec.complexify(codec.realify(x)), x)


class TestVectorize:
    def test_single_entry(self):
        h = cm.ChannelTensor(np.array([[[3 + 4j]]]))
        assert codec.vectorize_csi(h)[0] == 3 + 4j

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
        h = cm.ChannelTensor(data)
        back = codec.devectorize_csi(codec.vectorize_csi(h), (4, 2, 3))
        assert np.array_equal(back.data, h.data)

    def test_index_layout_by_enumeration(self):
        n_sc, n_r, n_t = 3, 2, 2
        data = np.zeros((n_sc, n_r, n_t), dtype=complex)
        for k in range(n_sc):
            for r in range(n_r):
                for t in range(n_t):
                    data[k, r, t] = k * 100 + r * 10 + t
        v = codec.vectorize_csi(cm.ChannelTensor(data))
        for k in range(n_sc):
            for r in range(n_r):
                for t in range(n_t):
                    assert v[k * n_r * n_t + r * n_t + t] == k * 100 + r * 10 + t


class TestLatentDim:
    def test_reference_value(self):
        assert codec.latent_dim(0.5, 128, 4, 16) == 8192

    def test_high_ratio_ceiling(self):
        # ceil(0.1 * 128) = 13 subcarrier slots per (rx, tx) pair.
        assert codec.latent_dim(0.9, 128, 4, 16) == 2 * 4 * 16 * 13

    def test_ceiling_floor_case(self):
        assert codec.latent_dim(127 / 128, 128, 1, 1) == 2

    def test_strict_compression_over_grid(self):
        for kappa in np.arange(0.1, 0.95, 0.05):
            assert codec.latent_dim(float(kappa), 128, 4, 16) < 2 * 128 * 4 * 16

    def test_domain_validation(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                codec.latent_dim(bad, 128, 4, 16)


class TestNormalize:
    stats = codec.NormStats(-2.0, 6.0)

    def test_endpoints(self):
        assert codec.normalize(np.array([-2.0]), self.stats)[0] == 0.0
        assert codec.normalize(np.array([6.0]), self.stats)[0] == 1.0

    def test_round_trip_in_range(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-2.0, 6.0, size=100)
        back = codec.denormalize(codec.normalize(v, self.stats), self.stats)
        assert np.abs(back - v).max() < 1e-12

    def test_out_of_range_clips(self):
        out = codec.normalize(np.array([-10.0, 10.0]), self.stats)
        assert list(out) == [0.0, 1.0]

    def test_matches_clip_expression_bit_for_bit(self):
        v = np.random.default_rng(4).normal(2.0, 4.0, size=(37, 64))
        before = v.copy()
        out = codec.normalize(v, self.stats)
        assert np.array_equal(v, before)
        assert np.array_equal(out, np.clip((v - -2.0) / (6.0 - -2.0), 0.0, 1.0))

    def test_list_and_int_input(self):
        values = [-3, -2, 0, 5, 6, 9]
        want = np.clip((np.array(values, dtype=float) + 2.0) / 8.0, 0.0, 1.0)
        assert np.array_equal(codec.normalize(values, self.stats), want)
        assert np.array_equal(codec.normalize(np.array(values), self.stats), want)

    def test_degenerate_stats_rejected(self):
        with pytest.raises(ValueError):
            codec.NormStats(1.0, 1.0)


class TestAeInit:
    def test_layer_shapes_desk_dims(self):
        model = codec.ae_init(0.5, (128, 4, 16), 0)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(16384, 10), (10, 10), (10, 8192), (8192, 10), (10, 16384)]
        assert model.latent_width == 8192
        assert model.input_dim == 16384

    def test_deterministic(self):
        a = codec.ae_init(0.5, (4, 2, 2), 9)
        b = codec.ae_init(0.5, (4, 2, 2), 9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_finite_and_glorot_bounded(self):
        model = codec.ae_init(0.3, (8, 2, 2), 1)
        for w in model.weights:
            assert np.isfinite(w).all()
            bound = math.sqrt(6.0 / sum(w.shape))
            assert np.abs(w).max() <= bound
        for b in model.biases:
            assert not b.any()


class TestForwardPasses:
    def test_zero_input_zero_biases_zero_latent(self):
        model = tiny_model()
        z = codec._encode(model, np.zeros((1, model.input_dim)))[2][0]
        assert not z.any()

    def test_latent_length(self):
        model = tiny_model(kappa=0.5, dims=(4, 2, 2))
        z = codec._encode(model, np.zeros((1, model.input_dim)))[2][0]
        assert z.shape == (codec.latent_dim(0.5, 4, 2, 2),)

    def test_zero_latent_gives_half_output(self):
        model = tiny_model()
        y = decoder_output(model, np.zeros(model.latent_width))[0]
        assert np.allclose(y, 0.5)

    def test_decode_range(self):
        model = tiny_model(seed=4)
        rng = np.random.default_rng(5)
        y = decoder_output(model, rng.normal(size=model.latent_width) * 10)[0]
        assert ((y >= 0) & (y <= 1)).all()

    def test_matches_naive_layer_by_layer_oracle(self):
        model = tiny_model(seed=6, dims=(3, 2, 2))
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, model.input_dim)
        w, b = model.weights, model.biases

        def naive_relu(v):
            return np.array([max(0.0, t) for t in v])

        h1 = naive_relu(np.array([x @ w[0][:, j] + b[0][j] for j in range(10)]))
        h2 = naive_relu(np.array([h1 @ w[1][:, j] + b[1][j] for j in range(10)]))
        z = np.array([h2 @ w[2][:, j] + b[2][j] for j in range(model.latent_width)])
        assert np.abs(codec._encode(model, x[None])[2][0] - z).max() < 1e-10

        z = z.astype(np.float32).astype(float)  # the latent's wire precision
        h3 = naive_relu(np.array([z @ w[3][:, j] + b[3][j] for j in range(10)]))
        y = np.array([1.0 / (1.0 + math.exp(-(h3 @ w[4][:, j] + b[4][j]))) for j in range(model.input_dim)])
        assert np.abs(decoder_output(model, z)[0] - y).max() < 1e-10

    def test_decode_matches_two_branch_sigmoid_bit_for_bit(self):
        # Pre-activations are set through the output bias: with a zero hidden
        # layer, h @ w[4] + b[4] is b[4] itself. A -0 bias arrives as +0,
        # because the matmul sums from +0; no public path can do otherwise.
        edge = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0]
        edge += [750.0, -750.0, 1e10, -1e10, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max]
        rng = np.random.default_rng(21)
        n_sc = 32
        pre = np.concatenate([edge, rng.normal(scale=40.0, size=2 * n_sc - len(edge))])
        edge_model = tiny_model(seed=22, dims=(n_sc, 1, 1))
        edge_model.weights[3][:] = 0.0
        edge_model.biases[4][:] = pre
        random_model = tiny_model(seed=23, dims=(n_sc, 1, 1))
        for b in random_model.biases:
            b[:] = rng.normal(size=b.size)
        for model in (edge_model, random_model):
            z = rng.normal(scale=30.0, size=(5, model.latent_width)).astype(np.float32).astype(float)
            w, b = model.weights, model.biases
            with np.errstate(over="raise", invalid="raise"):
                # One row at a time, as decompress decodes: a single-row
                # product rounds unlike that row of a batch product.
                x = np.concatenate([np.maximum(row @ w[3] + b[3], 0.0) @ w[4] + b[4] for row in z[:, None]])
                expected = two_branch_sigmoid(x)
                got = decoder_output(model, z)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestMseLoss:
    def test_identical_inputs(self):
        v = np.arange(8.0)
        assert codec.mse_loss(v, v, (2, 1, 2)) == 0.0

    def test_unit_offsets(self):
        # Reconstruction 1+0j against 0 on every complex element gives 1.0.
        dims = (2, 1, 2)
        n = 2 * 1 * 2
        h = np.zeros(2 * n)
        recon = np.concatenate([np.ones(n), np.zeros(n)])
        assert codec.mse_loss(h, recon, dims) == pytest.approx(1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        dims = (3, 2, 2)
        n = 3 * 2 * 2
        a = rng.normal(size=2 * n)
        b = rng.normal(size=2 * n)
        acc = 0.0
        for i in range(n):
            da = a[i] - b[i]
            db = a[n + i] - b[n + i]
            acc += da * da + db * db
        assert abs(codec.mse_loss(a, b, dims) - acc / n) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            codec.mse_loss(np.zeros(4), np.zeros(6), (1, 1, 1))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = [np.array([1.5, -2.0])]
        state = codec.AdamState.for_params(p)
        codec.adam_step(p, [np.zeros(2)], state, lr=1e-4)
        assert np.array_equal(p[0], [1.5, -2.0])

    def test_first_step_hand_computed(self):
        p = [np.array([0.0])]
        state = codec.AdamState.for_params(p)
        codec.adam_step(p, [np.array([1.0])], state, lr=1e-4)
        # m_hat = 1, v_hat = 1 after bias correction: delta = -lr / (1 + eps).
        expected = -1e-4 * 1.0 / (1.0 + 1e-8)
        assert p[0][0] == pytest.approx(expected, abs=1e-16)

    def test_two_steps_match_scalar_oracle(self):
        lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-8
        grads = [0.7, -0.3]
        theta, m, v = 0.2, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

        p = [np.array([0.2])]
        state = codec.AdamState.for_params(p)
        for g in grads:
            codec.adam_step(p, [np.array([g])], state, lr=lr)
        assert p[0][0] == pytest.approx(theta, abs=1e-12)

    def test_matches_textbook_expression_bit_for_bit(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(30)
        shapes = [(16384, 10), (10,), (10, 7)]
        params = [rng.normal(size=s) for s in shapes]
        want = [p.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        state = codec.AdamState.for_params(params)
        for t in range(1, 6):
            grads = [rng.normal(scale=0.1, size=s) for s in shapes]
            codec.adam_step(params, grads, state, lr=lr)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert state.t == 5
        for got, expect, got_m, expect_m, got_v, expect_v in zip(params, want, state.m, m, state.v, v):
            assert np.array_equal(got, expect)
            assert np.array_equal(got_m, expect_m)
            assert np.array_equal(got_v, expect_v)

    def test_non_finite_gradient_rejected(self):
        p = [np.array([0.0])]
        state = codec.AdamState.for_params(p)
        with pytest.raises(FloatingPointError):
            codec.adam_step(p, [np.array([np.nan])], state, lr=1e-4)


class TestBackprop:
    def test_gradient_shapes_mirror_params(self):
        model = tiny_model(seed=10)
        x = np.random.default_rng(11).uniform(size=(4, model.input_dim))
        _, grads = codec.backprop(model, x)
        for g, p in zip(grads, model.params()):
            assert g.shape == p.shape

    def test_zero_error_zero_output_gradient(self):
        """A zero output layer makes every output sigmoid(0) = 0.5 exactly, so
        targets of 0.5 are reconstructed without error: the loss and every
        gradient are exactly zero."""
        model = tiny_model(seed=12)
        model.weights[4][:] = 0.0
        model.biases[4][:] = 0.0
        x = np.full((2, model.input_dim), 0.5)
        loss, grads = codec.backprop(model, x)
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_matches_central_finite_differences(self):
        model = tiny_model(seed=14, dims=(2, 1, 2))
        rng = np.random.default_rng(15)
        x = rng.uniform(0.1, 0.9, size=(3, model.input_dim))
        _, grads = codec.backprop(model, x)
        params = model.params()
        eps = 1e-5
        worst = 0.0
        for pi, p in enumerate(params):
            flat = p.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = codec.backprop(model, x)
                flat[idx] = orig - eps
                lm, _ = codec.backprop(model, x)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                g = grads[pi].reshape(-1)[idx]
                denom = max(abs(fd), abs(g), 1e-8)
                worst = max(worst, abs(fd - g) / denom)
        assert worst < 1e-4

    # 26 is the last batch of a desk epoch: 410 training samples mod 128.
    @pytest.mark.parametrize("bsz", [1, 26, 128])
    def test_matches_textbook_oracle_bit_for_bit(self, bsz):
        model = tiny_model(seed=16, dims=(16, 2, 4))
        rng = np.random.default_rng(17)
        for bias in model.biases:
            bias[:] = rng.normal(scale=0.5, size=bias.size)
        x = rng.uniform(size=(bsz, model.input_dim))
        x_before = x.copy()
        params_before = [p.copy() for p in model.params()]
        loss, grads = codec.backprop(model, x)
        assert np.array_equal(x, x_before)
        for p, before in zip(model.params(), params_before):
            assert np.array_equal(p, before)
        want_loss, want_grads = textbook_backprop(model, x)
        assert loss == want_loss
        assert len(grads) == len(want_grads) == 10
        for g, want in zip(grads, want_grads):
            assert np.array_equal(g, want)

    # At desk dims the output layer runs in blocks of 4 rows: 26 and 102 end
    # on a partial block, 9 on a single row that joins the block before it.
    @pytest.mark.parametrize("kappa", [0.1, 0.7])
    @pytest.mark.parametrize("bsz", [1, 9, 26, 102, 128])
    def test_matches_textbook_oracle_bit_for_bit_at_desk_dims(self, kappa, bsz):
        model = codec.ae_init(kappa, DESK_DIMS, 18)
        rng = np.random.default_rng(19)
        for bias in model.biases:
            bias[:] = rng.normal(scale=0.5, size=bias.size)
        x = rng.uniform(size=(bsz, model.input_dim))
        loss, grads = codec.backprop(model, x)
        want_loss, want_grads = textbook_backprop(model, x)
        assert loss == want_loss
        for g, want in zip(grads, want_grads):
            assert np.array_equal(g, want)

    # Row sets as train draws them from a desk epoch's 410 training rows.
    @pytest.mark.parametrize("kappa", [0.1, 0.7])
    @pytest.mark.parametrize("bsz", [1, 9, 26, 128])
    def test_rows_of_read_only_data_match_textbook_oracle(self, kappa, bsz):
        model = codec.ae_init(kappa, DESK_DIMS, 28)
        rng = np.random.default_rng(29)
        for bias in model.biases:
            bias[:] = rng.normal(scale=0.5, size=bias.size)
        data = rng.uniform(size=(410, model.input_dim))
        data.flags.writeable = False
        before = data.copy()
        rows = rng.permutation(410)[:bsz]
        loss, grads = codec.backprop(model, data, rows)
        assert np.array_equal(data, before)
        want_loss, want_grads = textbook_backprop(model, data[rows])
        assert loss == want_loss
        for g, want in zip(grads, want_grads):
            assert np.array_equal(g, want)

    def test_empty_batch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            codec.backprop(model, np.zeros((0, model.input_dim)))
        with pytest.raises(ValueError):
            codec.backprop(model, np.ones((4, model.input_dim)), np.arange(0))


class TestBatchLoss:
    @pytest.mark.parametrize("dims", [(16, 2, 4), DESK_DIMS])
    @pytest.mark.parametrize("bsz", [1, 9, 102])
    def test_matches_forward_passes_bit_for_bit(self, dims, bsz):
        model = codec.ae_init(0.5, dims, 26)
        rng = np.random.default_rng(27)
        for bias in model.biases:
            bias[:] = rng.normal(scale=0.5, size=bias.size)
        x = rng.uniform(size=(bsz, model.input_dim))
        y = full_batch_output(model, x)
        want = float(np.sum((y - x) ** 2) / ((model.input_dim // 2) * bsz))
        assert codec._batch_loss(model, x) == want


def channel_rows(profile_name, dims, n, seed0=5000):
    profile = cm.load_cdl_profile(cm.shipped_profile_path(profile_name))
    n_sc, n_r, n_t = dims
    ura = cm.UraGeometry(1, n_t)
    rows = []
    for i in range(n):
        h = cm.synthesize_csi(profile, ura, n_r, n_sc, 15e3, seed0 + i)
        rows.append(codec.realify(codec.vectorize_csi(h)))
    return np.array(rows)


class TestTrain:
    dims = (16, 2, 4)

    def test_loss_descends(self):
        data = channel_rows("cdl_e", self.dims, 64)
        model = codec.ae_init(0.5, self.dims, 20)
        split = codec.split_dataset(data, seed=21, val_fraction=0.2)
        model, hist = codec.train(model, split, epochs=16, batch_size=16, learning_rate=1e-3)
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert len(hist.train_loss) == len(hist.val_loss) == 16

    def test_memorizes_constant_dataset(self):
        base = channel_rows("cdl_e", self.dims, 1)
        data = np.repeat(base, 16, axis=0)
        model = codec.ae_init(0.5, self.dims, 22)
        split = codec.split_dataset(data, seed=23, val_fraction=0.0)
        model, hist = codec.train(model, split, epochs=64, batch_size=128, learning_rate=0.05)
        assert hist.train_loss[-1] < 1e-3
        assert hist.train_loss[-1] < 0.01 * hist.train_loss[0]

    def test_deterministic_history(self):
        data = channel_rows("cdl_c", self.dims, 32)
        runs = []
        for _ in range(2):
            model = codec.ae_init(0.5, self.dims, 24)
            split = codec.split_dataset(data, seed=25, val_fraction=0.2)
            _, hist = codec.train(model, split, epochs=4, batch_size=16, learning_rate=1e-3)
            runs.append(hist)
        assert runs[0].train_loss == runs[1].train_loss
        assert runs[0].val_loss == runs[1].val_loss

    def test_step_gradients_die_before_the_next_backprop(self, monkeypatch):
        """Each step's gradients are freed once its Adam update has read
        them, so no step's backprop runs beside the previous step's."""
        split = codec.split_dataset(channel_rows("cdl_e", self.dims, 32), seed=26, val_fraction=0.0)
        backprop = codec.backprop
        previous, alive_at_start = [], []

        def watched(*args):
            alive_at_start.append(sum(ref() is not None for ref in previous))
            loss, grads = backprop(*args)
            previous[:] = [weakref.ref(g) for g in grads]
            return loss, grads

        monkeypatch.setattr(codec, "backprop", watched)
        codec.train(codec.ae_init(0.5, self.dims, 20), split, epochs=2, batch_size=8, learning_rate=1e-3)
        assert alive_at_start == [0] * 8

    def test_empty_dataset_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            codec.split_dataset(np.zeros((0, model.input_dim)), seed=0, val_fraction=0.2)

    def test_stats_come_from_the_training_rows(self):
        data = np.arange(40.0).reshape(10, 4)
        split = codec.split_dataset(data, seed=3, val_fraction=0.3)
        order = np.random.default_rng(3).permutation(10)
        train_raw = data[order[3:]]
        # The validation rows hold an extreme of the whole set.
        assert data.min() < train_raw.min() or data.max() > train_raw.max()
        assert (split.stats.lo, split.stats.hi) == (train_raw.min(), train_raw.max())
        assert np.array_equal(split.val, np.clip((data[order[:3]] - train_raw.min()) / np.ptp(train_raw), 0.0, 1.0))

    def test_split_gathers_a_normalized_copy(self):
        """The caller's array comes back unchanged, even read-only, and the
        split is its rows in permutation order, normalized by the training
        rows' extrema."""
        data = channel_rows("cdl_c", self.dims, 20)
        data.flags.writeable = False
        before = data.copy()
        split = codec.split_dataset(data, seed=27, val_fraction=0.2)
        assert np.array_equal(data, before)
        order = np.random.default_rng(27).permutation(20)
        stats = codec.NormStats(float(data[order[4:]].min()), float(data[order[4:]].max()))
        want = codec.normalize(data[order], stats)
        assert split.stats == stats
        assert np.array_equal(split.val, want[:4])
        assert np.array_equal(split.train, want[4:])
        assert not split.train.flags.writeable and not split.val.flags.writeable

    def test_split_leaving_no_training_rows_rejected(self):
        with pytest.raises(ValueError, match="no training samples"):
            codec.split_dataset(np.ones((4, 8)), seed=0, val_fraction=0.9)

    def test_width_mismatch_rejected(self):
        model = tiny_model()
        split = codec.split_dataset(np.arange(2.0 * (model.input_dim + 1)).reshape(2, -1), seed=0, val_fraction=0.0)
        with pytest.raises(ValueError, match="input width"):
            codec.train(model, split, epochs=1, batch_size=128, learning_rate=1e-4)


class TestQuantize:
    def test_truncates_sixth_decimal(self):
        assert codec.quantize(np.array([0.1234567]))[0] == pytest.approx(0.123456, abs=1e-12)

    def test_negative_truncates_toward_zero(self):
        assert codec.quantize(np.array([-0.1234567]))[0] == pytest.approx(-0.123456, abs=1e-12)

    def test_idempotent_on_random_vectors(self):
        rng = np.random.default_rng(26)
        v = rng.normal(size=2000) * rng.choice([1e-3, 1.0, 50.0], size=2000)
        q = codec.quantize(v)
        assert np.array_equal(codec.quantize(q), q)

    def test_bounded_perturbation(self):
        rng = np.random.default_rng(27)
        v = rng.normal(size=2000)
        assert np.abs(v - codec.quantize(v)).max() < 1e-6


class TestCompressDecompress:
    dims = (8, 2, 2)

    def make_channel(self, seed):
        profile = cm.load_cdl_profile(cm.shipped_profile_path("cdl_e"))
        return cm.synthesize_csi(profile, cm.UraGeometry(1, 2), 2, 8, 15e3, seed)

    def fitted_model(self, kappa=0.5, seed=30):
        model = codec.ae_init(kappa, self.dims, seed)
        data = channel_rows("cdl_e", self.dims, 32)[:, : model.input_dim]
        split = codec.split_dataset(data, seed=seed + 1, val_fraction=0.2)
        model, _ = codec.train(model, split, epochs=4, batch_size=16, learning_rate=1e-3)
        return model

    def test_latent_length_matches_formula(self):
        model = self.fitted_model()
        latent = codec.compress(model, self.make_channel(1))
        assert latent.values.size == codec.latent_dim(0.5, *self.dims)

    def test_untrained_model_still_total(self):
        model = codec.ae_init(0.5, self.dims, 31)
        model.norm_min, model.norm_max = -1.0, 1.0
        h = self.make_channel(2)
        recon = codec.decompress(model, codec.compress(model, h))
        assert recon.dims == h.dims
        assert np.isfinite(recon.data).all()

    def test_latent_values_are_quantized(self):
        model = self.fitted_model()
        latent = codec.compress(model, self.make_channel(3))
        v = latent.values.astype(float)
        assert np.abs(codec.quantize(v) - v).max() < 1e-6

    # Each wrong shape keeps the element count where it can, and the message
    # is matched, so no matmul shape error stands in for a missing check.
    @pytest.mark.parametrize("mismatch", ["tensor dims", "latent dims", "latent length"])
    def test_shape_mismatch_rejected(self, mismatch):
        model = codec.ae_init(0.5, self.dims, 31)
        h = self.make_channel(5)
        latent = codec.compress(model, h)
        with pytest.raises(ValueError, match=mismatch):
            if mismatch == "tensor dims":
                codec.compress(model, cm.ChannelTensor(h.data.reshape(2, 2, 8)))
            elif mismatch == "latent dims":
                codec.decompress(model, codec.LatentCsi(latent.values, latent.kappa_index, (4, 4, 2)))
            else:
                codec.decompress(model, codec.LatentCsi(latent.values[:-1], latent.kappa_index, self.dims))

    def test_kappa_mismatch_rejected(self):
        m1 = self.fitted_model(kappa=0.5, seed=32)
        m2 = codec.ae_init(0.5, self.dims, 33, kappa_index=1)
        m2.norm_min, m2.norm_max = -1.0, 1.0
        latent = codec.compress(m1, self.make_channel(4))
        with pytest.raises(ValueError):
            codec.decompress(m2, latent)


class TestWireFormat:
    def roundtrip(self, latent):
        return codec.deserialize(codec.serialize(latent))

    def test_round_trip_random_latents(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            d = int(rng.integers(1, 64))
            latent = codec.LatentCsi(
                values=codec.quantize(rng.normal(size=d)).astype(np.float32),
                kappa_index=int(rng.integers(0, 4)),
                dims=(int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 5))),
            )
            back = self.roundtrip(latent)
            assert np.array_equal(back.values, latent.values)
            assert back.kappa_index == latent.kappa_index
            assert back.dims == latent.dims

    def test_payload_bit_count(self):
        latent = codec.LatentCsi(np.zeros(8192, dtype=np.float32), 0, (128, 4, 16))
        blob = codec.serialize(latent)
        header = 4 + 1 + 1 + 1 + 4 * 4
        assert (len(blob) - header) * 8 == 32 * 8192

    # Every cut short of the 23-byte header.
    @pytest.mark.parametrize("cut", range(23))
    def test_truncated_header_rejected(self, cut):
        blob = codec.serialize(codec.LatentCsi(np.ones(4, dtype=np.float32), 0, (1, 2, 2)))
        with pytest.raises(codec.WireFormatError, match="truncated header"):
            codec.deserialize(blob[:cut])

    def test_truncated_stream_rejected(self):
        latent = codec.LatentCsi(np.ones(16, dtype=np.float32), 0, (4, 2, 2))
        blob = codec.serialize(latent)
        with pytest.raises(codec.WireFormatError):
            codec.deserialize(blob[:-3])

    @pytest.mark.parametrize("dims", [(0, 2, 2), (4, 0, 2), (4, 2, 0)])
    def test_zero_dimension_rejected(self, dims):
        latent = codec.LatentCsi(np.ones(8, dtype=np.float32), 0, dims)
        with pytest.raises(codec.WireFormatError, match="zero dimension"):
            codec.deserialize(codec.serialize(latent))

    def test_empty_latent_rejected(self):
        latent = codec.LatentCsi(np.zeros(0, dtype=np.float32), 0, (4, 2, 2))
        with pytest.raises(codec.WireFormatError, match="empty latent"):
            codec.deserialize(codec.serialize(latent))

    @pytest.mark.parametrize(
        "offset, match",
        [(0, "bad magic"), (4, "unsupported version"), (6, "unsupported bits-per-element")],
        ids=["magic", "version", "bits"],
    )
    def test_bad_header_byte_rejected(self, offset, match):
        latent = codec.LatentCsi(np.ones(4, dtype=np.float32), 0, (1, 2, 2))
        blob = bytearray(codec.serialize(latent))
        blob[offset] = 0x58
        with pytest.raises(codec.WireFormatError, match=match):
            codec.deserialize(bytes(blob))


class TestOverheadBits:
    def test_reference_value(self):
        assert codec.overhead_bits(32, 8192, 3) == 262146

    def test_single_ratio_costs_nothing_extra(self):
        assert codec.overhead_bits(32, 100, 1) == 3200

    def test_log_scaling(self):
        assert codec.overhead_bits(32, 10, 4) - 320 == 2
        assert codec.overhead_bits(32, 10, 5) - 320 == 3
