import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarlab import nn
from sarlab.model import (
    SarConfig,
    SarModel,
    TrainConfig,
    latent_mask,
    load_checkpoint,
    reconstruction_loss,
    sample_mask_ratio,
    save_checkpoint,
    train_autoencoder,
)

from test_nn import numeric_grad

TOY = SarConfig(n_mels=5, fc_hidden=6, n_fc_enc=2, blstm_hidden=4,
                n_blstm=2, latent_dim=5, dec_hidden=6, alpha_max=0.2)


class TestMaskRatio:
    def test_degenerate_interval(self):
        rng = nn.make_rng(0)
        assert all(sample_mask_ratio(rng, 0.0) == 0.0 for _ in range(100))

    def test_uniform_distribution(self):
        rng = nn.make_rng(1)
        draws = np.array([sample_mask_ratio(rng, 0.2) for _ in range(10000)])
        assert abs(draws.mean() - 0.1) < 0.005
        # KS statistic against U(0, 0.2); 1% critical value ~ 1.63/sqrt(n)
        sorted_d = np.sort(draws) / 0.2
        n = len(draws)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - sorted_d)), np.max(np.abs(sorted_d - ecdf_lo)))
        assert ks < 1.63 / np.sqrt(n)

    def test_deterministic(self):
        a = [sample_mask_ratio(nn.make_rng(7), 0.2) for _ in range(1)]
        b = [sample_mask_ratio(nn.make_rng(7), 0.2) for _ in range(1)]
        assert a == b

    def test_invalid_alpha_max(self):
        with pytest.raises(ValueError):
            sample_mask_ratio(nn.make_rng(0), 1.0)
        with pytest.raises(ValueError):
            sample_mask_ratio(nn.make_rng(0), -0.1)


def replayed_alphas(seed, alpha_max, shape):
    """The per-sequence ratios `latent_mask` draws, replayed in its draw order:
    one `sample_mask_ratio`, then one uniform per element only if alpha > 0."""
    rng = nn.make_rng(seed)
    alphas = []
    for _ in range(shape[0]):
        alpha = sample_mask_ratio(rng, alpha_max)
        if alpha > 0:
            rng.uniform(size=shape[1:])
        alphas.append(alpha)
    return alphas


def check_mask(mask, alphas):
    """Exact ones at alpha 0, survivors exactly 1/(1-alpha) in float32, and a
    dropped fraction within 0.02 of each sequence's alpha."""
    assert mask.dtype == np.float32
    for m, alpha in zip(mask, alphas):
        if alpha == 0:
            assert np.all(m == 1.0)
        assert np.all(m[m != 0] == np.float32(1.0 / (1.0 - alpha)))
        assert abs(np.mean(m == 0) - alpha) <= 0.02


class TestApplyMask:
    """`latent_mask`, the multiplier training applies to the latent."""

    def test_zero_alpha_train_identity(self):
        z = nn.make_rng(0).uniform(-1, 1, (3, 20, 8)).astype(np.float32)
        rng = nn.make_rng(1)
        mask = latent_mask(rng, 0.0, z.shape)
        assert mask.dtype == np.float32
        assert np.array_equal(z * mask, z)
        # alpha 0 draws nothing beyond the ratio itself
        assert rng.uniform() == nn.make_rng(1).uniform()

    def test_inference_identity_any_alpha(self):
        mel = nn.make_rng(2).uniform(-2, 1, (9, 5))
        x = mel[None].astype(np.float32)
        outs = []
        for alpha in (0.0, 0.2, 0.9):
            model = SarModel(replace(TOY, alpha_max=alpha), seed=3)
            out = model.reconstruct(mel)
            unmasked = model.forward(x, np.ones((1, 9, TOY.latent_dim), np.float32))
            assert np.array_equal(out, unmasked[0])
            outs.append(out)
        assert all(np.array_equal(o, outs[0]) for o in outs)

    def test_zeroed_fraction(self):
        shape = (8, 100, 100)
        mask = latent_mask(nn.make_rng(4), 0.9, shape)
        alphas = replayed_alphas(4, 0.9, shape)
        assert len(set(alphas)) == len(alphas)  # one ratio per sequence
        check_mask(mask, alphas)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           alpha_max=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
           batch=st.integers(1, 3))
    def test_mask_properties(self, seed, alpha_max, batch):
        shape = (batch, 200, 100)
        mask = latent_mask(nn.make_rng(seed), alpha_max, shape)
        assert mask.shape == shape
        check_mask(mask, replayed_alphas(seed, alpha_max, shape))

    def test_alpha_out_of_range(self):
        for alpha_max in (1.0, -0.1):
            with pytest.raises(ValueError):
                latent_mask(nn.make_rng(0), alpha_max, (2, 2, 2))


class TestEncodeDecode:
    def test_shapes(self):
        model = SarModel(TOY, seed=0)
        mel = nn.make_rng(5).standard_normal((7, 5))
        z = model.encode(mel)
        assert z.shape == (7, 5)
        out = model.decode(z)
        assert out.shape == (7, 5)

    def test_default_config_latent_width(self):
        model = SarModel(SarConfig(), seed=0)
        mel = nn.make_rng(6).standard_normal((3, 80))
        assert model.encode(mel).shape == (3, 256)

    def test_latent_strictly_bounded(self):
        model = SarModel(TOY, seed=1)
        mel = 100 * nn.make_rng(7).standard_normal((10, 5))
        z = model.encode(mel)
        assert np.all(np.abs(z) < 1.0)

    def test_encode_deterministic(self):
        model = SarModel(TOY, seed=2)
        mel = nn.make_rng(8).standard_normal((6, 5))
        assert np.array_equal(model.encode(mel), model.encode(mel))

    def test_wrong_width(self):
        model = SarModel(TOY, seed=0)
        with pytest.raises(ValueError):
            model.encode(np.zeros((4, 7)))

    def test_empty_sequence(self):
        model = SarModel(TOY, seed=0)
        with pytest.raises(ValueError):
            model.encode(np.zeros((0, 5)))

    def test_concurrent_encodes_match_sequential(self):
        # more callers than cores, all sharing the one BLSTM worker thread
        cfg = SarConfig(n_mels=5, fc_hidden=16, blstm_hidden=16, latent_dim=8,
                        dec_hidden=8)
        n = 4
        models = [SarModel(cfg, seed=s) for s in range(n)]
        mels = [nn.make_rng(20 + s).standard_normal((40, 5)) for s in range(n)]
        want = [m.encode(x) for m, x in zip(models, mels)]
        got = [[] for _ in range(n)]
        start = threading.Barrier(n)

        def run(k):
            start.wait()
            for _ in range(10):
                got[k].append(models[k].encode(mels[k]))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(n):
            assert len(got[k]) == 10
            assert all(np.array_equal(z, want[k]) for z in got[k])

    def test_decoder_frame_local(self):
        model = SarModel(TOY, seed=3)
        rng = nn.make_rng(9)
        z = rng.uniform(-0.9, 0.9, (8, 5))
        out = model.decode(z)
        perm = rng.permutation(8)
        np.testing.assert_allclose(model.decode(z[perm]), out[perm], atol=1e-7)

    def test_zero_latent_constant_output(self):
        model = SarModel(TOY, seed=4)
        out = model.decode(np.zeros((5, 5)))
        for t in range(1, 5):
            np.testing.assert_array_equal(out[t], out[0])


class TestReconstructionLoss:
    def test_zero(self):
        x = np.ones((3, 4))
        assert reconstruction_loss(x, x) == 0.0

    def test_offset(self):
        x = np.zeros((3, 4))
        assert reconstruction_loss(x + 2.0, x) == 4.0

    def test_random_direct_sum(self):
        rng = nn.make_rng(10)
        a, b = rng.standard_normal((2, 2, 3))
        direct = float(np.sum((a - b) ** 2)) / 6
        assert reconstruction_loss(a, b) == pytest.approx(direct, rel=1e-12)


def ragged_batch(seed, lengths, d):
    """Padded (B, T, d) batch and its (B, T) valid-frame mask.

    Pad frames hold noise, not zeros: with zero input and zero bias the
    first PReLU would sit exactly on its kink, where finite differences
    are meaningless.  The loss ignores pad frames either way.
    """
    x = nn.make_rng(seed).standard_normal((len(lengths), max(lengths), d))
    valid = np.arange(x.shape[1]) < np.array(lengths)[:, None]
    return x, valid


class TestEndToEndGradients:
    def test_full_composition_matches_finite_differences(self):
        cfg = SarConfig(n_mels=4, fc_hidden=5, n_fc_enc=2, blstm_hidden=3,
                        n_blstm=2, latent_dim=4, dec_hidden=5, alpha_max=0.2)
        model = SarModel(cfg, seed=5).astype(np.float64)
        x, valid = ragged_batch(11, [3, 2], 4)
        mask = latent_mask(nn.make_rng(12), 0.5, (2, 3, 4))
        assert np.any(mask == 0)

        def loss():
            return nn.mse_with_grad(model.forward(x, mask), x, valid)[0]

        model.zero_grads()
        _, dpred = nn.mse_with_grad(model.forward(x, mask), x, valid)
        model.backward(dpred, mask)
        grads = model.named_grads()
        params = model.named_params()
        for name, p in params.items():
            num = numeric_grad(loss, p)
            denom = np.maximum(np.abs(num), 1e-6)
            rel = np.max(np.abs(grads[name] - num) / denom)
            assert rel < 1e-4, "tensor %s rel err %g" % (name, rel)


def tiny_mel(seed=0, t=10, d=5):
    rng = nn.make_rng(seed)
    return rng.uniform(-2.0, 1.0, (t, d))


class TestTraining:
    def test_overfit_single_sequence(self):
        mel = tiny_mel()
        cfg = TrainConfig(batch_size=1, lr=2e-3, max_epochs=2000,
                          patience=2000, seed=0, alpha_max=0.0)
        small = SarConfig(n_mels=5, fc_hidden=16, n_fc_enc=2, blstm_hidden=8,
                          n_blstm=2, latent_dim=8, dec_hidden=16, alpha_max=0.0)
        model, hist = train_autoencoder([mel], [mel], cfg, small)
        assert hist.epochs[-1][1] < 1e-3

    def test_history_bounded_and_deterministic(self):
        mels = [tiny_mel(i, t=6 + i % 3) for i in range(4)]
        cfg = TrainConfig(batch_size=2, lr=1e-3, max_epochs=5, patience=5,
                          seed=3, alpha_max=0.2)
        _, h1 = train_autoencoder(mels[:3], mels[3:], cfg, TOY)
        _, h2 = train_autoencoder(mels[:3], mels[3:], cfg, TOY)
        assert len(h1.epochs) <= 5
        assert h1.epochs == h2.epochs

    def test_golden_history(self):
        """Training numerics, pinned: ragged batches of 2 with alpha_max 0.2."""
        mels = [tiny_mel(i, t=6 + i % 3) for i in range(4)]
        cfg = TrainConfig(batch_size=2, lr=1e-3, max_epochs=5, patience=5,
                          seed=3, alpha_max=0.2)
        _, hist = train_autoencoder(mels[:3], mels[3:], cfg, TOY)
        golden = [
            (0, 0.9202219418116978, 1.002968668937683),
            (1, 0.9167872014499846, 0.9998993277549744),
            (2, 0.9117287596066793, 0.9965327978134155),
            (3, 0.9082711338996887, 0.9931301474571228),
            (4, 0.9086875319480896, 0.9898178577423096),
        ]
        np.testing.assert_allclose(np.array(hist.epochs), golden, rtol=1e-6)

    def test_every_step_skipped_raises(self, monkeypatch):
        real = SarModel.backward

        def poisoned(self, dpred, mask):
            real(self, dpred, mask)
            self.decoder.layers[-1][1].grads["b"][0] = np.nan

        monkeypatch.setattr(SarModel, "backward", poisoned)
        mels = [tiny_mel(i) for i in range(5)]
        cfg = TrainConfig(batch_size=2, max_epochs=3, seed=1)
        with pytest.raises(RuntimeError, match="every optimizer step of epoch 0"):
            train_autoencoder(mels[:4], mels[4:], cfg, TOY)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_some_steps_skipped_trains_on(self, monkeypatch):
        real = SarModel.backward
        calls = []

        def poison_first(self, dpred, mask):
            real(self, dpred, mask)
            calls.append(1)
            if len(calls) == 1:
                self.decoder.layers[-1][1].grads["b"][0] = np.inf

        monkeypatch.setattr(SarModel, "backward", poison_first)
        mels = [tiny_mel(i) for i in range(5)]
        cfg = TrainConfig(batch_size=2, max_epochs=1, seed=1)
        _, hist = train_autoencoder(mels[:4], mels[4:], cfg, TOY)
        assert len(calls) == 2 and len(hist.epochs) == 1

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train_autoencoder([], [tiny_mel()], TrainConfig(), TOY)

    def test_history_csv(self, tmp_path):
        mels = [tiny_mel(i) for i in range(3)]
        cfg = TrainConfig(batch_size=2, lr=1e-3, max_epochs=2, patience=5,
                          seed=1, alpha_max=0.1)
        _, hist = train_autoencoder(mels[:2], mels[2:], cfg, TOY)
        hist.save_csv(tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,alpha_max,seed"
        assert len(lines) == len(hist.epochs) + 1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = SarModel(TOY, seed=6)
        model.step = 42
        save_checkpoint(model, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert back.config == TOY
        assert back.step == 42
        a, b = model.named_params(), back.named_params()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_records_trained_alpha_max(self, quick_checkpoints):
        # both were built from one SarConfig with alpha_max 0.2
        assert load_checkpoint(quick_checkpoints["ae"]).config.alpha_max == 0.0
        assert load_checkpoint(quick_checkpoints["sar"]).config.alpha_max == 0.2

    def test_truncated(self, tmp_path):
        model = SarModel(TOY, seed=7)
        save_checkpoint(model, tmp_path / "m.ckpt")
        raw = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "t.ckpt").write_bytes(raw[:-10])
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_checkpoint(tmp_path / "t.ckpt")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "b.ckpt").write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_checkpoint(tmp_path / "b.ckpt")

    def test_shape_mismatch_names_tensor(self, tmp_path):
        import json, struct
        model = SarModel(TOY, seed=8)
        save_checkpoint(model, tmp_path / "m.ckpt")
        raw = (tmp_path / "m.ckpt").read_bytes()
        (meta_len,) = struct.unpack("<I", raw[8:12])
        meta = json.loads(raw[12:12 + meta_len])
        meta["tensors"][0][1] = [99, 99]  # lie about the first tensor's shape
        blob = json.dumps(meta).encode()
        (tmp_path / "x.ckpt").write_bytes(
            raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + meta_len:])
        name = meta["tensors"][0][0]
        with pytest.raises(ValueError, match=name.replace(".", r"\.")):
            load_checkpoint(tmp_path / "x.ckpt")


# one of every tensor kind, as few bytes as a checkpoint can have
TINY = SarConfig(n_mels=2, fc_hidden=1, n_fc_enc=1, blstm_hidden=1,
                 n_blstm=1, latent_dim=1, dec_hidden=1)


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "m.ckpt"
    save_checkpoint(SarModel(TINY, seed=9), path)
    return path.read_bytes()


def load_bytes(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.ckpt"
        path.write_bytes(raw)
        return load_checkpoint(path)


class TestCheckpointStrictness:
    def test_intact_file_loads(self, tiny_ckpt):
        assert load_bytes(tiny_ckpt).config == TINY

    def test_every_truncation_rejected(self, tiny_ckpt):
        for cut in range(len(tiny_ckpt)):
            with pytest.raises(ValueError):
                load_bytes(tiny_ckpt[:cut])

    @given(extra=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_appended_bytes_rejected(self, tiny_ckpt, extra):
        with pytest.raises(ValueError, match="trailing bytes"):
            load_bytes(tiny_ckpt + extra)
