"""End-to-end acceptance gate.

Each criterion records one PASS/FAIL line; the conftest terminal-summary hook
prints them after the run so they survive output capture.  Criterion 5 trains
two models on a generated speech-like corpus and takes the bulk of the
runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

import sarlab.nn as nn
from sarlab.corruption import degrade_bandwidth
from sarlab.dsp import AudioClip, StftConfig, istft, resample, stft
from sarlab.harness import emit_report, load_report, run_table_experiment
from sarlab.metrics import estoi
from sarlab.model import (SarConfig, SarModel, TrainConfig, latent_mask,
                          sample_mask_ratio, train_autoencoder)
from sarlab.speechlike import make_corpus, speechlike_utterance

from test_model import check_mask, ragged_batch, replayed_alphas
from test_nn import check_model_grads, numeric_grad


RESULTS = []  # lines for the terminal-summary hook in conftest


def _announce(label, ok):
    line = "[%s] %s" % ("PASS" if ok else "FAIL", label)
    RESULTS.append(line)
    print(line, flush=True)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        _announce(label, False)
        raise
    _announce(label, True)


class TestCriterion1Gradients:
    def test_gradients_match_finite_differences(self):
        label = "criterion 1: gradient correctness (rel err < 1e-4, < 1 min)"
        with criterion(label):
            t0 = time.time()
            rng = nn.make_rng(0)
            shapes = [
                nn.Sequential([("fc", nn.Linear(4, 6, rng))]),
                nn.Sequential([("fc", nn.Linear(4, 4, rng)),
                               ("act", nn.PRelu(4))]),
                nn.Sequential([("fc", nn.Linear(4, 4, rng)),
                               ("act", nn.Tanh())]),
                nn.Sequential([("rnn", nn.Lstm(4, 3, rng))]),
                nn.Sequential([("rnn", nn.Bilstm(4, 3, rng))]),
            ]
            for model in shapes:
                model.astype(np.float64)
                x = nn.make_rng(1).standard_normal((1, 5, 4))
                d_out = model.forward(x).shape[-1]
                target = nn.make_rng(2).standard_normal((1, 5, d_out))
                check_model_grads(model, x, target, rtol=1e-4)

            # the training step's encode -> latent mask -> decode -> masked
            # MSE composition, on a ragged batch
            cfg = SarConfig(n_mels=4, fc_hidden=5, n_fc_enc=2, blstm_hidden=3,
                            n_blstm=2, latent_dim=4, dec_hidden=5)
            full = SarModel(cfg, seed=5).astype(np.float64)
            x, valid = ragged_batch(3, [3, 2], 4)
            mask = latent_mask(nn.make_rng(5), 0.5, (2, 3, 4))
            assert np.any(mask == 0)

            def loss():
                return nn.mse_with_grad(full.forward(x, mask), x, valid)[0]

            full.zero_grads()
            _, dpred = nn.mse_with_grad(full.forward(x, mask), x, valid)
            full.backward(dpred, mask)
            grads = full.named_grads()
            for name, p in full.named_params().items():
                num = numeric_grad(loss, p)
                denom = np.maximum(np.abs(num), 1e-6)
                rel = np.max(np.abs(grads[name] - num) / denom)
                assert rel < 1e-4, "tensor %s rel err %g" % (name, rel)
            assert time.time() - t0 < 60.0


class TestCriterion2Dsp:
    def test_dsp_fidelity(self):
        label = ("criterion 2: DSP fidelity (round-trip < 1e-6, tone <= 1 bin, "
                 "band cut >= 20 dB, < 1 min)")
        with criterion(label):
            t0 = time.time()
            cfg = StftConfig.for_rate(16000)
            clip = speechlike_utterance(nn.make_rng(6), duration=1.5)
            back = istft(stft(clip, cfg)).samples
            n = min(len(back), len(clip))
            assert np.max(np.abs(back[:n] - clip.samples[:n])) < 1e-6

            # resampler keeps a tone on its bin through 16k -> 8k -> 16k
            n = 16000
            t = np.arange(n) / 16000
            tone = AudioClip(0.4 * np.sin(2 * np.pi * 1000 * t), 16000)
            down = resample(tone, 8000)
            up = resample(down, 16000)
            spec_up = np.abs(np.fft.rfft(up.samples, n))
            bin_hz = 16000 / n
            assert abs(np.argmax(spec_up) * bin_hz - 1000) <= bin_hz

            rng = nn.make_rng(7)
            noise = AudioClip(0.3 * rng.uniform(-1, 1, 32000), 16000)
            out = degrade_bandwidth(noise, 8000)

            def band_power(x, lo, hi):
                p = np.abs(np.fft.rfft(x)) ** 2
                f = np.arange(len(p)) * 16000 / len(x)
                return np.sum(p[(f >= lo) & (f < hi)])

            drop = 10 * np.log10(band_power(out.samples, 4500, 7500) /
                                 band_power(noise.samples, 4500, 7500))
            assert drop <= -20
            assert time.time() - t0 < 60.0


class TestCriterion3Estoi:
    def test_estoi_oracle_properties(self):
        label = ("criterion 3: intelligibility metric (self >= 0.999, "
                 "monotone >= 0.01/step x10 seeds, prefix < 1e-6, < 2 min)")
        with criterion(label):
            t0 = time.time()
            clip = speechlike_utterance(nn.make_rng(8), duration=1.5)
            assert estoi(clip, clip) >= 0.999

            def with_noise(ref, snr_db, seed):
                rng = nn.make_rng(seed)
                sigma = np.sqrt(np.mean(ref.samples ** 2) / 10 ** (snr_db / 10))
                noisy = ref.samples + sigma * rng.standard_normal(len(ref))
                return AudioClip(np.clip(noisy, -1, 1), ref.sample_rate)

            for seed in range(10):
                ref = speechlike_utterance(nn.make_rng(200 + seed), duration=1.5)
                scores = [estoi(ref, with_noise(ref, snr, seed))
                          for snr in (30, 20, 10, 0)]
                for a, b in zip(scores, scores[1:]):
                    assert a - b >= 0.01, "seed %d: %s" % (seed, scores)

            deg = with_noise(clip, 15, 0)
            base = estoi(clip, deg)
            pad = np.zeros(16000)
            padded = estoi(
                AudioClip(np.concatenate([pad, clip.samples]), 16000),
                AudioClip(np.concatenate([pad, deg.samples]), 16000))
            assert abs(padded - base) < 1e-6
            assert time.time() - t0 < 120.0


class TestCriterion4Masking:
    def test_masking_contract(self):
        label = ("criterion 4: masking contract (identities bitwise, "
                 "fraction +/-0.02, KS vs U(0,0.2) at 1%)")
        with criterion(label):
            z = nn.make_rng(9).standard_normal((4, 100, 100)).astype(np.float32)
            ones = latent_mask(nn.make_rng(0), 0.0, z.shape)
            assert np.all(ones == 1.0)
            assert np.array_equal(z * ones, z)

            # inference never masks, whatever alpha_max the model carries
            cfg = SarConfig(n_mels=4, fc_hidden=5, n_fc_enc=2, blstm_hidden=3,
                            n_blstm=2, latent_dim=4, dec_hidden=5,
                            alpha_max=0.7)
            model = SarModel(cfg, seed=0)
            mel = nn.make_rng(1).standard_normal((6, 4))
            unmasked = model.forward(mel[None].astype(np.float32),
                                     np.ones((1, 6, 4), np.float32))
            assert np.array_equal(model.reconstruct(mel), unmasked[0])

            shape = (8, 100, 100)
            check_mask(latent_mask(nn.make_rng(1), 0.6, shape),
                       replayed_alphas(1, 0.6, shape))

            draws = np.array([sample_mask_ratio(nn.make_rng((10, i)), 0.2)
                              for i in range(10000)])
            ks = stats.kstest(draws, stats.uniform(loc=0.0, scale=0.2).cdf)
            assert ks.pvalue > 0.01, "KS p=%g" % ks.pvalue


@pytest.fixture(scope="module")
def desk_scale_report(tmp_path_factory):
    """Train AE and SAR on a 1000-utterance generated corpus and grade the
    three systems over the corruption grid.  Dominates suite runtime."""
    root = tmp_path_factory.mktemp("corpus5")
    make_corpus(root, 1000, seed=17, duration_range=(0.7, 1.2))
    out = tmp_path_factory.mktemp("out5")
    config = {
        "dataset_root": str(root),
        "split_seed": 101,
        "n_eval_utts": 50,
        "base_seed": 2024,
        "threads": 1,
        "gl_iterations": 60,
        "sar_config": {"fc_hidden": 128, "blstm_hidden": 128,
                       "latent_dim": 128, "dec_hidden": 128, "alpha_max": 0.2},
        "train": {"batch_size": 64, "lr": 1e-3, "max_epochs": 50,
                  "patience": 10},
        "train_seed": 2024,
        "output_dir": str(out),
    }
    table = run_table_experiment(config, train_first=True)
    emit_report(table, out)
    return table


@pytest.mark.slow
class TestCriterion5AntiDistortion:
    def test_directional_reproduction(self, desk_scale_report):
        label = ("criterion 5: anti-distortion reproduction "
                 "(mel best raw; sar > mel and sar >= ae when corrupted; "
                 "sar mask-0.2 degradation < half of mel's)")
        with criterion(label):
            t = desk_scale_report
            corrupted = ["mask_0.1", "mask_0.2", "snr_15", "snr_10"]
            for s in t.systems:
                row = ", ".join("%s=%.3f" % (c, t.mean(s, c))
                                for c in t.conditions)
                RESULTS.append("  %s: %s" % (s, row))
                print("  %s: %s" % (s, row), flush=True)

            assert t.mean("mel", "raw") > t.mean("ae", "raw")
            assert t.mean("mel", "raw") > t.mean("sar", "raw")
            for c in corrupted:
                assert t.mean("sar", c) > t.mean("mel", c), c
                assert t.mean("sar", c) >= t.mean("ae", c), c
            mel_drop = (t.mean("mel", "raw") - t.mean("mel", "mask_0.2")) \
                / t.mean("mel", "raw")
            sar_drop = (t.mean("sar", "raw") - t.mean("sar", "mask_0.2")) \
                / t.mean("sar", "raw")
            assert sar_drop < 0.5 * mel_drop, (sar_drop, mel_drop)


class TestCriterion6Overfit:
    def test_single_utterance_overfit(self):
        label = "criterion 6: overfit sanity (loss < 1e-3 within 2000 steps)"
        with criterion(label):
            mel = nn.make_rng(12).uniform(-2.0, 1.0, (10, 5))
            cfg = TrainConfig(batch_size=1, lr=2e-3, max_epochs=2000,
                              patience=2000, seed=0, alpha_max=0.0)
            small = SarConfig(n_mels=5, fc_hidden=16, n_fc_enc=2,
                              blstm_hidden=8, n_blstm=2, latent_dim=8,
                              dec_hidden=16, alpha_max=0.0)
            _, hist = train_autoencoder([mel], [mel], cfg, small)
            assert len(hist.epochs) <= 2000
            assert min(e[1] for e in hist.epochs) < 1e-3


class TestCriterion7Determinism:
    def test_reruns_reproduce_reports(self, small_corpus, quick_checkpoints,
                                      tmp_path):
        label = ("criterion 7: determinism (byte-identical report.json, "
                 "thread-count invariant aggregates)")
        with criterion(label):
            base = {
                "dataset_root": str(small_corpus),
                "split_seed": 1,
                "n_eval_utts": 2,
                "base_seed": 11,
                "threads": 1,
                "gl_iterations": 8,
                "checkpoints": quick_checkpoints,
                "output_dir": str(tmp_path),
            }
            blobs = []
            for run in ("a", "b"):
                d = tmp_path / run
                table = run_table_experiment(dict(base, output_dir=str(d)))
                blobs.append(open(emit_report(table, d)["json"], "rb").read())
            assert blobs[0] == blobs[1]

            threaded = run_table_experiment(dict(base, threads=3))
            single = load_report(tmp_path / "a" / "report.json")
            for s in threaded.systems:
                for c in threaded.conditions:
                    assert threaded.mean(s, c) == pytest.approx(
                        single.mean(s, c), abs=1e-12)
