import json
import re

import numpy as np
import pytest

from sarlab.cli import main
from sarlab.dsp import griffin_lim, load_mel, read_wav, write_wav
from sarlab.harness import build_manifest, front_end, load_mels
from sarlab.metrics import estoi
from sarlab.nn import make_rng
from sarlab.speechlike import speechlike_utterance


@pytest.fixture()
def two_second_wav(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(speechlike_utterance(make_rng(21), duration=2.0), path)
    return path


class TestFeatures:
    def test_frame_count(self, two_second_wav, tmp_path, capsys):
        out = tmp_path / "mels"
        rc = main(["features", "--in", str(two_second_wav), "--out", str(out)])
        assert rc == 0
        assert "processed 1 file(s)" in capsys.readouterr().out
        mel = load_mel(out / "clip.mel")
        # 2 s at 16 kHz, 16 ms hop: about 125 frames
        assert abs(mel.frames.shape[0] - 126) <= 1
        assert mel.frames.shape[1] == 80

    def test_missing_input(self, tmp_path):
        rc = main(["features", "--in", str(tmp_path / "nope.wav"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_rerun_identical_bytes(self, two_second_wav, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["features", "--in", str(two_second_wav), "--out", str(a)])
        main(["features", "--in", str(two_second_wav), "--out", str(b)])
        assert (a / "clip.mel").read_bytes() == (b / "clip.mel").read_bytes()

    def test_shared_stem_refused_before_writing(self, two_second_wav, tmp_path,
                                                capsys):
        # in/a/x.wav and in/b/x.wav would both become x.mel
        src = tmp_path / "in"
        for sub in ("a", "b", "c"):
            (src / sub).mkdir(parents=True)
        for name in ("a/x.wav", "b/x.wav", "c/y.wav"):
            (src / name).write_bytes(two_second_wav.read_bytes())
        out = tmp_path / "mels"
        rc = main(["features", "--in", str(src), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(src / "a" / "x.wav") in err and str(src / "b" / "x.wav") in err
        assert "y.wav" not in err
        assert not out.exists()

    def test_frames_are_the_training_features(self, small_corpus, tmp_path):
        # the CLI and training share one front end: .mel frames are the
        # float32 of what load_mels feeds the models
        out = tmp_path / "mels"
        assert main(["features", "--in", str(small_corpus), "--out", str(out)]) == 0
        manifest = build_manifest(small_corpus)
        ids = [e.utt_id for e in manifest.entries]
        for utt_id, frames in zip(ids, load_mels(manifest, ids)):
            mel = load_mel(out / (utt_id + ".mel"))
            assert np.array_equal(mel.frames, frames.astype(np.float32))


class TestTrain:
    def test_missing_data_dir(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2

    def test_tiny_run_and_determinism(self, small_corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sar_config": {"fc_hidden": 16, "blstm_hidden": 8,
                           "latent_dim": 8, "dec_hidden": 16},
            "train": {"batch_size": 8, "lr": 1e-3, "max_epochs": 2,
                      "patience": 5},
        }))
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / (name + ".ckpt")
            rc = main(["--seed", "3", "train", "--data", str(small_corpus),
                       "--config", str(cfg), "--out", str(out)])
            assert rc == 0
            assert out.exists()
            outs.append(out.with_suffix(".history.csv"))
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("config, key", [
        ({"max_epochs": 1}, "unknown train config key.*max_epochs"),
        ({"train": {"max_epochs": 0}}, "max_epochs must be >= 1"),
        ({"sar_config": {"fc_hidden": "8"}}, "fc_hidden must be an integer"),
        ({"train_limit": 0}, "train_limit must be an integer >= 1"),
    ])
    def test_bad_config_refused_before_writing(self, small_corpus, tmp_path,
                                               capsys, config, key):
        # the schedule lives under "train", as in an experiment config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out" / "m.ckpt"
        rc = main(["train", "--data", str(small_corpus), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        assert re.search(key, capsys.readouterr().err)
        assert not out.parent.exists()

    @pytest.mark.parametrize("config, flag, want", [
        ({"alpha_max": 0.0}, [], "0"),      # the config's value, not 0.2
        ({"alpha_max": 0.0}, ["--alpha-max", "0.1"], "0.1"),  # flag wins
        ({}, [], "0.2"),                    # neither: SarConfig's default
    ])
    def test_alpha_max_from_flag_else_config(self, small_corpus, tmp_path,
                                             config, flag, want):
        from sarlab.model import load_checkpoint
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sar_config": dict(config, fc_hidden=4, n_fc_enc=1, blstm_hidden=2,
                               n_blstm=1, latent_dim=2, dec_hidden=4),
            "train": {"max_epochs": 1}, "train_limit": 4}))
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(small_corpus), "--config", str(cfg),
                   "--out", str(out)] + flag)
        assert rc == 0
        assert load_checkpoint(out).config.alpha_max == float(want)
        rows = out.with_suffix(".history.csv").read_text().splitlines()
        assert {row.split(",")[3] for row in rows[1:]} == {want}

    def test_alpha_max_refused_before_reading(self, tmp_path, capsys):
        # the corpus does not exist: the flag must fail before it is read
        out = tmp_path / "out" / "m.ckpt"
        rc = main(["train", "--data", str(tmp_path / "absent"),
                   "--alpha-max", "1.5", "--out", str(out)])
        assert rc == 2
        assert "alpha_max must be in [0, 1)" in capsys.readouterr().err
        assert not out.parent.exists()


class TestCorrupt:
    def test_none_byte_identical(self, two_second_wav, tmp_path):
        out = tmp_path / "copy.wav"
        rc = main(["corrupt", "--in", str(two_second_wav),
                   "--spec", '{"kind": "none"}', "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == two_second_wav.read_bytes()

    def test_none_replaces_out_whole(self, two_second_wav, tmp_path):
        # a reader of the old file keeps reading it: `--out` is replaced,
        # not rewritten in place
        out = tmp_path / "copy.wav"
        out.write_bytes(b"old bytes")
        with open(out, "rb") as reader:
            rc = main(["corrupt", "--in", str(two_second_wav),
                       "--spec", '{"kind": "none"}', "--out", str(out)])
            assert rc == 0
            assert reader.read() == b"old bytes"
        assert out.read_bytes() == two_second_wav.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.wav", "copy.wav"]

    def test_band_limit_on_mel_rejected(self, two_second_wav, tmp_path):
        mels = tmp_path / "mels"
        main(["features", "--in", str(two_second_wav), "--out", str(mels)])
        rc = main(["corrupt", "--in", str(mels / "clip.mel"),
                   "--spec", '{"kind": "band_limit", "intermediate_rate": 8000}',
                   "--out", str(tmp_path / "x.mel")])
        assert rc == 2

    def test_feature_kind_on_wav_rejected(self, two_second_wav, tmp_path):
        out = tmp_path / "x.wav"
        rc = main(["corrupt", "--in", str(two_second_wav),
                   "--spec", '{"kind": "mask", "alpha": 0.1}', "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("name, spec", [
        ("nope.wav", '{"kind": "none"}'),
        ("nope.mel", '{"kind": "mask", "alpha": 0.1}'),
        ("nope.wav", '{"kind": "band_limit", "intermediate_rate": 8000}')])
    def test_missing_input(self, tmp_path, capsys, name, spec):
        out = tmp_path / "x.out"
        rc = main(["corrupt", "--in", str(tmp_path / name), "--spec", spec,
                   "--out", str(out)])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, key", [
        ('{"kind": "mask", "alpha": "0.1"}', "alpha must be a number"),
        ('{"kind": "white_noise", "snr_db": "15"}', "snr_db must be a number"),
        ('{"kind": "none", "seed": true}', "seed must be an integer"),
    ])
    def test_wrong_type_refused_before_reading(self, tmp_path, capsys, spec, key):
        out = tmp_path / "x.out"
        rc = main(["corrupt", "--in", str(tmp_path / "absent.mel"),
                   "--spec", spec, "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_white_noise_realized_snr(self, two_second_wav, tmp_path, capsys):
        mels = tmp_path / "mels"
        main(["features", "--in", str(two_second_wav), "--out", str(mels)])
        capsys.readouterr()
        rc = main(["corrupt", "--in", str(mels / "clip.mel"),
                   "--spec", '{"kind": "white_noise", "snr_db": 15, "seed": 4}',
                   "--out", str(tmp_path / "noisy.mel")])
        assert rc == 0
        line = capsys.readouterr().out
        realized = float(line.split("realized SNR:")[1].split("dB")[0])
        assert abs(realized - 15.0) <= 0.5

    def test_spec_from_file(self, two_second_wav, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "band_limit", "intermediate_rate": 8000}')
        out = tmp_path / "bl.wav"
        rc = main(["corrupt", "--in", str(two_second_wav),
                   "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        assert len(read_wav(out)) == len(read_wav(two_second_wav))


class TestSynth:
    def test_via_mel(self, two_second_wav, tmp_path):
        out = tmp_path / "synth.wav"
        rc = main(["synth", "--wav", str(two_second_wav), "--out", str(out),
                   "--gl-iterations", "12"])
        assert rc == 0
        ref = read_wav(two_second_wav)
        assert estoi(ref, read_wav(out)) > 0.5

    def test_sar_requires_ckpt(self, two_second_wav, tmp_path):
        rc = main(["synth", "--wav", str(two_second_wav), "--via", "sar",
                   "--out", str(tmp_path / "x.wav")])
        assert rc == 2

    def test_mel_refuses_ckpt(self, two_second_wav, tmp_path, capsys):
        out = tmp_path / "x.wav"
        rc = main(["synth", "--wav", str(two_second_wav), "--ckpt",
                   str(tmp_path / "m.ckpt"), "--out", str(out),
                   "--gl-iterations", "2"])
        assert rc == 2
        assert "--via mel takes no --ckpt" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_names_the_given_path(self, two_second_wav,
                                                 tmp_path, capsys):
        out = tmp_path / "absent" / "x.wav"
        rc = main(["synth", "--wav", str(two_second_wav), "--out", str(out),
                   "--gl-iterations", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert repr(str(out)) in err and ".tmp" not in err

    def test_both_inputs_rejected(self, two_second_wav, tmp_path):
        rc = main(["synth", "--wav", str(two_second_wav),
                   "--mel", str(two_second_wav),
                   "--out", str(tmp_path / "x.wav")])
        assert rc == 2

    def test_via_sar_checkpoint(self, small_corpus, quick_checkpoints, tmp_path):
        wav = sorted(small_corpus.rglob("*.wav"))[0]
        out = tmp_path / "sar.wav"
        rc = main(["synth", "--wav", str(wav), "--via", "sar",
                   "--ckpt", quick_checkpoints["sar"], "--out", str(out),
                   "--gl-iterations", "10"])
        assert rc == 0
        synth = read_wav(wav), read_wav(out)
        # toy checkpoint: only check the pipeline produced sane audio
        assert abs(len(synth[1]) - len(synth[0])) <= 512
        assert np.all(np.isfinite(synth[1].samples))
        assert -1.0 <= estoi(*synth) <= 1.0


    def test_via_ae_checkpoint_with_40_mel_bands(self, two_second_wav, tmp_path):
        # the WAV's mel must be as wide as the checkpoint's input
        from sarlab.model import SarConfig, SarModel, save_checkpoint
        ckpt = tmp_path / "m40.ckpt"
        save_checkpoint(SarModel(SarConfig(n_mels=40, fc_hidden=8, n_fc_enc=1,
                                           blstm_hidden=4, n_blstm=1,
                                           latent_dim=4, dec_hidden=8), seed=3),
                        ckpt)
        out = tmp_path / "ae40.wav"
        rc = main(["synth", "--wav", str(two_second_wav), "--via", "ae",
                   "--ckpt", str(ckpt), "--out", str(out),
                   "--gl-iterations", "4"])
        assert rc == 0
        ref, synth = read_wav(two_second_wav), read_wav(out)
        assert abs(len(synth) - len(ref)) <= 256


class TestSynthFromMelFile:
    """`synth --mel` inverts a `.mel` with the front end its header names."""

    iterations = 6

    def features_then_synth(self, tmp_path, clip, n_mels, *extra):
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        write_wav(clip, wav)
        assert main(["features", "--in", str(wav), "--out", str(tmp_path),
                     "--n-mels", str(n_mels)]) == 0
        mel_path = tmp_path / "in.mel"
        rc = main(["synth", "--mel", str(mel_path), "--out", str(out),
                   "--gl-iterations", str(self.iterations), *extra])
        return rc, mel_path, out

    def expected_wav(self, tmp_path, mel_path):
        mel = load_mel(mel_path)
        cfg, bank = front_end(mel.sample_rate, mel.n_mels)
        path = tmp_path / "expected.wav"
        write_wav(griffin_lim(mel, cfg, bank, iterations=self.iterations), path)
        return cfg, path

    @pytest.mark.parametrize("rate, n_mels", [(16000, 80), (22050, 40)])
    def test_matches_library(self, tmp_path, rate, n_mels):
        clip = speechlike_utterance(make_rng(5), sample_rate=rate, duration=1.0)
        rc, mel_path, out = self.features_then_synth(tmp_path, clip, n_mels)
        assert rc == 0
        assert load_mel(mel_path).n_mels == n_mels
        _, expected = self.expected_wav(tmp_path, mel_path)
        assert out.read_bytes() == expected.read_bytes()

    def test_via_sar(self, small_corpus, quick_checkpoints, tmp_path):
        clip = read_wav(sorted(small_corpus.rglob("*.wav"))[0])
        rc, _, out = self.features_then_synth(
            tmp_path, clip, 80, "--via", "sar", "--ckpt", quick_checkpoints["sar"])
        assert rc == 0
        synth = read_wav(out)
        assert abs(len(synth) - len(clip)) <= 256
        assert np.all(np.isfinite(synth.samples))

    @pytest.mark.parametrize("rate, hop", [(16000, 10 ** 9), (16000, 128),
                                           (10 ** 12, 256), (96000, 256)])
    def test_header_outside_the_front_end_refused(self, tmp_path, rate, hop,
                                                  capsys):
        mel_path = tmp_path / "odd.mel"
        mel_path.write_bytes(b"SARMEL1 2 80 %d %d\n" % (rate, hop) + bytes(640))
        rc = main(["synth", "--mel", str(mel_path), "--out", str(tmp_path / "o.wav")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_96_khz_needs_no_flag(self, tmp_path):
        # the 16 ms hop (1536 samples) is longer than 1024, so the front
        # end takes a 2048-point FFT
        clip = speechlike_utterance(make_rng(6), sample_rate=96000, duration=0.5)
        rc, mel_path, out = self.features_then_synth(tmp_path, clip, 80)
        assert rc == 0
        cfg, expected = self.expected_wav(tmp_path, mel_path)
        assert (cfg.fft_size, cfg.hop) == (2048, 1536)
        assert out.read_bytes() == expected.read_bytes()
        assert abs(len(read_wav(out)) - len(clip)) < 1536


class TestEstoiCmd:
    def test_self_score(self, two_second_wav, capsys):
        rc = main(["estoi", "--ref", str(two_second_wav),
                   "--deg", str(two_second_wav)])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) >= 0.999

    def test_rate_mismatch(self, two_second_wav, tmp_path):
        clip = read_wav(two_second_wav)
        other = tmp_path / "8k.wav"
        from sarlab.dsp import AudioClip
        write_wav(AudioClip(clip.samples, 8000), other)
        rc = main(["estoi", "--ref", str(two_second_wav), "--deg", str(other)])
        assert rc == 2


class TestExperimentCmd:
    def write_config(self, small_corpus, checkpoints, out_dir, path):
        path.write_text(json.dumps({
            "dataset_root": str(small_corpus),
            "split_seed": 1,
            "n_eval_utts": 2,
            "base_seed": 11,
            "threads": 1,
            "gl_iterations": 8,
            "checkpoints": checkpoints,
            "output_dir": str(out_dir),
        }))

    def test_full_run(self, small_corpus, quick_checkpoints, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self.write_config(small_corpus, quick_checkpoints, tmp_path, cfg)
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == 0
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 15
        assert (tmp_path / "report.json").exists()

    def test_missing_checkpoints_without_train(self, small_corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        self.write_config(small_corpus, {}, tmp_path, cfg)
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == 2

    def test_threads_precedence(self, tmp_path, monkeypatch):
        """--threads, then the config's "threads", then the CPU count."""
        import os
        import sarlab.harness as harness
        seen = []

        def fake_run(config, train_first=False):
            seen.append(config["threads"])
            return harness.ReportTable(systems=[], conditions=[])

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness, "run_table_experiment", fake_run)
        with_threads = tmp_path / "with.json"
        with_threads.write_text(json.dumps({"threads": 1,
                                            "output_dir": str(tmp_path)}))
        without = tmp_path / "without.json"
        without.write_text(json.dumps({"output_dir": str(tmp_path)}))
        assert main(["experiment", "--config", str(with_threads)]) == 0
        assert main(["--threads", "3", "experiment",
                     "--config", str(with_threads)]) == 0
        assert main(["experiment", "--config", str(without)]) == 0
        assert seen == [1, 3, 4]

    @pytest.mark.parametrize("config, key", [
        ({"gl_iteration": 8}, "unknown experiment config key.*gl_iteration"),
        ({"train_first": True}, "unknown experiment config key.*train_first"),
        ([], "JSON object"),
        ({"systems": "mel"}, "systems must be a list"),
        ({"gl_iterations": 0}, "gl_iterations must be an integer >= 1"),
        ({"n_eval_utts": 0}, "n_eval_utts must be an integer >= 1"),
        ({"threads": "2"}, "threads must be an integer >= 1"),
        ({"train_limit": 0}, "train_limit must be an integer >= 1"),
        ({"sar_config": {"fc_hidden": "8"}}, "fc_hidden must be an integer"),
        ({"conditions": [{"kind": "mask", "alpha": "0.1"}]},
         "alpha must be a number"),
        ({"dataset_root": 5}, "dataset_root must be a string"),
        ({"output_dir": 5}, "output_dir must be a string"),
        ({"checkpoints": "abc"}, "checkpoints must be a JSON object"),
        ({"checkpoints": {"sarr": "x.ckpt"}}, "unknown checkpoints key.*sarr"),
        ({"checkpoints": {"ae": 7}}, "checkpoints.ae must be a string"),
        ({"systems": ["mel", "mel"]}, "systems lists mel more than once"),
        ({"systems": []}, "systems must name at least one"),
    ])
    def test_bad_config_refused_before_writing(self, small_corpus, tmp_path,
                                               capsys, config, key):
        out_dir = tmp_path / "out"
        if isinstance(config, dict):
            config = dict({"dataset_root": str(small_corpus),
                           "output_dir": str(out_dir)}, **config)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["experiment", "--config", str(cfg), "--train-first"])
        assert rc == 2
        assert re.search(key, capsys.readouterr().err)
        assert not out_dir.exists()

    def test_zero_threads_refused(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset_root": str(tmp_path / "absent"),
                                   "systems": ["mel"],
                                   "output_dir": str(out_dir)}))
        rc = main(["--threads", "0", "experiment", "--config", str(cfg)])
        assert rc == 2
        assert "threads must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_rerun_identical_json(self, small_corpus, quick_checkpoints,
                                  tmp_path):
        cfg = tmp_path / "cfg.json"
        self.write_config(small_corpus, quick_checkpoints, tmp_path, cfg)
        main(["experiment", "--config", str(cfg)])
        first = (tmp_path / "report.json").read_bytes()
        main(["experiment", "--config", str(cfg)])
        assert (tmp_path / "report.json").read_bytes() == first


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
