import json

import pytest

from sarlab.corruption import CorruptionSpec
from sarlab.dsp import StftConfig, griffin_lim, mel_filterbank, mel_spectrogram, read_wav, write_wav
from sarlab.harness import (
    EvalSystem,
    build_manifest,
    derive_seed,
    emit_report,
    evaluate_system,
    load_report,
    run_table_experiment,
    split_dataset,
)
from sarlab.metrics import estoi
from sarlab.nn import make_rng
from sarlab.speechlike import speechlike_utterance


class TestManifest:
    def test_lexical_order_and_durations(self, tmp_path):
        for name, dur in (("b_utt", 0.5), ("a_utt", 2.0), ("c_utt", 1.0)):
            clip = speechlike_utterance(make_rng(1), duration=dur)
            write_wav(clip, tmp_path / (name + ".wav"))
        m = build_manifest(tmp_path)
        assert [e.utt_id for e in m.entries] == ["a_utt", "b_utt", "c_utt"]
        assert m.by_id("a_utt").duration == pytest.approx(2.0, abs=1e-4)

    def test_recursive_scan(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        write_wav(speechlike_utterance(make_rng(2), duration=0.5), sub / "x.wav")
        m = build_manifest(tmp_path)
        assert len(m.entries) == 1

    def test_empty_dir_error(self, tmp_path):
        with pytest.raises(ValueError, match="no readable WAV"):
            build_manifest(tmp_path)

    def test_by_id(self):
        from sarlab.harness import Manifest, ManifestEntry
        m = Manifest([ManifestEntry("a", "a.wav", 1.0),
                      ManifestEntry("b", "b.wav", 2.0)])
        assert m.by_id("b").path == "b.wav"
        with pytest.raises(KeyError):
            m.by_id("c")
        with pytest.raises(ValueError, match="duplicate"):
            Manifest([ManifestEntry("a", "a.wav", 1.0),
                      ManifestEntry("a", "x/a.wav", 1.0)])

    def test_unreadable_skipped_with_warning(self, tmp_path, caplog):
        write_wav(speechlike_utterance(make_rng(3), duration=0.5),
                  tmp_path / "good.wav")
        (tmp_path / "bad.wav").write_bytes(b"not a riff file")
        with caplog.at_level("WARNING"):
            m = build_manifest(tmp_path)
        assert [e.utt_id for e in m.entries] == ["good"]
        assert any("skipping" in r.message for r in caplog.records)


class TestSplit:
    def make_manifest(self, n):
        from sarlab.harness import Manifest, ManifestEntry
        return Manifest([ManifestEntry("u%03d" % i, "u%03d.wav" % i, 1.0)
                         for i in range(n)])

    def test_90_5_5(self):
        s = split_dataset(self.make_manifest(100), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (90, 5, 5)

    def test_small_uses_ceil(self):
        s = split_dataset(self.make_manifest(21), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (17, 2, 2)

    def test_disjoint_and_complete(self):
        s = split_dataset(self.make_manifest(40), seed=3)
        all_ids = s.train + s.val + s.test
        assert len(all_ids) == 40
        assert len(set(all_ids)) == 40

    def test_deterministic_per_seed(self):
        m = self.make_manifest(50)
        a, b = split_dataset(m, seed=9), split_dataset(m, seed=9)
        assert a.train == b.train and a.test == b.test
        c = split_dataset(m, seed=10)
        assert c.test != a.test

    def test_too_few(self):
        with pytest.raises(ValueError, match="at least 20"):
            split_dataset(self.make_manifest(19), seed=0)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "mel", "raw", "u0") == derive_seed(1, "mel", "raw", "u0")

    def test_sensitive_to_each_field(self):
        base = derive_seed(1, "mel", "raw", "u0")
        assert derive_seed(2, "mel", "raw", "u0") != base
        assert derive_seed(1, "sar", "raw", "u0") != base
        assert derive_seed(1, "mel", "mask_0.2", "u0") != base
        assert derive_seed(1, "mel", "raw", "u1") != base

    def test_fits_in_64_bits(self):
        s = derive_seed(123, "ae", "snr_15", "utt0042")
        assert 0 <= s < 2 ** 64


class TestEvaluateSystem:
    def test_mel_raw_matches_direct_pipeline(self, small_corpus):
        m = build_manifest(small_corpus)
        entry = m.entries[0]
        utts = [(entry.utt_id, entry.path)]
        scores = evaluate_system(EvalSystem("mel"), CorruptionSpec(kind="none"),
                                 utts, gl_iterations=12)
        clip = read_wav(entry.path)
        cfg = StftConfig.for_rate(clip.sample_rate)
        bank = mel_filterbank(clip.sample_rate, cfg.fft_size, 80)
        synth = griffin_lim(mel_spectrogram(clip, cfg, bank), cfg, bank,
                            iterations=12)
        assert scores[0] == pytest.approx(estoi(clip, synth), abs=1e-9)

    def test_mask_zero_equals_raw(self, small_corpus):
        m = build_manifest(small_corpus)
        utts = [(e.utt_id, e.path) for e in m.entries[:2]]
        raw = evaluate_system(EvalSystem("mel"), CorruptionSpec(kind="none"),
                              utts, gl_iterations=8)
        masked = evaluate_system(EvalSystem("mel"),
                                 CorruptionSpec(kind="mask", alpha=0.0),
                                 utts, gl_iterations=8)
        assert raw == pytest.approx(masked, abs=1e-9)

    def test_score_per_utterance(self, small_corpus, quick_checkpoints):
        m = build_manifest(small_corpus)
        utts = [(e.utt_id, e.path) for e in m.entries[:3]]
        scores = evaluate_system(EvalSystem("sar", quick_checkpoints["sar"]),
                                 CorruptionSpec(kind="mask", alpha=0.1),
                                 utts, gl_iterations=8)
        assert len(scores) == 3
        # correlation-based score: can dip below zero for bad synthesis
        assert all(-1.0 <= s <= 1.0 for s in scores)

    def test_threads_match_single(self, small_corpus):
        m = build_manifest(small_corpus)
        utts = [(e.utt_id, e.path) for e in m.entries[:4]]
        cspec = CorruptionSpec(kind="white_noise", snr_db=15.0)
        one = evaluate_system(EvalSystem("mel"), cspec, utts, gl_iterations=8,
                              threads=1)
        many = evaluate_system(EvalSystem("mel"), cspec, utts, gl_iterations=8,
                               threads=3)
        assert one == pytest.approx(many, abs=1e-12)


def toy_config(corpus, checkpoints, out_dir, **extra):
    cfg = {
        "dataset_root": str(corpus),
        "split_seed": 1,
        "n_eval_utts": 2,
        "base_seed": 11,
        "threads": 1,
        "gl_iterations": 8,
        "checkpoints": checkpoints,
        "output_dir": str(out_dir),
    }
    cfg.update(extra)
    return cfg


class TestExperiment:
    def test_full_grid(self, small_corpus, quick_checkpoints, tmp_path):
        table = run_table_experiment(
            toy_config(small_corpus, quick_checkpoints, tmp_path))
        assert table.systems == ["mel", "ae", "sar"]
        assert table.conditions == ["raw", "mask_0.1", "mask_0.2",
                                    "snr_15", "snr_10"]
        assert len(table.scores) == 15
        for key in table.scores:
            mean, std, n = table.cell(*key)
            assert n == 2
            assert -1.0 <= mean <= 1.0

    def test_missing_checkpoint_errors(self, small_corpus, tmp_path):
        cfg = toy_config(small_corpus, {}, tmp_path)
        with pytest.raises(ValueError, match="missing checkpoints"):
            run_table_experiment(cfg)

    def test_train_first_trains_only_missing(self, small_corpus,
                                             quick_checkpoints, tmp_path):
        tiny = {"fc_hidden": 8, "n_fc_enc": 1, "blstm_hidden": 4,
                "n_blstm": 1, "latent_dim": 4, "dec_hidden": 8}
        cfg = toy_config(small_corpus, {"ae": quick_checkpoints["ae"]},
                         tmp_path, systems=["ae", "sar"],
                         conditions=[{"kind": "none"}], train_first=True,
                         train_limit=4, sar_config=tiny,
                         train={"max_epochs": 1})
        table = run_table_experiment(cfg)
        written = sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
        assert written == ["sar.ckpt", "sar_history.csv"]
        assert list(table.scores) == [("ae", "raw"), ("sar", "raw")]

    def test_train_first_with_40_mel_bands(self, small_corpus, tmp_path):
        # the AE/SAR cells need a mel bank as wide as the trained models
        tiny = {"n_mels": 40, "fc_hidden": 8, "n_fc_enc": 1,
                "blstm_hidden": 4, "n_blstm": 1, "latent_dim": 4,
                "dec_hidden": 8}
        cfg = toy_config(small_corpus, {}, tmp_path, train_first=True,
                         train_limit=4, sar_config=tiny,
                         train={"max_epochs": 1})
        table = run_table_experiment(cfg)
        assert len(table.scores) == 15
        for cell in table.scores.values():
            assert len(cell) == 2
            assert all(-1.0 <= s <= 1.0 for s in cell.values())

    def test_mel_only_needs_no_checkpoint(self, small_corpus, tmp_path):
        cfg = toy_config(small_corpus, {}, tmp_path, systems=["mel"],
                         conditions=[{"kind": "none"}])
        table = run_table_experiment(cfg)
        assert list(table.scores) == [("mel", "raw")]


class TestReportIO:
    def make_table(self, small_corpus, quick_checkpoints, out_dir):
        cfg = toy_config(small_corpus, quick_checkpoints, out_dir,
                         systems=["mel", "sar"],
                         conditions=[{"kind": "none"},
                                     {"kind": "mask", "alpha": 0.2}])
        return run_table_experiment(cfg)

    def test_csv_rows(self, small_corpus, quick_checkpoints, tmp_path):
        table = self.make_table(small_corpus, quick_checkpoints, tmp_path)
        written = emit_report(table, tmp_path)
        lines = open(written["csv"]).read().strip().splitlines()
        assert lines[0] == "system,condition,mean,std,n"
        assert len(lines) == 1 + 2 * 2
        sys0, cond0, mean0, _, n0 = lines[1].split(",")
        assert (sys0, cond0, n0) == ("mel", "raw", "2")
        assert float(mean0) == pytest.approx(table.mean("mel", "raw"), abs=1e-9)

    def test_json_round_trip(self, small_corpus, quick_checkpoints, tmp_path):
        table = self.make_table(small_corpus, quick_checkpoints, tmp_path)
        written = emit_report(table, tmp_path)
        loaded = load_report(written["json"])
        assert loaded.systems == table.systems
        assert loaded.conditions == table.conditions
        for key in table.scores:
            assert loaded.mean(*key) == pytest.approx(table.mean(*key), abs=1e-12)

    def test_json_deterministic_bytes(self, small_corpus, quick_checkpoints,
                                      tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        ta = self.make_table(small_corpus, quick_checkpoints, a_dir)
        tb = self.make_table(small_corpus, quick_checkpoints, b_dir)
        pa = emit_report(ta, a_dir)["json"]
        pb = emit_report(tb, b_dir)["json"]
        ja = json.loads(open(pa).read())
        jb = json.loads(open(pb).read())
        # output_dir differs between runs; everything else must match
        ja["metadata"].pop("checkpoints")
        jb["metadata"].pop("checkpoints")
        assert ja == jb
