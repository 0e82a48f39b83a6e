import ast
import json
import re
import struct
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh
from sarlab.corruption import CorruptionSpec, corrupt
from sarlab.dsp import (MelSpectrogram, StftConfig, griffin_lim, mel_filterbank,
                        mel_spectrogram, read_wav, save_mel, write_wav)
from sarlab.harness import (
    DEFAULT_CONDITIONS,
    EvalSystem,
    ReportTable,
    build_manifest,
    derive_seed,
    emit_report,
    evaluate_system,
    load_report,
    run_table_experiment,
    split_dataset,
)
from sarlab.metrics import estoi
from sarlab.model import (SarConfig, SarModel, TrainingHistory, load_checkpoint,
                          save_checkpoint)
from sarlab.nn import make_rng
from sarlab.speechlike import speechlike_utterance

ROOT = Path(__file__).resolve().parents[1]


def write_riff(path, fmt, data=b"\0\0" * 800):
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"\0" * (len(fmt) & 1) + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


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
        with pytest.raises(ValueError,
                           match="duplicate utterance id 'a': a.wav and x/a.wav"):
            Manifest([ManifestEntry("a", "a.wav", 1.0),
                      ManifestEntry("b", "b.wav", 1.0),
                      ManifestEntry("a", "x/a.wav", 1.0)])

    def test_shared_stem_names_both_paths(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_wav(speechlike_utterance(make_rng(4), duration=0.3),
                      tmp_path / sub / "x.wav")
        with pytest.raises(ValueError, match="duplicate utterance id 'x'") as err:
            build_manifest(tmp_path)
        assert str(tmp_path / "a" / "x.wav") in str(err.value)
        assert str(tmp_path / "b" / "x.wav") in str(err.value)

    def test_unreadable_skipped_with_warning(self, tmp_path, caplog):
        write_wav(speechlike_utterance(make_rng(3), duration=0.5),
                  tmp_path / "good.wav")
        (tmp_path / "bad.wav").write_bytes(b"not a riff file")
        # fmt chunks that cannot give a duration: too short, zero rate,
        # zero block_align
        write_riff(tmp_path / "short_fmt.wav", struct.pack("<HHI", 1, 1, 16000))
        write_riff(tmp_path / "zero_rate.wav",
                   struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16))
        write_riff(tmp_path / "zero_align.wav",
                   struct.pack("<HHIIHH", 1, 1, 16000, 32000, 0, 16))
        with caplog.at_level("WARNING"):
            m = build_manifest(tmp_path)
        assert [e.utt_id for e in m.entries] == ["good"]
        skipped = [r.getMessage() for r in caplog.records
                   if "skipping" in r.getMessage()]
        assert len(skipped) == 4


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


# seven conditions, so three utterances give an odd number of cells
GRID_CONDITIONS = DEFAULT_CONDITIONS + [
    {"kind": "band_limit", "intermediate_rate": 8000},
    {"kind": "band_limit", "intermediate_rate": 4000}]


def single_cell(system, cspec, utt_id, path, base_seed, gl_iterations):
    """One cell the direct way: read, [band_limit], mel, [encode], corrupt,
    [decode], Griffin-Lim, ESTOI."""
    clip = read_wav(path)
    local = replace(cspec, seed=derive_seed(base_seed, system.kind,
                                            cspec.label, utt_id))
    model = load_checkpoint(system.checkpoint) if system.checkpoint else None
    n_mels = model.config.n_mels if model is not None else 80
    cfg = StftConfig.for_rate(clip.sample_rate)
    bank = mel_filterbank(clip.sample_rate, cfg.fft_size, n_mels)
    audio = corrupt(clip, local) if local.kind == "band_limit" else clip
    feats = mel_spectrogram(audio, cfg, bank).frames
    if model is not None:
        feats = model.encode(feats)
    if local.kind in ("mask", "white_noise"):
        feats = corrupt(feats, local)
    if model is not None:
        feats = model.decode(feats)
    synth = griffin_lim(MelSpectrogram(feats, clip.sample_rate, cfg.hop), cfg,
                        bank, iterations=gl_iterations)
    return estoi(clip, synth)


class TestEvaluateSystem:
    def test_mel_raw_matches_direct_pipeline(self, small_corpus):
        m = build_manifest(small_corpus)
        entry = m.entries[0]
        utts = [(entry.utt_id, entry.path)]
        cells = evaluate_system(EvalSystem("mel"), [CorruptionSpec(kind="none")],
                                utts, gl_iterations=12)
        assert list(cells) == ["raw"] and list(cells["raw"]) == [entry.utt_id]
        clip = read_wav(entry.path)
        cfg = StftConfig.for_rate(clip.sample_rate)
        bank = mel_filterbank(clip.sample_rate, cfg.fft_size, 80)
        synth = griffin_lim(mel_spectrogram(clip, cfg, bank), cfg, bank,
                            iterations=12)
        assert cells["raw"][entry.utt_id] == pytest.approx(estoi(clip, synth),
                                                           abs=1e-9)

    def test_grid_equals_single_cell_pipeline(self, small_corpus,
                                              quick_checkpoints):
        # every system x condition, band_limit included, against the
        # pipeline run one cell at a time; 3 x 7 cells over the grading
        # threads
        entries = build_manifest(small_corpus).entries[:3]
        utts = [(e.utt_id, e.path) for e in entries]
        conditions = [CorruptionSpec.from_dict(d) for d in GRID_CONDITIONS]
        for system in (EvalSystem("mel"),
                       EvalSystem("ae", quick_checkpoints["ae"]),
                       EvalSystem("sar", quick_checkpoints["sar"])):
            cells = evaluate_system(system, conditions, utts, base_seed=5,
                                    gl_iterations=6)
            assert list(cells) == [c.label for c in conditions]
            for cspec in conditions:
                assert list(cells[cspec.label]) == [u for u, _ in utts]
                for e in entries:
                    want = single_cell(system, cspec, e.utt_id, e.path, 5, 6)
                    assert cells[cspec.label][e.utt_id] == want, \
                        (system.kind, cspec.label, e.utt_id)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cell_error_raised_after_every_cell(self, small_corpus, tmp_path,
                                                monkeypatch, threads):
        # ESTOI refuses the 0.2 s clip of the middle utterance
        entries = build_manifest(small_corpus).entries[:2]
        short = tmp_path / "short.wav"
        write_wav(speechlike_utterance(make_rng(6), sample_rate=16000,
                                       duration=0.2), short)
        utts = [(entries[0].utt_id, entries[0].path), ("short", str(short)),
                (entries[1].utt_id, entries[1].path)]
        graded = []

        def recording_estoi(clip, synth):
            score = estoi(clip, synth)
            graded.append(score)
            return score

        monkeypatch.setattr("sarlab.harness.estoi", recording_estoi)
        outcome = {}

        def run():
            try:
                evaluate_system(EvalSystem("mel"), [CorruptionSpec(kind="none")],
                                utts, gl_iterations=6, threads=threads)
            except ValueError as exc:
                outcome["error"] = exc
                outcome["graded"] = len(graded)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "evaluate_system hung"
        assert "too short" in str(outcome["error"])
        assert outcome["graded"] == 2  # both other cells were graded

    @pytest.mark.parametrize("threads", [1, 3])
    def test_decoded_cells_wait_in_a_bounded_buffer(self, small_corpus,
                                                    monkeypatch, threads):
        # grading is made the bottleneck; each mask cell is decoded with one
        # corrupt call, so calls minus graded cells is what waits
        entries = build_manifest(small_corpus).entries[:6]
        utts = [(e.utt_id, e.path) for e in entries]
        conditions = [CorruptionSpec(kind="mask", alpha=a)
                      for a in (0.1, 0.2, 0.3, 0.4)]
        lock = threading.Lock()
        counts = {"decoded": 0, "graded": 0, "waiting": 0}

        def counting_corrupt(x, spec):
            with lock:
                counts["decoded"] += 1
                counts["waiting"] = max(counts["waiting"],
                                        counts["decoded"] - counts["graded"])
            return corrupt(x, spec)

        def slow_estoi(clip, synth):
            time.sleep(0.02)
            score = estoi(clip, synth)
            with lock:
                counts["graded"] += 1
            return score

        monkeypatch.setattr("sarlab.harness.corrupt", counting_corrupt)
        monkeypatch.setattr("sarlab.harness.estoi", slow_estoi)
        evaluate_system(EvalSystem("mel"), conditions, utts, gl_iterations=2,
                        threads=threads)
        assert counts["graded"] == len(utts) * len(conditions)
        # two per grading thread, plus the cell the calling thread decodes
        assert counts["waiting"] <= 2 * max(2, threads) + 1

    @pytest.mark.parametrize("threads", [1, 3])
    def test_model_work_runs_on_the_calling_thread(self, small_corpus,
                                                   quick_checkpoints,
                                                   monkeypatch, threads):
        entries = build_manifest(small_corpus).entries[:4]
        utts = [(e.utt_id, e.path) for e in entries]
        callers = []

        def on_thread(method):
            def call(self, x):
                callers.append(threading.get_ident())
                return method(self, x)
            return call

        for name in ("encode", "decode"):
            monkeypatch.setattr(SarModel, name, on_thread(getattr(SarModel, name)))
        evaluate_system(EvalSystem("sar", quick_checkpoints["sar"]),
                        [CorruptionSpec(kind="none"),
                         CorruptionSpec(kind="mask", alpha=0.2)],
                        utts, gl_iterations=2, threads=threads)
        assert len(callers) == len(utts) * 3  # one encode, two decodes
        assert set(callers) == {threading.get_ident()}

    def test_mask_zero_equals_raw(self, small_corpus):
        m = build_manifest(small_corpus)
        utts = [(e.utt_id, e.path) for e in m.entries[:2]]
        cells = evaluate_system(EvalSystem("mel"),
                                [CorruptionSpec(kind="none"),
                                 CorruptionSpec(kind="mask", alpha=0.0)],
                                utts, gl_iterations=8)
        raw, masked = list(cells["raw"].values()), list(cells["mask_0"].values())
        assert len(raw) == 2
        assert raw == pytest.approx(masked, abs=1e-9)

    def test_score_per_utterance(self, small_corpus, quick_checkpoints):
        m = build_manifest(small_corpus)
        utts = [(e.utt_id, e.path) for e in m.entries[:3]]
        cells = evaluate_system(EvalSystem("sar", quick_checkpoints["sar"]),
                                [CorruptionSpec(kind="mask", alpha=0.1)],
                                utts, gl_iterations=8)
        scores = cells["mask_0.1"]
        assert list(scores) == [u for u, _ in utts]
        # correlation-based score: can dip below zero for bad synthesis
        assert all(-1.0 <= s <= 1.0 for s in scores.values())

    def test_threads_match_single(self, small_corpus, quick_checkpoints):
        m = build_manifest(small_corpus)
        utts = [(e.utt_id, e.path) for e in m.entries[:4]]
        conditions = [CorruptionSpec(kind="white_noise", snr_db=15.0),
                      CorruptionSpec(kind="mask", alpha=0.2)]
        for system in (EvalSystem("mel"),
                       EvalSystem("ae", quick_checkpoints["ae"])):
            one = evaluate_system(system, conditions, utts, gl_iterations=8,
                                  threads=1)
            many = evaluate_system(system, conditions, utts, gl_iterations=8,
                                   threads=3)
            assert one == many
            assert [list(c) for c in many.values()] == [[u for u, _ in utts]] * 2

    def test_mixed_sample_rates(self, tmp_path, quick_checkpoints):
        # each clip gets the mel bank of its own rate, as in training
        utts = []
        for rate in (16000, 22050):
            path = tmp_path / ("u%d.wav" % rate)
            write_wav(speechlike_utterance(make_rng(4), sample_rate=rate,
                                           duration=1.0), path)
            utts.append(("u%d" % rate, str(path)))
        conditions = [CorruptionSpec(kind="none"),
                      CorruptionSpec(kind="white_noise", snr_db=10.0)]
        for system in (EvalSystem("mel"),
                       EvalSystem("sar", quick_checkpoints["sar"])):
            cells = evaluate_system(system, conditions, utts, gl_iterations=6)
            for cell in cells.values():
                assert list(cell) == ["u16000", "u22050"]
                assert all(-1.0 <= s <= 1.0 for s in cell.values())

    def test_mel_cell_at_8_khz(self, tmp_path):
        path = tmp_path / "u8k.wav"
        write_wav(speechlike_utterance(make_rng(5), sample_rate=8000,
                                       duration=0.9), path)
        cells = evaluate_system(EvalSystem("mel"), [CorruptionSpec(kind="none")],
                                [("u8k", str(path))], gl_iterations=12)
        assert 0.3 < cells["raw"]["u8k"] <= 1.0


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
                         conditions=[{"kind": "none"}],
                         train_limit=4, sar_config=tiny,
                         train={"max_epochs": 1})
        table = run_table_experiment(cfg, train_first=True)
        written = sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
        assert written == ["sar.ckpt", "sar_history.csv"]
        assert list(table.scores) == [("ae", "raw"), ("sar", "raw")]

    def test_train_first_with_40_mel_bands(self, small_corpus, tmp_path):
        # the AE/SAR cells need a mel bank as wide as the trained models
        tiny = {"n_mels": 40, "fc_hidden": 8, "n_fc_enc": 1,
                "blstm_hidden": 4, "n_blstm": 1, "latent_dim": 4,
                "dec_hidden": 8}
        cfg = toy_config(small_corpus, {}, tmp_path,
                         train_limit=4, sar_config=tiny,
                         train={"max_epochs": 1})
        table = run_table_experiment(cfg, train_first=True)
        assert len(table.scores) == 15
        for cell in table.scores.values():
            assert len(cell) == 2
            assert all(-1.0 <= s <= 1.0 for s in cell.values())

    def test_reports_do_not_depend_on_earlier_blas_use(self, small_corpus,
                                                       tmp_path):
        # With OPENBLAS_NUM_THREADS unset, threaded BLAS gives mel features
        # other bits than single-threaded BLAS, and the first BLSTM pins it
        # for the whole process.  So in one fresh process, the first grid's
        # mel system must already grade as every later one does.
        paths = {}
        for k, kind in enumerate(("ae", "sar")):
            paths[kind] = str(tmp_path / ("%s.ckpt" % kind))
            save_checkpoint(SarModel(SarConfig(fc_hidden=32, blstm_hidden=16,
                                               latent_dim=16, dec_hidden=32),
                                     seed=k), paths[kind])
        script = """
import json, sys
from sarlab.harness import emit_report, run_table_experiment
corpus, out, checkpoints = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
for run, threads in (("a", 1), ("b", 1), ("c", 3)):
    config = {"dataset_root": corpus, "split_seed": 1, "n_eval_utts": 2,
              "base_seed": 11, "threads": threads, "gl_iterations": 4,
              "checkpoints": checkpoints, "output_dir": out + "/" + run}
    emit_report(run_table_experiment(config), out + "/" + run)
"""
        run_fresh(script, small_corpus, tmp_path, json.dumps(paths))
        blobs = [(tmp_path / run / "report.json").read_bytes()
                 for run in "abc"]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_mel_only_needs_no_checkpoint(self, small_corpus, tmp_path):
        cfg = toy_config(small_corpus, {}, tmp_path, systems=["mel"],
                         conditions=[{"kind": "none"}])
        table = run_table_experiment(cfg)
        assert list(table.scores) == [("mel", "raw")]


DROP = object()  # a toy_config value that removes its key


class TestConfigStrictness:
    @pytest.mark.parametrize("extra, error", [
        ({"gl_iteration": 8}, "unknown experiment config key.*gl_iteration"),
        ({"train_first": True}, "unknown experiment config key.*train_first"),
        ({"train": {"seed": 9, "epochs": 3}}, "unknown train key.*epochs, seed"),
        ({"sar_config": {"hidden": 4}}, "unknown sar_config key.*hidden"),
        ({"train": {"max_epochs": 0}}, "max_epochs must be >= 1"),
        ({"train": [1]}, "train must be a JSON object"),
        ({"conditions": [{"kind": "mask", "alhpa": 0.1}]},
         "unknown corruption fields.*alhpa"),
        ({"systems": "mel"}, "systems must be a list of mel/ae/sar"),
        ({"systems": ["mel", "vae"]}, "systems must be a list.*vae"),
        ({"gl_iterations": 0}, "gl_iterations must be an integer >= 1"),
        ({"n_eval_utts": 0}, "n_eval_utts must be an integer >= 1"),
        ({"threads": "2"}, "threads must be an integer >= 1, got '2'"),
        ({"threads": 0}, "threads must be an integer >= 1"),
        ({"train_limit": 0}, "train_limit must be an integer >= 1"),
        ({"split_seed": 1.5}, "split_seed must be an integer >= 0"),
        ({"sar_config": {"fc_hidden": "8"}}, "fc_hidden must be an integer"),
        ({"sar_config": {"n_blstm": True}}, "n_blstm must be an integer"),
        ({"sar_config": {"alpha_max": None}}, "alpha_max must be a number"),
        ({"train": {"lr": "0.001"}}, "lr must be a number"),
        ({"train": {"max_epochs": 2.0}}, "max_epochs must be an integer"),
        ({"conditions": [{"kind": "mask", "alpha": "0.1"}]},
         "alpha must be a number"),
        ({"conditions": ["none"]},
         r"conditions\[0\] must be a JSON object, got 'none'"),
        ({"conditions": [{"kind": "none"}, 3]},
         r"conditions\[1\] must be a JSON object"),
        ({"dataset_root": DROP}, "dataset_root is required"),
        ({"dataset_root": 5}, "dataset_root must be a string, got 5"),
        ({"output_dir": 5}, "output_dir must be a string, got 5"),
        ({"checkpoints": "abc"}, "checkpoints must be a JSON object, got 'abc'"),
        ({"checkpoints": {"sarr": "x.ckpt"}},
         r"unknown checkpoints key\(s\): sarr \(known: ae, sar\)"),
        ({"checkpoints": {"ae": 7}}, "checkpoints.ae must be a string, got 7"),
        ({"systems": ["sar", "mel", "sar", "mel"]},
         "systems lists mel, sar more than once"),
        ({"systems": []}, "systems must name at least one of mel/ae/sar"),
    ])
    def test_refused_before_any_file_is_touched(self, tmp_path, extra, error):
        # the corpus does not exist: the config must fail before it is read
        out = tmp_path / "out"
        cfg = dict(toy_config(tmp_path / "absent", {}, out), **extra)
        cfg = {k: v for k, v in cfg.items() if v is not DROP}
        with pytest.raises(ValueError, match=error):
            run_table_experiment(cfg, train_first=True)
        assert not out.exists()

    def test_readme_config_is_read(self):
        from sarlab.harness import read_training
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert blocks
        for block in blocks:
            _, schedule, _ = read_training(json.loads(block))
            assert schedule

    def test_demo_config_is_read(self):
        from sarlab.harness import read_training
        # the literal `config = {...}` of demo 03; non-literal values as source
        tree = ast.parse((ROOT / "demos" / "03_anti_distortion_experiment.py")
                         .read_text())
        node = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                    and getattr(n.targets[0], "id", None) == "config")
        config = {}
        for key, value in zip(node.keys, node.values):
            try:
                config[key.value] = ast.literal_eval(value)
            except ValueError:
                config[key.value] = ast.unparse(value)
        sar_cfg, schedule, _ = read_training(config)
        assert sar_cfg.alpha_max == 0.2 and schedule["max_epochs"] == 30


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


# ---------------------------------------------------------------------------
# Artefact writers replace their file atomically

class Unwritable:
    """Array stand-in whose bytes cannot be produced: the writer fails mid-file."""

    def __init__(self, shape):
        self.shape = shape

    def astype(self, dtype):
        raise RuntimeError("mid-write")


def mel_writer(fail):
    mel = MelSpectrogram(np.zeros((3, 2)), 16000, 256)
    if fail:
        mel.frames = Unwritable((3, 2))
    return lambda path: save_mel(mel, path)


def checkpoint_writer(fail):
    model = SarModel(SarConfig(n_mels=4, fc_hidden=3, n_fc_enc=1, blstm_hidden=2,
                               n_blstm=1, latent_dim=2, dec_hidden=3), seed=1)
    if fail:
        model.named_params = lambda: {"w": Unwritable((2,))}
    return lambda path: save_checkpoint(model, path)


def history_writer(fail):
    last = "not a number" if fail else 0.25
    history = TrainingHistory(epochs=[(1, 0.5, 0.4), (2, 0.3, last)])
    return history.save_csv


def report_writer(fmt, fail):
    metadata = {"bad": object()} if fail and fmt == "json" else {}
    score = "not a number" if fail and fmt == "csv" else 0.5
    table = ReportTable(["mel"], ["raw"], {("mel", "raw"): {"u1": score}}, metadata)
    return lambda path: emit_report(table, path.parent)


WRITERS = {
    "save_mel": ("x.mel", mel_writer),
    "save_checkpoint": ("x.ckpt", checkpoint_writer),
    "save_csv": ("history.csv", history_writer),
    "emit_report_csv": ("report.csv", lambda fail: report_writer("csv", fail)),
    "emit_report_json": ("report.json", lambda fail: report_writer("json", fail)),
}


class TestAtomicArtefacts:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_rewrite_keeps_previous_file(self, tmp_path, writer):
        name, make = WRITERS[writer]
        path = tmp_path / name
        make(fail=False)(path)
        # emit_report writes report.csv and report.json
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert before[name]
        with pytest.raises((RuntimeError, TypeError, ValueError)):
            make(fail=True)(path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
