"""The benchmark's workloads: inputs made from a seed, one timed operation, checks.

Each workload generates its corpus with ``speechlike.make_corpus`` and drives
sarlab only through its public entry points.  One *op* is one call to that
entry point; a run times as many ops as fit in its budget.

Corpora are duration-stratified: utterance ``k`` of ``n`` draws its length
from the ``k``-th of ``n`` equal slices of the duration range.  The seed
still decides every waveform, but the corpus's total length (and so the
work per epoch) no longer swings from seed to seed.
"""

import json
import logging
import math
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from sarlab import dsp, harness, model, speechlike

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# The criterion-5 model: fc/BLSTM/latent/dec 128, two BLSTMs, SAR alpha 0.2.
C5_MODEL = model.SarConfig(fc_hidden=128, blstm_hidden=128, latent_dim=128,
                           dec_hidden=128, alpha_max=0.2)
TOY_MODEL = model.SarConfig(fc_hidden=32, blstm_hidden=16, latent_dim=16,
                            dec_hidden=32, alpha_max=0.2)
SAMPLE_RATE = 16000
LR = 1e-3          # criterion 5 and the train_systems default
SPLIT_SEED = 101   # criterion 5's split seed; the corpus seed varies instead
TRAIN_SEED = 2024  # criterion 5's training seed
# run_table_experiment's default grid: mel, ae and sar x the default conditions
CELLS_PER_UTT = 3 * len(harness.DEFAULT_CONDITIONS)


def make_stratified_corpus(root, n, seed, duration_range):
    """`n` WAVs under `root`, utterance k drawn from the k-th duration slice."""
    root = Path(root)
    lo, hi = duration_range
    width = (hi - lo) / n
    for k in range(n):
        part = root / ("part%04d" % k)
        (path,) = speechlike.make_corpus(
            part, 1, seed=seed * 100003 + k, sample_rate=SAMPLE_RATE,
            duration_range=(lo + k * width, lo + (k + 1) * width))
        os.replace(path, root / ("utt%04d.wav" % k))
        part.rmdir()


def n_frames(duration, sample_rate):
    """Log-mel frame count of a clip: centred STFT at the feature hop."""
    return 1 + int(round(duration * sample_rate)) // dsp.feature_hop(sample_rate)


@dataclass
class OpResult:
    frames: int      # frames processed: trained (valid) or graded
    attempted: int   # optimizer steps or grid cells
    failed: int
    errors: list


# ---------------------------------------------------------------------------
# Training


class SkipCounter(logging.Handler):
    """Counts the warning `nn.Adam.step` logs when it skips a step."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record):
        if "step skipped" in record.getMessage():
            self.skipped += 1


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    n_utts: int
    duration_range: tuple
    batch_size: int
    epochs: int
    sar: model.SarConfig

    def setup(self, workdir, seed):
        corpus = Path(workdir) / "corpus"
        make_stratified_corpus(corpus, self.n_utts, seed, self.duration_range)
        manifest = harness.build_manifest(corpus)
        split = harness.split_dataset(manifest, SPLIT_SEED)
        train = harness.load_mels(manifest, split.train, self.sar.n_mels)
        val = harness.load_mels(manifest, split.val, self.sar.n_mels)
        return {"train": train, "val": val, "model": None}

    def train_config(self):
        # patience == epochs: early stopping cannot fire inside the budget
        return model.TrainConfig(batch_size=self.batch_size, lr=LR,
                                 max_epochs=self.epochs, patience=self.epochs,
                                 seed=TRAIN_SEED, alpha_max=self.sar.alpha_max)

    def op(self, state):
        cfg = self.train_config()
        steps = self.epochs * math.ceil(len(state["train"]) / cfg.batch_size)
        frames = self.epochs * sum(m.shape[0] for m in state["train"] + state["val"])
        skips = SkipCounter()
        log = logging.getLogger("sarlab.nn")
        log.addHandler(skips)
        try:
            trained, history = model.train_autoencoder(
                state["train"], state["val"], cfg, self.sar)
        except RuntimeError as exc:  # non-finite loss aborts training
            return OpResult(frames, steps, steps, ["training aborted: %s" % exc])
        finally:
            log.removeHandler(skips)
        errors = []
        if len(history.epochs) != self.epochs:
            errors.append("ran %d epochs, expected %d"
                          % (len(history.epochs), self.epochs))
        for epoch, train_loss, val_loss in history.epochs:
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                errors.append("non-finite loss in epoch %d" % epoch)
        state["model"] = trained
        return OpResult(frames, steps, skips.skipped, errors)

    def check(self, state, workdir):
        """The trained model beats an untrained one on the validation set."""
        if state["model"] is None:
            return ["no training run completed"]
        untrained = model.SarModel(self.sar, seed=TRAIN_SEED)
        before = validation_mse(untrained, state["val"])
        after = validation_mse(state["model"], state["val"])
        if not after < before:
            return ["validation loss %.6g not below untrained %.6g" % (after, before)]
        return []


def validation_mse(sar_model, mels):
    """Frame-weighted reconstruction MSE, one utterance at a time."""
    total = sum(model.reconstruction_loss(sar_model.reconstruct(m), m) * m.shape[0]
                for m in mels)
    return total / sum(m.shape[0] for m in mels)


# ---------------------------------------------------------------------------
# Evaluation grid


@dataclass(frozen=True)
class GridWorkload:
    name: str
    n_utts: int
    duration_range: tuple
    n_eval: int
    gl_iterations: int
    sar: model.SarConfig

    def setup(self, workdir, seed):
        workdir = Path(workdir)
        corpus = workdir / "corpus"
        make_stratified_corpus(corpus, self.n_utts, seed, self.duration_range)
        checkpoints = {}
        for k, (kind, alpha) in enumerate((("ae", 0.0), ("sar", self.sar.alpha_max))):
            sar_model = model.SarModel(replace(self.sar, alpha_max=alpha),
                                       seed=seed * 2 + k)
            path = workdir / ("%s.ckpt" % kind)
            model.save_checkpoint(sar_model, path)
            checkpoints[kind] = str(path)
        config = {
            "dataset_root": str(corpus),
            "split_seed": SPLIT_SEED,
            "n_eval_utts": self.n_eval,
            "base_seed": seed,
            "threads": 1,
            "gl_iterations": self.gl_iterations,
            "checkpoints": checkpoints,
            "output_dir": str(workdir / "out"),
        }
        manifest = harness.build_manifest(corpus)
        eval_ids = harness.split_dataset(manifest, SPLIT_SEED).test[:self.n_eval]
        utt_frames = sum(n_frames(manifest.by_id(i).duration, SAMPLE_RATE) for i in eval_ids)
        return {"config": config, "utt_frames": utt_frames, "n_eval": len(eval_ids)}

    def op(self, state):
        cells = CELLS_PER_UTT * state["n_eval"]
        frames = CELLS_PER_UTT * state["utt_frames"]
        try:
            table = harness.run_table_experiment(state["config"])
        except (ValueError, RuntimeError, FloatingPointError) as exc:
            return OpResult(frames, cells, cells, ["grid raised: %s" % exc])
        bad, errors = grade_table(table, state["n_eval"])
        graded = sum(len(cell) for cell in table.scores.values())
        if graded != cells:
            errors.append("graded %d cells, expected %d" % (graded, cells))
        return OpResult(frames, cells, bad, errors)

    def check(self, state, workdir):
        return check_mel_reference(Path(workdir) / "reference")


def grade_table(table, n_eval):
    """Count cells whose score is non-finite or above 1; list what is wrong."""
    bad = 0
    errors = []
    for (system, cond), cell in sorted(table.scores.items()):
        if len(cell) != n_eval:
            errors.append("%s/%s has %d scores, expected %d"
                          % (system, cond, len(cell), n_eval))
        for utt_id, score in sorted(cell.items()):
            if not (math.isfinite(score) and score <= 1.0):
                bad += 1
                errors.append("%s/%s/%s scored %r" % (system, cond, utt_id, score))
    return bad, errors


# ---------------------------------------------------------------------------
# mel-system reference: the cells that do not depend on nn


def mel_reference_table(workdir, spec):
    """Grade the mel system on the fixed reference corpus `spec` describes."""
    corpus = Path(workdir) / "corpus"
    shutil.rmtree(corpus, ignore_errors=True)
    speechlike.make_corpus(corpus, spec["n_utts"], seed=spec["corpus_seed"],
                           duration_range=tuple(spec["duration_range"]))
    return harness.run_table_experiment({
        "dataset_root": str(corpus),
        "systems": ["mel"],
        "split_seed": spec["split_seed"],
        "n_eval_utts": spec["n_eval_utts"],
        "base_seed": spec["base_seed"],
        "threads": 1,
        "gl_iterations": spec["gl_iterations"],
        "output_dir": str(Path(workdir) / "out"),
    })


def check_mel_reference(workdir):
    """mel-system cell means equal the recorded ones within the stated tolerance."""
    ref = json.loads(REFERENCE_PATH.read_text())
    table = mel_reference_table(workdir, ref["config"])
    errors = grade_table(table, ref["config"]["n_eval_utts"])[1]
    for cond, want in sorted(ref["mel_means"].items()):
        got = table.mean("mel", cond)
        if not abs(got - want) <= ref["tolerance_abs"]:
            errors.append("mel/%s mean %.12f differs from reference %.12f by more "
                          "than %g" % (cond, got, want, ref["tolerance_abs"]))
    return errors


# ---------------------------------------------------------------------------

FULL = {
    w.name: w for w in (
        # Training is most of criterion 5, and nn.Lstm is most of a step.
        TrainWorkload("train_c5", 72, (0.7, 1.2), 64, 1, C5_MODEL),
        # Small B with long, ragged T: per-timestep overhead and padding.
        TrainWorkload("train_ragged", 72, (0.3, 3.0), 16, 1, C5_MODEL),
        # Griffin-Lim, ESTOI and per-cell recomputation; nn only at B=1.
        GridWorkload("grid_c5", 40, (0.7, 1.2), 1, 60, C5_MODEL),
    )
}

TOY = {
    "train_c5": TrainWorkload("train_c5", 24, (0.7, 1.2), 8, 2, TOY_MODEL),
    "train_ragged": TrainWorkload("train_ragged", 24, (0.3, 3.0), 4, 2, TOY_MODEL),
    "grid_c5": GridWorkload("grid_c5", 24, (0.7, 1.2), 1, 4, TOY_MODEL),
}
