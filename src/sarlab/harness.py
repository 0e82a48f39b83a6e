"""Dataset management, the three evaluation systems, and the report grid.

Systems: MEL (mel -> Griffin-Lim), AE (auto-encoder trained without latent
masking), SAR (auto-encoder trained with masking).  Each is evaluated under a
grid of corruptions applied to its conditioning features; scores are ESTOI
against the ground-truth waveform.
"""

import copy
import csv
import hashlib
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corruption import CorruptionSpec, corrupt
from .dsp import (MelSpectrogram, StftConfig, griffin_lim, mel_filterbank,
                  mel_spectrogram, read_wav, wav_duration)
from .metrics import estoi
from .model import (SarConfig, TrainConfig, load_checkpoint, save_checkpoint,
                    train_autoencoder)
from .nn import make_rng

log = logging.getLogger(__name__)

DEFAULT_CONDITIONS = [
    {"kind": "none"},
    {"kind": "mask", "alpha": 0.1},
    {"kind": "mask", "alpha": 0.2},
    {"kind": "white_noise", "snr_db": 15.0},
    {"kind": "white_noise", "snr_db": 10.0},
]


@dataclass
class ManifestEntry:
    utt_id: str
    path: str
    duration: float


@dataclass
class Manifest:
    entries: list
    name: str = ""

    def __post_init__(self):
        self._by_id = {e.utt_id: e for e in self.entries}
        if len(self._by_id) != len(self.entries):
            raise ValueError("duplicate utterance ids in manifest")

    def by_id(self, utt_id: str) -> ManifestEntry:
        return self._by_id[utt_id]


@dataclass
class SplitSpec:
    train: list
    val: list
    test: list
    seed: int


@dataclass
class EvalSystem:
    kind: str  # "mel", "ae", "sar"
    checkpoint: str | None = None

    def __post_init__(self):
        if self.kind not in ("mel", "ae", "sar"):
            raise ValueError("unknown system kind: %r" % self.kind)
        if self.kind != "mel" and not self.checkpoint:
            raise ValueError("%s system requires a checkpoint" % self.kind)


@dataclass
class ReportTable:
    systems: list
    conditions: list
    scores: dict = field(default_factory=dict)  # (system, condition) -> {id: score}
    metadata: dict = field(default_factory=dict)

    def cell(self, system: str, condition: str):
        s = self.scores[(system, condition)]
        vals = np.array([s[k] for k in sorted(s)])
        return float(vals.mean()), float(vals.std()), len(vals)

    def mean(self, system: str, condition: str) -> float:
        return self.cell(system, condition)[0]


def build_manifest(root) -> Manifest:
    """Recursive WAV scan, sorted by filename stem; durations from headers."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError("not a directory: %s" % root)
    entries = []
    skipped = 0
    for path in sorted(root.rglob("*.wav"), key=lambda p: p.stem):
        try:
            dur = wav_duration(path)
        except (ValueError, OSError) as exc:
            log.warning("skipping unreadable %s: %s", path, exc)
            skipped += 1
            continue
        entries.append(ManifestEntry(path.stem, str(path), dur))
    if not entries:
        raise ValueError("no readable WAV files under %s" % root)
    if skipped:
        log.warning("%d files skipped", skipped)
    return Manifest(entries, name=root.name)


def split_dataset(manifest: Manifest, seed: int) -> SplitSpec:
    """Seeded shuffle then 90/5/5 partition (val/test get the ceil)."""
    n = len(manifest.entries)
    if n < 20:
        raise ValueError("need at least 20 entries to split, got %d" % n)
    ids = [e.utt_id for e in manifest.entries]
    order = make_rng(seed).permutation(n)
    shuffled = [ids[i] for i in order]
    n_val = math.ceil(0.05 * n)
    n_test = math.ceil(0.05 * n)
    test = shuffled[:n_test]
    val = shuffled[n_test:n_test + n_val]
    train = shuffled[n_test + n_val:]
    return SplitSpec(train, val, test, seed)


def derive_seed(base_seed: int, system: str, condition: str, utt_id: str) -> int:
    """Stable per-cell, per-utterance corruption seed."""
    key = "%d|%s|%s|%s" % (base_seed, system, condition, utt_id)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _evaluate_utterance(system: EvalSystem, model, cspec: CorruptionSpec,
                        wav_path: str, utt_id: str, base_seed: int,
                        stft_cfg: StftConfig, bank, gl_iterations: int) -> float:
    clip = read_wav(wav_path)
    seed = derive_seed(base_seed, system.kind, cspec.label, utt_id)
    local = replace(cspec, seed=seed)
    audio = corrupt(clip, local) if local.kind == "band_limit" else clip
    mel = mel_spectrogram(audio, stft_cfg, bank)
    feature_kind = local.kind in ("mask", "white_noise")
    if system.kind == "mel":
        frames = corrupt(mel.frames, local) if feature_kind else mel.frames
        cond = MelSpectrogram(frames, clip.sample_rate, stft_cfg.hop)
    else:
        z = model.encode(mel)
        if feature_kind:
            z = corrupt(z, local)
        cond = MelSpectrogram(model.decode(z), clip.sample_rate, stft_cfg.hop)
    synth = griffin_lim(cond, stft_cfg, bank, iterations=gl_iterations)
    return estoi(clip, synth)


def evaluate_system(system: EvalSystem, cspec: CorruptionSpec, utterances,
                    base_seed: int = 1337, stft_cfg: StftConfig | None = None,
                    bank=None, gl_iterations: int = 60, threads: int = 1) -> list:
    """Per-utterance ESTOI scores; `utterances` is [(utt_id, wav_path), ...]."""
    if not utterances:
        raise ValueError("no utterances to evaluate")
    first_clip = read_wav(utterances[0][1])
    if stft_cfg is None:
        stft_cfg = StftConfig.for_rate(first_clip.sample_rate)
    model = load_checkpoint(system.checkpoint) if system.kind != "mel" else None
    if bank is None:
        n_mels = model.config.n_mels if model is not None else 80
        bank = mel_filterbank(first_clip.sample_rate, stft_cfg.fft_size, n_mels)

    def run_chunk(chunk):
        # layers cache forward state, so each worker owns a model copy
        local_model = copy.deepcopy(model) if model is not None else None
        out = {}
        for utt_id, path in chunk:
            out[utt_id] = _evaluate_utterance(
                system, local_model, cspec, path, utt_id, base_seed,
                stft_cfg, bank, gl_iterations)
        return out

    if threads <= 1:
        results = run_chunk(utterances)
    else:
        chunks = [utterances[i::threads] for i in range(threads)]
        results = {}
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(run_chunk, [c for c in chunks if c]):
                results.update(part)
    return [results[utt_id] for utt_id, _ in utterances]


def default_threads() -> int:
    env = os.environ.get("SARLAB_THREADS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def load_mels(manifest: Manifest, ids, n_mels: int = 80) -> list:
    """Extract log-mel frame matrices for the given utterance ids."""
    cache = {}
    mels = []
    for utt_id in ids:
        entry = manifest.by_id(utt_id)
        clip = read_wav(entry.path)
        key = clip.sample_rate
        if key not in cache:
            cfg = StftConfig.for_rate(clip.sample_rate)
            cache[key] = (cfg, mel_filterbank(clip.sample_rate,
                                              cfg.fft_size, n_mels))
        cfg, bank = cache[key]
        mels.append(mel_spectrogram(clip, cfg, bank).frames)
    return mels


def train_systems(manifest: Manifest, split: SplitSpec, overrides: dict,
                  sar_cfg: SarConfig, seed: int, runs,
                  train_limit: int | None = None) -> None:
    """Train one model per (alpha_max, checkpoint path, history path) in `runs`.

    Every run starts from `seed` on the same mels: the first `train_limit`
    training utterances (all when None) and the validation set.  Of
    `overrides`, a JSON config dict, only the `TrainConfig` schedule keys
    (batch_size, lr, max_epochs, patience) are read.
    """
    schedule = {k: overrides[k] for k in
                ("batch_size", "lr", "max_epochs", "patience") if k in overrides}
    train_ids = split.train[:train_limit] if train_limit else split.train
    train_mels = load_mels(manifest, train_ids, sar_cfg.n_mels)
    val_mels = load_mels(manifest, split.val, sar_cfg.n_mels)
    for alpha, ckpt_path, history_path in runs:
        cfg = TrainConfig(seed=seed, alpha_max=alpha, **schedule)
        log.info("training %s (alpha_max=%g)", ckpt_path, alpha)
        model, history = train_autoencoder(train_mels, val_mels, cfg, sar_cfg)
        save_checkpoint(model, ckpt_path)
        history.save_csv(history_path)


def run_table_experiment(config, train_first: bool = False) -> ReportTable:
    """Evaluate all configured systems over the corruption grid."""
    if not isinstance(config, dict):
        with open(config) as f:
            config = json.load(f)
    manifest = build_manifest(config["dataset_root"])
    split = split_dataset(manifest, config.get("split_seed", 1337))
    n_eval = config.get("n_eval_utts", 100)
    eval_ids = split.test[:n_eval]
    utterances = [(i, manifest.by_id(i).path) for i in eval_ids]
    base_seed = config.get("base_seed", 1337)
    threads = config.get("threads", 1)
    gl_iterations = config.get("gl_iterations", 60)
    system_kinds = config.get("systems", ["mel", "ae", "sar"])
    checkpoints = dict(config.get("checkpoints", {}))

    need_ckpt = [k for k in system_kinds if k != "mel" and k not in checkpoints]
    if need_ckpt:
        if not (train_first or config.get("train_first")):
            raise ValueError("missing checkpoints for %s (pass train_first)" % need_ckpt)
        sar_cfg = SarConfig(**config.get("sar_config", {}))
        ckpt_dir = Path(config.get("output_dir", ".")) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        runs = []
        for kind, alpha in (("ae", 0.0), ("sar", sar_cfg.alpha_max)):
            if kind in need_ckpt:
                ckpt = ckpt_dir / ("%s.ckpt" % kind)
                runs.append((alpha, ckpt, ckpt_dir / ("%s_history.csv" % kind)))
                checkpoints[kind] = str(ckpt)
        train_systems(
            manifest, split, config.get("train", {}), sar_cfg,
            config.get("train_seed", base_seed), runs,
            config.get("train_limit"))

    systems = [EvalSystem(k, checkpoints.get(k)) for k in system_kinds]
    conditions = [CorruptionSpec.from_dict(d)
                  for d in config.get("conditions", DEFAULT_CONDITIONS)]
    table = ReportTable(
        systems=[s.kind for s in systems],
        conditions=[c.label for c in conditions],
        metadata={
            "dataset": manifest.name,
            "split_seed": split.seed,
            "base_seed": base_seed,
            "n_utts": len(utterances),
            "checkpoints": checkpoints,
            "gl_iterations": gl_iterations,
            "eval_ids": eval_ids,
        },
    )
    for system in systems:
        for cond in conditions:
            log.info("evaluating %s / %s", system.kind, cond.label)
            scores = evaluate_system(
                system, cond, utterances, base_seed=base_seed,
                gl_iterations=gl_iterations, threads=threads)
            table.scores[(system.kind, cond.label)] = {
                utt_id: score for (utt_id, _), score in zip(utterances, scores)}
    return table


# ---------------------------------------------------------------------------
# Report I/O

def emit_report(table: ReportTable, out_dir, formats=("csv", "json")) -> dict:
    """Write report.csv (summary) and report.json (full per-utterance scores)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    if "csv" in formats:
        path = out_dir / "report.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["system", "condition", "mean", "std", "n"])
            for system in table.systems:
                for cond in table.conditions:
                    mean, std, n = table.cell(system, cond)
                    w.writerow([system, cond, "%.9f" % mean, "%.9f" % std, n])
        written["csv"] = str(path)
    if "json" in formats:
        path = out_dir / "report.json"
        payload = {
            "metadata": table.metadata,
            "systems": table.systems,
            "conditions": table.conditions,
            "scores": {
                "%s/%s" % key: {k: v for k, v in sorted(cell.items())}
                for key, cell in sorted(table.scores.items())
            },
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        written["json"] = str(path)
    return written


def load_report(path) -> ReportTable:
    with open(path) as f:
        payload = json.load(f)
    scores = {}
    for key, cell in payload["scores"].items():
        system, cond = key.split("/", 1)
        scores[(system, cond)] = dict(cell)
    return ReportTable(payload["systems"], payload["conditions"],
                       scores, payload["metadata"])
