"""Dataset management, the three evaluation systems, and the report grid.

Systems: MEL (mel -> Griffin-Lim), AE (auto-encoder trained without latent
masking), SAR (auto-encoder trained with masking).  Each is evaluated under a
grid of corruptions applied to its conditioning features; scores are ESTOI
against the ground-truth waveform.
"""

import csv
import functools
import hashlib
import json
import logging
import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .corruption import CorruptionSpec, corrupt
from .dsp import (MelSpectrogram, StftConfig, atomic_write, griffin_lim,
                  mel_filterbank, mel_spectrogram, read_wav, wav_duration)
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

# experiment config keys; `sarlab train --config` takes TRAIN_CONFIG_KEYS
CONFIG_KEYS = ("dataset_root", "split_seed", "n_eval_utts", "base_seed",
               "threads", "gl_iterations", "systems", "checkpoints",
               "conditions", "sar_config", "train", "train_seed",
               "train_limit", "output_dir")
TRAIN_CONFIG_KEYS = ("sar_config", "train", "train_limit")
SCHEDULE_KEYS = ("batch_size", "lr", "max_epochs", "patience")
SYSTEM_KINDS = ("mel", "ae", "sar")


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
        self._by_id = {}
        for e in self.entries:
            if self._by_id.setdefault(e.utt_id, e) is not e:
                raise ValueError("duplicate utterance id %r: %s and %s" % (
                    e.utt_id, self._by_id[e.utt_id].path, e.path))

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
        if self.kind not in SYSTEM_KINDS:
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


def evaluate_system(system: EvalSystem, conditions, utterances,
                    base_seed: int = 1337, gl_iterations: int = 60,
                    threads: int = 1) -> dict:
    """{condition label: {utt_id: ESTOI}} for `utterances`, [(utt_id, wav_path)].

    The calling thread does the model work: it reads each WAV once and
    computes its mel (and AE/SAR latent) once per audio variant, the clean
    clip or a band_limit condition's clip, then corrupts and decodes each
    (utterance, condition) cell.  Each decoded cell goes to a pool of
    max(2, threads) grading threads for Griffin-Lim and ESTOI; at most two
    cells per grading thread are decoded and not yet graded, so memory does
    not grow with the grid.  `threads` sizes only that pool.  A cell's score
    depends only on its own inputs, so it is the same bits on any thread,
    and BLAS is pinned to one thread when `sarlab` is imported, so it is the
    same bits whatever ran before in the process.  Every cell has finished
    before a cell's error propagates.
    """
    if not utterances:
        raise ValueError("no utterances to evaluate")
    model = load_checkpoint(system.checkpoint) if system.kind != "mel" else None
    n_mels = model.config.n_mels if model is not None else 80

    def grade(clip, feats, cfg, bank):
        synth = griffin_lim(MelSpectrogram(feats, clip.sample_rate, cfg.hop),
                            cfg, bank, iterations=gl_iterations)
        return estoi(clip, synth)

    lanes = max(2, threads)
    slots = threading.BoundedSemaphore(2 * lanes)
    futures = {}
    with ThreadPoolExecutor(max_workers=lanes) as graders:
        for utt_id, path in utterances:
            clip = read_wav(path)
            cfg, bank = front_end(clip.sample_rate, n_mels)
            features = {}  # band_limit label, or None for the clean clip
            for cspec in conditions:
                local = replace(cspec, seed=derive_seed(
                    base_seed, system.kind, cspec.label, utt_id))
                variant = local.label if local.kind == "band_limit" else None
                if variant not in features:
                    audio = clip if variant is None else corrupt(clip, local)
                    frames = mel_spectrogram(audio, cfg, bank).frames
                    features[variant] = (frames if model is None
                                         else model.encode(frames))
                feats = features[variant]
                if local.kind in ("mask", "white_noise"):
                    feats = corrupt(feats, local)
                if model is not None:
                    feats = model.decode(feats)
                slots.acquire()
                future = graders.submit(grade, clip, feats, cfg, bank)
                future.add_done_callback(lambda _: slots.release())
                futures[cspec.label, utt_id] = future
    return {c.label: {utt_id: futures[c.label, utt_id].result()
                      for utt_id, _ in utterances}
            for c in conditions}


@functools.lru_cache(maxsize=8)
def front_end(sample_rate: int, n_mels: int):
    """The (StftConfig, MelFilterBank) of every log-mel feature: training,
    evaluation and the CLI's `.mel` files, whose header (rate, bands) picks it.

    Every caller shares the result, so the bank's weights are read-only.
    """
    cfg = StftConfig.for_rate(sample_rate)
    bank = mel_filterbank(sample_rate, cfg.fft_size, n_mels)
    bank.weights.flags.writeable = False
    return cfg, bank


def load_mels(manifest: Manifest, ids, n_mels: int = 80) -> list:
    """Extract log-mel frame matrices for the given utterance ids."""
    mels = []
    for utt_id in ids:
        clip = read_wav(manifest.by_id(utt_id).path)
        cfg, bank = front_end(clip.sample_rate, n_mels)
        mels.append(mel_spectrogram(clip, cfg, bank).frames)
    return mels


def check_keys(mapping, known, where: str) -> None:
    """Raise ValueError naming every key of `mapping` not in `known`."""
    if not isinstance(mapping, dict):
        raise ValueError("%s must be a JSON object, got %r" % (where, mapping))
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ValueError("unknown %s key(s): %s (known: %s)"
                         % (where, ", ".join(unknown), ", ".join(known)))


def int_setting(config: dict, key: str, default, minimum: int):
    """config[key] or `default`: an integer >= `minimum`, or None if `default` is."""
    value = config.get(key, default)
    if value is None and default is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError("%s must be an integer >= %d, got %r"
                         % (key, minimum, value))
    return value


def read_training(config: dict, known=CONFIG_KEYS, where="experiment config"):
    """(SarConfig, `train` schedule dict, train_limit) of `config`; an unknown
    key at any level, or a value SarConfig, TrainConfig or `int_setting`
    refuses, raises ValueError."""
    check_keys(config, known, where)
    sar = config.get("sar_config", {})
    check_keys(sar, [f.name for f in fields(SarConfig)], "sar_config")
    schedule = config.get("train", {})
    check_keys(schedule, SCHEDULE_KEYS, "train")
    TrainConfig(**schedule)
    return SarConfig(**sar), schedule, int_setting(config, "train_limit", None, 1)


def train_systems(manifest: Manifest, split: SplitSpec, schedule: dict,
                  sar_cfg: SarConfig, seed: int, runs,
                  train_limit: int | None = None) -> None:
    """Train one model per (alpha_max, checkpoint path, history path) in `runs`.

    Every run starts from `seed` on the same mels: the first `train_limit`
    training utterances (all when None) and the validation set.  `schedule`
    is a config's `train` dict (SCHEDULE_KEYS).
    """
    train_mels = load_mels(manifest, split.train[:train_limit], sar_cfg.n_mels)
    val_mels = load_mels(manifest, split.val, sar_cfg.n_mels)
    for alpha, ckpt_path, history_path in runs:
        cfg = TrainConfig(seed=seed, alpha_max=alpha, **schedule)
        log.info("training %s (alpha_max=%g)", ckpt_path, alpha)
        model, history = train_autoencoder(train_mels, val_mels, cfg, sar_cfg)
        save_checkpoint(model, ckpt_path)
        history.save_csv(history_path)


def run_table_experiment(config: dict, train_first: bool = False) -> ReportTable:
    """Evaluate all configured systems over the corruption grid.

    `config` is read strictly before any file is read or written.  Systems
    without a checkpoint are trained first if `train_first`, else an error.
    """
    sar_cfg, schedule, train_limit = read_training(config)
    if "dataset_root" not in config:
        raise ValueError("dataset_root is required: the corpus directory")
    checkpoints = config.get("checkpoints", {})
    check_keys(checkpoints, ("ae", "sar"), "checkpoints")
    strings = [(k, config.get(k, "")) for k in ("dataset_root", "output_dir")]
    strings += [("checkpoints." + k, v) for k, v in checkpoints.items()]
    for key, value in strings:
        if not isinstance(value, str):
            raise ValueError("%s must be a string, got %r" % (key, value))
    conditions = []
    for i, d in enumerate(config.get("conditions", DEFAULT_CONDITIONS)):
        if not isinstance(d, dict):
            raise ValueError("conditions[%d] must be a JSON object, got %r" % (i, d))
        conditions.append(CorruptionSpec.from_dict(d))
    system_kinds = config.get("systems", list(SYSTEM_KINDS))
    if (not isinstance(system_kinds, list)
            or not all(k in SYSTEM_KINDS for k in system_kinds)):
        raise ValueError("systems must be a list of %s, got %r"
                         % ("/".join(SYSTEM_KINDS), system_kinds))
    if not system_kinds:
        raise ValueError("systems must name at least one of %s"
                         % "/".join(SYSTEM_KINDS))
    repeated = sorted({k for k in system_kinds if system_kinds.count(k) > 1})
    if repeated:
        raise ValueError("systems lists %s more than once" % ", ".join(repeated))
    checkpoints = dict(checkpoints)
    need_ckpt = [k for k in system_kinds if k != "mel" and k not in checkpoints]
    if need_ckpt and not train_first:
        raise ValueError("missing checkpoints for %s (pass train_first)" % need_ckpt)
    split_seed = int_setting(config, "split_seed", 1337, 0)
    base_seed = int_setting(config, "base_seed", 1337, 0)
    train_seed = int_setting(config, "train_seed", base_seed, 0)
    n_eval = int_setting(config, "n_eval_utts", 100, 1)
    threads = int_setting(config, "threads", 1, 1)
    gl_iterations = int_setting(config, "gl_iterations", 60, 1)

    manifest = build_manifest(config["dataset_root"])
    split = split_dataset(manifest, split_seed)
    eval_ids = split.test[:n_eval]
    utterances = [(i, manifest.by_id(i).path) for i in eval_ids]

    if need_ckpt:
        ckpt_dir = Path(config.get("output_dir", ".")) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        runs = []
        for kind, alpha in (("ae", 0.0), ("sar", sar_cfg.alpha_max)):
            if kind in need_ckpt:
                ckpt = ckpt_dir / ("%s.ckpt" % kind)
                runs.append((alpha, ckpt, ckpt_dir / ("%s_history.csv" % kind)))
                checkpoints[kind] = str(ckpt)
        train_systems(manifest, split, schedule, sar_cfg, train_seed, runs,
                      train_limit)

    systems = [EvalSystem(k, checkpoints.get(k)) for k in system_kinds]
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
        log.info("evaluating %s", system.kind)
        cells = evaluate_system(system, conditions, utterances, base_seed,
                                gl_iterations, threads)
        for label, cell in cells.items():
            table.scores[(system.kind, label)] = cell
    return table


# ---------------------------------------------------------------------------
# Report I/O

def emit_report(table: ReportTable, out_dir) -> dict:
    """Write report.csv (summary) and report.json (full per-utterance scores)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {"csv": str(out_dir / "report.csv"),
               "json": str(out_dir / "report.json")}
    with atomic_write(written["csv"], "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["system", "condition", "mean", "std", "n"])
        for system in table.systems:
            for cond in table.conditions:
                mean, std, n = table.cell(system, cond)
                w.writerow([system, cond, "%.9f" % mean, "%.9f" % std, n])
    payload = {
        "metadata": table.metadata,
        "systems": table.systems,
        "conditions": table.conditions,
        "scores": {
            "%s/%s" % key: {k: v for k, v in sorted(cell.items())}
            for key, cell in sorted(table.scores.items())
        },
    }
    with atomic_write(written["json"], "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
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
