"""Command-line interface: features, train, corrupt, synth, estoi, experiment.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage or validation error.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

log = logging.getLogger("sarlab")


class UsageError(Exception):
    pass


def _load_spec_arg(value):
    from .corruption import CorruptionSpec
    text = value.strip()
    if not text.startswith("{"):
        text = Path(value).read_text()
    return CorruptionSpec.from_dict(json.loads(text))


def cmd_features(args) -> int:
    from .dsp import mel_spectrogram, read_wav, save_mel
    from .harness import front_end
    src = Path(args.input)
    if not src.exists():
        raise UsageError("input not found: %s" % src)
    paths = sorted(src.rglob("*.wav")) if src.is_dir() else [src]
    if not paths:
        raise UsageError("no WAV files under %s" % src)
    by_stem = {}
    for path in paths:
        by_stem.setdefault(path.stem, []).append(str(path))
    clashes = [" and ".join(group) for group in by_stem.values() if len(group) > 1]
    if clashes:
        raise UsageError("WAV files would share a .mel file: %s" % "; ".join(clashes))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in paths:
        clip = read_wav(path)
        cfg, bank = front_end(clip.sample_rate, args.n_mels)
        save_mel(mel_spectrogram(clip, cfg, bank), out_dir / (path.stem + ".mel"))
    print("processed %d file(s)" % len(paths))
    return 0


def cmd_train(args) -> int:
    from .harness import (TRAIN_CONFIG_KEYS, build_manifest, read_training,
                          split_dataset, train_systems)
    config = json.loads(Path(args.config).read_text()) if args.config else {}
    sar_cfg, schedule, train_limit = read_training(config, TRAIN_CONFIG_KEYS,
                                                   "train config")
    if args.alpha_max is not None:  # SarConfig refuses a value outside [0, 1)
        sar_cfg = replace(sar_cfg, alpha_max=args.alpha_max)
    manifest = build_manifest(args.data)
    split = split_dataset(manifest, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    history_path = out.with_suffix(".history.csv")
    train_systems(manifest, split, schedule, sar_cfg, args.seed,
                  [(sar_cfg.alpha_max, out, history_path)], train_limit)
    print("checkpoint: %s" % out)
    print("history: %s" % history_path)
    return 0


def cmd_corrupt(args) -> int:
    from .corruption import corrupt
    from .dsp import (MelSpectrogram, atomic_write, load_mel, read_wav,
                      save_mel, write_wav)
    spec = _load_spec_arg(args.spec)
    src = Path(args.input)
    if spec.kind == "none":
        with atomic_write(args.out, "wb") as f:
            f.write(src.read_bytes())  # byte-identical
        return 0
    if src.suffix == ".mel":
        mel = load_mel(src)
        out = corrupt(mel.frames, spec)
        if spec.kind == "white_noise":
            noise = out - mel.frames
            realized = 10 * np.log10(np.mean(mel.frames ** 2) / np.mean(noise ** 2))
            print("realized SNR: %.2f dB" % realized)
        save_mel(MelSpectrogram(out, mel.sample_rate, mel.hop), args.out)
    else:
        write_wav(corrupt(read_wav(src), spec), args.out)
    return 0


def cmd_synth(args) -> int:
    from .dsp import (MelSpectrogram, griffin_lim, load_mel, mel_spectrogram,
                      read_wav, write_wav)
    from .harness import front_end
    if bool(args.mel) == bool(args.wav):
        raise UsageError("provide exactly one of --mel or --wav")
    if (args.via == "mel") == bool(args.ckpt):
        raise UsageError("--via %s %s --ckpt" % (
            args.via, "takes no" if args.ckpt else "requires"))
    model = None
    if args.ckpt:
        from .model import load_checkpoint
        model = load_checkpoint(args.ckpt)
    if args.mel:
        mel = load_mel(args.mel)
        cfg, bank = front_end(mel.sample_rate, mel.n_mels)
        if mel.hop != cfg.hop:
            raise UsageError("%s: hop %d is not the %d Hz feature hop %d"
                             % (args.mel, mel.hop, mel.sample_rate, cfg.hop))
    else:
        clip = read_wav(args.wav)
        n_mels = model.config.n_mels if model is not None else 80
        cfg, bank = front_end(clip.sample_rate, n_mels)
        mel = mel_spectrogram(clip, cfg, bank)
    if model is not None:
        mel = MelSpectrogram(model.reconstruct(mel.frames), mel.sample_rate, mel.hop)
    out = griffin_lim(mel, cfg, bank, iterations=args.gl_iterations)
    write_wav(out, args.out)
    print("wrote %s" % args.out)
    return 0


def cmd_estoi(args) -> int:
    from .dsp import read_wav
    from .metrics import estoi
    score = estoi(read_wav(args.ref), read_wav(args.deg))
    print("%.4f" % score)
    return 0


def cmd_experiment(args) -> int:
    from .harness import emit_report, run_table_experiment
    config = json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise UsageError("%s: an experiment config is a JSON object" % args.config)
    # --threads, then the config's "threads", then the CPU count
    config["threads"] = (args.threads if args.threads is not None
                         else config.get("threads", os.cpu_count() or 1))
    table = run_table_experiment(config, train_first=args.train_first)
    out_dir = config.get("output_dir", ".")
    written = emit_report(table, out_dir)
    for kind, path in written.items():
        print("%s: %s" % (kind, path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sarlab")
    p.add_argument("--seed", type=int, default=1337)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("features", help="extract mel feature files")
    f.add_argument("--in", dest="input", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--n-mels", type=int, default=80)
    f.set_defaults(func=cmd_features)

    t = sub.add_parser("train", help="train an auto-encoder checkpoint")
    t.add_argument("--data", required=True)
    t.add_argument("--alpha-max", type=float, default=None,
                   help="overrides sar_config.alpha_max (default 0.2)")
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("corrupt", help="apply a corruption to a wav or mel file")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--spec", required=True, help="JSON string or path")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_corrupt)

    s = sub.add_parser("synth", help="copy-synthesis via Griffin-Lim")
    s.add_argument("--mel", default=None)
    s.add_argument("--wav", default=None)
    s.add_argument("--via", choices=["mel", "ae", "sar"], default="mel")
    s.add_argument("--ckpt", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--gl-iterations", type=int, default=60)
    s.set_defaults(func=cmd_synth)

    e = sub.add_parser("estoi", help="intelligibility score of a wav pair")
    e.add_argument("--ref", required=True)
    e.add_argument("--deg", required=True)
    e.set_defaults(func=cmd_estoi)

    x = sub.add_parser("experiment", help="run the anti-distortion report grid")
    x.add_argument("--config", required=True)
    x.add_argument("--train-first", action="store_true")
    x.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (UsageError, ValueError, KeyError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
