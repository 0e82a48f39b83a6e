import os
import subprocess
import sys
from pathlib import Path

import pytest

from sarlab.harness import build_manifest, load_mels, split_dataset
from sarlab.model import SarConfig, TrainConfig, save_checkpoint, train_autoencoder
from sarlab.speechlike import make_corpus

SMALL_SAR = SarConfig(fc_hidden=32, n_fc_enc=2, blstm_hidden=16,
                      n_blstm=2, latent_dim=16, dec_hidden=32, alpha_max=0.2)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(script, *args, **env):
    """stdout of `script` run by a fresh interpreter, with `args` as its
    sys.argv[1:], sarlab imported from src/, and no BLAS thread variable set
    but those in `env`."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    clean.update(env, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=clean, check=True, timeout=300,
                          stdout=subprocess.PIPE, text=True).stdout


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines after capture is torn down."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """24 short speech-like utterances at 16 kHz."""
    root = tmp_path_factory.mktemp("corpus")
    make_corpus(root, 24, seed=7, duration_range=(0.8, 1.1))
    return root


@pytest.fixture(scope="session")
def quick_checkpoints(small_corpus, tmp_path_factory):
    """Briefly trained AE and SAR checkpoints on the small corpus."""
    out = tmp_path_factory.mktemp("ckpts")
    manifest = build_manifest(small_corpus)
    split = split_dataset(manifest, seed=1)
    train_mels = load_mels(manifest, split.train)
    val_mels = load_mels(manifest, split.val)
    paths = {}
    for name, alpha in (("ae", 0.0), ("sar", 0.2)):
        cfg = TrainConfig(batch_size=8, lr=2e-3, max_epochs=25, patience=25,
                          seed=5, alpha_max=alpha)
        model, _ = train_autoencoder(train_mels, val_mels, cfg, SMALL_SAR)
        path = out / ("%s.ckpt" % name)
        save_checkpoint(model, path)
        paths[name] = str(path)
    return paths
