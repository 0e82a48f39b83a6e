"""The masked auto-encoder: encode to a bounded latent, mask, decode, train.

Encoder: FC+PReLU stack -> stacked BLSTMs -> tanh-headed FC, so the latent
sequence lives strictly inside (-1, 1).  Decoder is frame-local: FC+PReLU ->
linear FC back to mel width.  During training the latent is multiplied by
`latent_mask`: each sequence draws a masking ratio alpha ~ U(0, alpha_max)
and latent elements are dropped (inverted dropout).  Inference (`encode`,
`decode`) never masks.
"""

import csv
import json
import struct
from dataclasses import dataclass, asdict, field, fields, replace
from itertools import zip_longest

import numpy as np

from . import nn
from .dsp import atomic_write, check_number_fields

CKPT_MAGIC = b"SARCKPT1"
GRAD_CLIP = 1.0  # global gradient-norm bound of every training step
VAL_BATCH = 32  # sequences per validation forward pass


@dataclass
class SarConfig:
    n_mels: int = 80
    fc_hidden: int = 256
    n_fc_enc: int = 2
    blstm_hidden: int = 256
    n_blstm: int = 2
    latent_dim: int = 256
    dec_hidden: int = 128
    alpha_max: float = 0.2

    def __post_init__(self):
        check_number_fields(self)
        for f in fields(self):  # every int field is a count or a width
            if f.type is int and getattr(self, f.name) < 1:
                raise ValueError("%s must be >= 1" % f.name)
        if not 0 <= self.alpha_max < 1:
            raise ValueError("alpha_max must be in [0, 1)")


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr: float = 1e-3
    max_epochs: int = 50
    patience: int = 10
    seed: int = 1337
    alpha_max: float = 0.2

    def __post_init__(self):
        check_number_fields(self)
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if not 0 <= self.alpha_max < 1:
            raise ValueError("alpha_max must be in [0, 1)")


def sample_mask_ratio(rng: np.random.Generator, alpha_max: float) -> float:
    """One draw of alpha ~ U(0, alpha_max) per training sequence per step."""
    if not 0 <= alpha_max < 1:
        raise ValueError("alpha_max must be in [0, 1)")
    if alpha_max == 0:
        return 0.0
    return float(rng.uniform(0.0, alpha_max))


def latent_mask(rng: np.random.Generator, alpha_max: float,
                shape) -> np.ndarray:
    """Inverted-dropout multiplier for a (B, T, D) latent batch, float32.

    Each sequence draws its own alpha ~ U(0, alpha_max), then keeps each
    element with probability 1 - alpha and scales survivors by
    1 / (1 - alpha).  A sequence whose alpha is 0 gets exact ones and
    draws nothing more from `rng`.
    """
    mask = np.ones(shape, dtype=np.float32)
    for b in range(shape[0]):
        alpha = sample_mask_ratio(rng, alpha_max)
        if alpha > 0:
            keep = rng.uniform(size=shape[1:]) >= alpha
            mask[b] = keep / (1.0 - alpha)
    return mask


class SarModel(nn.Layer):
    """Auto-encoder with named parameter tensors and a fixed build order.

    Its tensors are the encoder's layers' then the decoder's, named
    "<layer>.<key>" (e.g. "enc_blstm0.fwd.wx"), in checkpoint order.
    """

    def __init__(self, config: SarConfig, seed: int = 0):
        super().__init__()
        self.config = config
        self.seed = seed
        self.step = 0
        rng = nn.make_rng(seed)
        c = config
        enc = []
        d = c.n_mels
        for i in range(c.n_fc_enc):
            enc.append(("enc_fc%d" % i, nn.Linear(d, c.fc_hidden, rng)))
            enc.append(("enc_prelu%d" % i, nn.PRelu(c.fc_hidden)))
            d = c.fc_hidden
        for i in range(c.n_blstm):
            enc.append(("enc_blstm%d" % i, nn.Bilstm(d, c.blstm_hidden, rng)))
            d = 2 * c.blstm_hidden
        enc.append(("enc_head", nn.Linear(d, c.latent_dim, rng)))
        enc.append(("enc_tanh", nn.Tanh()))
        self.encoder = nn.Sequential(enc)
        dec = [
            ("dec_fc0", nn.Linear(c.latent_dim, c.dec_hidden, rng)),
            ("dec_prelu0", nn.PRelu(c.dec_hidden)),
            ("dec_out", nn.Linear(c.dec_hidden, c.n_mels, rng)),
        ]
        self.decoder = nn.Sequential(dec)

    # -- parameter plumbing -------------------------------------------------

    def children(self):
        return self.encoder.layers + self.decoder.layers

    def snapshot(self) -> dict:
        return {k: v.copy() for k, v in self.named_params().items()}

    @property
    def dtype(self):
        """The parameters' dtype; float32 unless `astype` changed it."""
        return self.decoder.layers[-1][1].params["w"].dtype

    # -- training -----------------------------------------------------------

    def forward(self, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Training forward on a (B, T, n_mels) batch: encode, mask, decode."""
        return self.decoder.forward(self.encoder.forward(x) * mask)

    def backward(self, dpred: np.ndarray, mask: np.ndarray) -> None:
        """Backward through `forward` with the same mask; accumulates grads."""
        self.encoder.backward(self.decoder.backward(dpred) * mask)

    # -- inference ----------------------------------------------------------

    def encode(self, frames: np.ndarray) -> np.ndarray:
        """Latent z of (T, n_mels) frames, shape (T, latent_dim), all |z| < 1."""
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.shape[1] != self.config.n_mels:
            raise ValueError("expected (T, %d) features, got %s"
                             % (self.config.n_mels, frames.shape))
        # an empty sequence is refused by the first BLSTM
        return self.encoder.forward(frames[None].astype(self.dtype))[0]

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Frame-local reconstruction, shape (T, n_mels)."""
        z = np.asarray(z)
        if z.ndim != 2 or z.shape[1] != self.config.latent_dim:
            raise ValueError("expected (T, %d) latent, got %s"
                             % (self.config.latent_dim, z.shape))
        return self.decoder.forward(z[None].astype(self.dtype))[0]

    def reconstruct(self, frames: np.ndarray) -> np.ndarray:
        return self.decode(self.encode(frames))


def reconstruction_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """MSE of a reconstruction against its (T, n_mels) target frames."""
    return nn.mse(pred, target)


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainingHistory:
    epochs: list = field(default_factory=list)  # (epoch, train_loss, val_loss)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    alpha_max: float = 0.0
    seed: int = 0

    def save_csv(self, path):
        with atomic_write(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_loss", "alpha_max", "seed"])
            for epoch, tr, va in self.epochs:
                w.writerow([epoch, "%.10g" % tr, "%.10g" % va,
                            "%g" % self.alpha_max, self.seed])


def _batches(order, frames, batch_size):
    """Length-bucketed batches: sort each shuffled slice by length."""
    for i in range(0, len(order), batch_size):
        chunk = sorted(order[i:i + batch_size], key=lambda j: frames[j].shape[0])
        yield chunk


def _pad_batch(seqs):
    t_max = max(s.shape[0] for s in seqs)
    d = seqs[0].shape[1]
    x = np.zeros((len(seqs), t_max, d), dtype=np.float32)
    valid = np.zeros((len(seqs), t_max), dtype=bool)
    for b, s in enumerate(seqs):
        x[b, :s.shape[0]] = s
        valid[b, :s.shape[0]] = True
    return x, valid


def _validation_loss(model: SarModel, frames) -> float:
    total = 0.0
    count = 0
    for i in range(0, len(frames), VAL_BATCH):
        x, valid = _pad_batch(frames[i:i + VAL_BATCH])
        z = model.encoder.forward(x)
        pred = model.decoder.forward(z)  # inference: no masking
        loss, _ = nn.mse_with_grad(pred, x, valid)
        n = int(valid.sum())
        total += loss * n
        count += n
    return total / count


def train_autoencoder(train_set, val_set, cfg: TrainConfig,
                      sar_cfg: SarConfig):
    """Train the masked auto-encoder on lists of (T, n_mels) frame arrays;
    returns (model at best val loss, history).

    Per step: `latent_mask` (one alpha draw per sequence), masked-frame-aware
    MSE, global-norm gradient clip, Adam.  Validation runs unmasked; early
    stopping tracks it.  A non-finite loss, or an epoch in which Adam
    skipped every step, raises RuntimeError.  The model's config records
    `cfg.alpha_max`, the ratio it was trained with, whatever
    `sar_cfg.alpha_max` says.
    """
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    train_frames = [np.asarray(m, dtype=np.float32) for m in train_set]
    val_frames = [np.asarray(m, dtype=np.float32) for m in val_set]
    model = SarModel(replace(sar_cfg, alpha_max=cfg.alpha_max), seed=cfg.seed)
    opt = nn.Adam(lr=cfg.lr)
    history = TrainingHistory(alpha_max=cfg.alpha_max, seed=cfg.seed)
    best_params = model.snapshot()
    bad_epochs = 0

    for epoch in range(cfg.max_epochs):
        rng = nn.make_rng((cfg.seed, epoch))
        order = rng.permutation(len(train_frames)).tolist()
        epoch_loss = 0.0
        epoch_n = 0
        steps = skipped = 0
        for batch_idx in _batches(order, train_frames, cfg.batch_size):
            x, valid = _pad_batch([train_frames[j] for j in batch_idx])
            mask = latent_mask(rng, cfg.alpha_max,
                               x.shape[:2] + (sar_cfg.latent_dim,))
            pred = model.forward(x, mask)
            loss, dpred = nn.mse_with_grad(pred, x, valid)
            if not np.isfinite(loss):
                raise RuntimeError(
                    "non-finite training loss at epoch %d (lr=%g); aborting"
                    % (epoch, cfg.lr))
            model.zero_grads()
            model.backward(dpred, mask)
            grads = model.named_grads()
            nn.clip_global_norm(grads, GRAD_CLIP)
            steps += 1
            skipped += not opt.step(model.named_params(), grads)
            model.step += 1
            n = int(valid.sum())
            epoch_loss += loss * n
            epoch_n += n
        if skipped == steps:
            raise RuntimeError(
                "every optimizer step of epoch %d was skipped (non-finite "
                "gradients); aborting" % epoch)
        train_loss = epoch_loss / epoch_n
        val_loss = _validation_loss(model, val_frames)
        history.epochs.append((epoch, train_loss, val_loss))
        if val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            best_params = model.snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    model.set_params(best_params)
    return model, history


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(model: SarModel, path) -> None:
    """SARCKPT1: magic + JSON metadata + named float32 tensors in order."""
    params = model.named_params()
    names = list(params.keys())
    meta = {
        "config": asdict(model.config),
        "seed": model.seed,
        "step": model.step,
        "tensors": [[n, list(params[n].shape)] for n in names],
    }
    blob = json.dumps(meta).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in names:
            f.write(params[n].astype("<f4").tobytes())


def load_checkpoint(path) -> SarModel:
    with open(path, "rb") as f:
        magic = f.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError("corrupt checkpoint: bad magic in %s" % path)
        raw_len = f.read(4)
        if len(raw_len) < 4:
            raise ValueError("corrupt checkpoint: truncated header in %s" % path)
        (meta_len,) = struct.unpack("<I", raw_len)
        blob = f.read(meta_len)
        if len(blob) < meta_len:
            raise ValueError("corrupt checkpoint: truncated metadata in %s" % path)
        try:
            meta = json.loads(blob.decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("metadata must be a JSON object, got %r" % (meta,))
            for key in ("seed", "step"):
                value = meta[key]
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise ValueError("%s must be an integer >= 0, got %r" % (key, value))
            if not isinstance(meta["config"], dict):
                raise ValueError("config must be a JSON object, got %r"
                                 % (meta["config"],))
            model = SarModel(SarConfig(**meta["config"]), seed=meta["seed"])
            model.step, tensors = meta["step"], meta["tensors"]
            # the config fixes every tensor's name, shape and place
            layout = [[n, list(p.shape)] for n, p in model.named_params().items()]
            if not isinstance(tensors, list):
                raise ValueError("tensors must be a list, got %r" % (tensors,))
            for got, want in zip_longest(tensors, layout):
                if json.dumps(got) != json.dumps(want):  # so 1.0 or true is no 1
                    raise ValueError("tensors lists %r where the config has %r"
                                     % (got, want))
        except KeyError as exc:
            raise ValueError("corrupt checkpoint: metadata lacks %s in %s"
                             % (exc, path)) from exc
        except (TypeError, ValueError) as exc:
            raise ValueError("corrupt checkpoint: bad metadata (%s) in %s"
                             % (exc, path)) from exc
        flat = {}
        for name, shape in layout:
            count = int(np.prod(shape))
            raw = f.read(4 * count)
            if len(raw) != 4 * count:
                raise ValueError("corrupt checkpoint: truncated tensor %s in %s"
                                 % (name, path))
            flat[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        if f.read(1):
            raise ValueError("corrupt checkpoint: trailing bytes in %s" % path)
    model.set_params(flat)
    return model
