"""sarlab: anti-distortion acoustic representation learning and evaluation.

Subpackages:
    dsp        -- WAV I/O, resampling, STFT, mel extraction, Griffin-Lim
    nn         -- trainable layers (FC, PReLU, BLSTM), Adam, gradients
    model      -- the masked auto-encoder (encode / mask / decode / train)
    corruption -- feature noise, feature masking, bandwidth degradation
    metrics    -- ESTOI (extended short-time objective intelligibility)
    harness    -- dataset splits, evaluation systems, report tables
    speechlike -- a generated stand-in corpus of speech-like utterances
    cli        -- the `sarlab` command
"""

from . import nn

__version__ = "0.1.0"

# one BLAS thread for the whole process, before any submodule computes
nn._single_threaded_blas()
