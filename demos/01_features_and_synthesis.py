"""From waveform to log-mel features and back again.

Generates a short speech-like utterance, extracts an 80-band log-mel
spectrogram, then reconstructs audio with Griffin-Lim phase retrieval and
scores the round trip with the intelligibility metric.
"""

import tempfile
from pathlib import Path

import numpy as np

from sarlab.dsp import griffin_lim, mel_spectrogram, read_wav, save_mel, write_wav
from sarlab.harness import front_end
from sarlab.metrics import estoi
from sarlab.nn import make_rng
from sarlab.speechlike import speechlike_utterance

out_dir = Path(tempfile.mkdtemp(prefix="sarlab_demo1_"))
print("writing artifacts to", out_dir)

clip = speechlike_utterance(make_rng(0), duration=1.5)
write_wav(clip, out_dir / "original.wav")
print("utterance: %.2f s at %d Hz" % (len(clip) / clip.sample_rate,
                                      clip.sample_rate))

# the one feature front end: 1024-pt FFT, 16 ms hop, 80 mel bands
cfg, bank = front_end(clip.sample_rate, 80)
mel = mel_spectrogram(clip, cfg, bank)
save_mel(mel, out_dir / "original.mel")
print("log-mel: %d frames x %d bands, range [%.2f, %.2f]"
      % (*mel.frames.shape, mel.frames.min(), mel.frames.max()))

# more phase-retrieval iterations give a cleaner reconstruction
for iters in (1, 8, 60):
    synth = griffin_lim(mel, cfg, bank, iterations=iters)
    score = estoi(clip, synth)
    print("Griffin-Lim %2d iterations: intelligibility %.3f" % (iters, score))
    if iters == 60:
        write_wav(synth, out_dir / "copy_synthesis.wav")

back = read_wav(out_dir / "copy_synthesis.wav")
print("reconstruction peak level: %.3f" % np.max(np.abs(back.samples)))
