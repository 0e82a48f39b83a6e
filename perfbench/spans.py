"""Span tracer that wraps sarlab's public functions where they are looked up.

A module that did ``from .dsp import griffin_lim`` calls its own binding, so
patching ``dsp.griffin_lim`` alone would miss it.  Each patch point below is
the namespace a call site actually reads.  Spans are kept in memory as flat
records with a parent index and written out once, when the run ends.

Time the wrapper spends on its own bookkeeping, outside the span it records,
is summed separately, so that

    sum(self times) + bench self time == traced wall time - bookkeeping

holds for every run.
"""

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("speechlike", "dsp", "nn", "model", "corruption", "metrics", "harness")

# span record fields
NAME, PARENT, OP, T0, T1, CHILD_S, CHILD_BOOK_S = range(7)


def patch_points():
    """(namespace, attribute, span name) for every traced call site."""
    from sarlab import corruption, dsp, harness, metrics, model, nn, speechlike
    return [
        (speechlike, "make_corpus", "speechlike.make_corpus"),
        (harness, "read_wav", "dsp.read_wav"),
        (harness, "wav_duration", "dsp.wav_duration"),
        (harness, "mel_filterbank", "dsp.mel_filterbank"),
        (harness, "mel_spectrogram", "dsp.mel_spectrogram"),
        (harness, "griffin_lim", "dsp.griffin_lim"),
        (dsp, "stft", "dsp.stft"),
        (dsp, "istft", "dsp.istft"),
        (metrics, "resample", "dsp.resample"),
        (corruption, "resample", "dsp.resample"),
        (harness, "estoi", "metrics.estoi"),
        (harness, "corrupt", "corruption.corrupt"),
        (model, "train_autoencoder", "model.train_autoencoder"),
        (model, "save_checkpoint", "model.save_checkpoint"),
        (harness, "load_checkpoint", "model.load_checkpoint"),
        (model.SarModel, "encode", "model.SarModel.encode"),
        (model.SarModel, "decode", "model.SarModel.decode"),
        (nn.Lstm, "forward", "nn.Lstm.forward"),
        (nn.Lstm, "backward", "nn.Lstm.backward"),
        (nn.Linear, "forward", "nn.Linear.forward"),
        (nn.Linear, "backward", "nn.Linear.backward"),
        (nn.PRelu, "forward", "nn.PRelu.forward"),
        (nn.PRelu, "backward", "nn.PRelu.backward"),
        (nn, "mse_with_grad", "nn.mse_with_grad"),
        (nn, "clip_global_norm", "nn.clip_global_norm"),
        (nn.Adam, "step", "nn.Adam.step"),
        (harness, "build_manifest", "harness.build_manifest"),
        (harness, "load_mels", "harness.load_mels"),
        (harness, "evaluate_system", "harness.evaluate_system"),
        (harness, "run_table_experiment", "harness.run_table_experiment"),
    ]


def _count_timesteps(counts, args, kwargs):
    counts["nn.Lstm.timesteps"] += args[1].shape[1]


def _count_valid(counts, args, kwargs):
    valid = args[2] if len(args) > 2 else kwargs.get("valid")
    if valid is not None:
        counts["model.valid_frames"] += int(valid.sum())
        counts["model.padded_frames"] += valid.size


# span name -> hook(counts, args, kwargs), run before the call
ON_CALL = {
    "nn.Lstm.forward": _count_timesteps,
    "nn.mse_with_grad": _count_valid,
}


class Tracer:
    """Patches the call sites while active and records one span per call."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self.wall_s = 0.0
        self.bookkeeping_s = 0.0
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        on_call = ON_CALL.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a = perf_counter()
            rec = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0, 0.0, 0.0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            if on_call is not None:
                on_call(counts, args, kwargs)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[T0], rec[T1] = t0, t1
                if name == "nn.Adam.step" and out is False:
                    counts["nn.Adam.skipped"] += 1
                book = (t0 - a) + (perf_counter() - t1)
                if stack:
                    parent = spans[stack[-1]]
                    parent[CHILD_S] += t1 - t0
                    parent[CHILD_BOOK_S] += book
                tracer.bookkeeping_s += book
            return out

        return traced

    @contextmanager
    def active(self):
        """Patch every call site for the duration of the block."""
        saved = []
        for owner, attr, name in patch_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.wall_s += perf_counter() - t0
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def summary(self):
        """Busy time, self time and call count per span name, plus totals."""
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        top_s = 0.0
        nested_book_s = 0.0
        for rec in self.spans:
            dur = rec[T1] - rec[T0]
            busy[rec[NAME]] += dur
            calls[rec[NAME]] += 1
            self_s[rec[NAME]] += dur - rec[CHILD_S] - rec[CHILD_BOOK_S]
            nested_book_s += rec[CHILD_BOOK_S]
            if rec[PARENT] < 0:
                top_s += dur
        top_book_s = self.bookkeeping_s - nested_book_s
        bench_self_s = self.wall_s - top_s - top_book_s
        return busy, self_s, calls, bench_self_s

    def count_under(self, ancestor, names):
        """Calls of each of `names` made inside a span named `ancestor`."""
        inside = [False] * len(self.spans)
        out = Counter()
        for idx, rec in enumerate(self.spans):
            parent = rec[PARENT]
            inside[idx] = rec[NAME] == ancestor or (parent >= 0 and inside[parent])
            if parent >= 0 and inside[parent] and rec[NAME] in names:
                out[rec[NAME]] += 1
        return out

    def write(self, path):
        """Spans as JSON: name, parent index, op index, start, end (seconds)."""
        base = self.spans[0][T0] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({
                "fields": ["name", "parent", "op", "start_s", "end_s"],
                "spans": [[r[NAME], r[PARENT], r[OP],
                           round(r[T0] - base, 9), round(r[T1] - base, 9)]
                          for r in self.spans],
                "counts": dict(self.counts),
            }, f)
