"""sarlab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload train_c5 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for sizes):

  train_c5      model.train_autoencoder on the criterion-5 model, batch 64,
                utterances of 0.7-1.2 s.
  train_ragged  the same model at batch 16 on utterances of 0.3-3.0 s.
  grid_c5       harness.run_table_experiment over 3 systems x 5 conditions,
                60 Griffin-Lim iterations, one thread.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (median reported
as ``setup_s``), then repeats the workload's op for ``--seconds`` and reports
the median op's throughput.  Both are rescaled to a reference machine speed
measured by the calibration kernel in calibrate.py; the summary line also
prints them unscaled.  With ``--trace 1`` it sets up once under the
tracer, then alternates ``TRACED_OPS`` untraced and traced ops and reports
per-layer busy time, self time and counts, and the tracing overhead as the
traced median op time over the untraced one.  The traced run does this fixed
amount of work whatever ``--seconds`` says, so that its counts repeat
exactly and its busy times compare across commits.  The spans go to
``.perfbench/traces/``.

Everything runs in this one process with BLAS and OpenMP pinned to one
thread.  The last line of stdout is the JSON result; the exit code is 0 only
when every output check passed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
MIN_OPS = 3
TRACED_OPS = 4


def import_sarlab():
    """Import sarlab from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sarlab
    except ImportError:
        return None
    if Path(sarlab.__file__).resolve().parent != (src / "sarlab").resolve():
        return None
    return sarlab


def timed_op(workload, state):
    t0 = perf_counter()
    result = workload.op(state)
    return result, perf_counter() - t0


def measure(workload, state, seconds, calibrator):
    """Ops until `seconds` have passed and MIN_OPS are done.

    Returns [(result, seconds, kernel seconds)], the last being the mean of
    the calibration kernel timed just before and just after the op.
    """
    ops = []
    before = calibrator.sample()
    start = perf_counter()
    while perf_counter() - start < seconds or len(ops) < MIN_OPS:
        result, dt = timed_op(workload, state)
        after = calibrator.sample(dt)
        ops.append((result, dt, (before + after) / 2.0))
        before = after
    return ops


def warm_up(workload, state):
    """One untimed op, so allocator and caches reach their steady state."""
    return [(workload.op(state), None, None)]


def rates(ops, attr, ref_s=None):
    """Per-op `attr` per second; with `ref_s`, rescaled to the speed at which
    the calibration kernel takes `ref_s`."""
    return [getattr(r, attr) / dt * (k / ref_s if ref_s else 1.0)
            for r, dt, k in ops if dt is not None]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(args, n_ops):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": n_ops,
        "setup_repeats": 1 if args.trace else SETUP_REPEATS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics


def timed_run(workload, args, workdir):
    from calibrate import REF_S, Calibrator
    calibrator = Calibrator()
    setup_times = []
    before = calibrator.sample()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        state = workload.setup(workdir / "setup", args.seed)
        dt = perf_counter() - t0
        after = calibrator.sample(dt)
        setup_times.append((dt, (before + after) / 2.0))
        before = after
    ops = warm_up(workload, state) + measure(workload, state, args.seconds, calibrator)
    errors = workload.check(state, workdir)
    metrics = {
        "setup_s": (statistics.median(dt * REF_S / k for dt, k in setup_times), "s"),
        "frames_per_s": (statistics.median(rates(ops, "frames", REF_S)), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(summary_line(workload, ops, setup_times, REF_S))
    return ops, errors, metrics


def summary_line(workload, ops, setup_times, ref_s):
    """The unscaled figures, the machine's speed and the failure share."""
    attempted = sum(r.attempted for r, _, _ in ops)
    failed = sum(r.failed for r, _, _ in ops)
    if workload.name.startswith("train"):
        rate = "train_frames_per_s=%.1f" % statistics.median(rates(ops, "frames"))
    else:
        rate = "grid_cells_per_s=%.4f" % statistics.median(rates(ops, "attempted"))
    q1, q2, q3 = statistics.quantiles(rates(ops, "frames", ref_s), n=4)
    kernel = statistics.median(k for _, dt, k in ops if dt is not None)
    return ("summary %s (unscaled): %s 1/s, setup_s=%.4f s, failed_frac=%.4g "
            "(%d of %d); scaled frames_per_s over %d timed ops: q1 %.1f, "
            "median %.1f, q3 %.1f; calibration kernel median %.5f s "
            "(reference %.5f s)"
            % (workload.name, rate, statistics.median(dt for dt, _ in setup_times),
               failed / attempted, failed, attempted, len(ops) - 1, q1, q2, q3,
               kernel, ref_s))


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics

BUSY = ("nn.Lstm.forward", "nn.Lstm.backward", "nn.Linear.forward",
        "nn.Linear.backward", "nn.PRelu.forward", "nn.PRelu.backward",
        "nn.mse_with_grad", "nn.clip_global_norm", "nn.Adam.step",
        "model.train_autoencoder", "model.SarModel.encode",
        "model.SarModel.decode", "model.load_checkpoint", "dsp.griffin_lim",
        "dsp.stft", "dsp.istft", "dsp.mel_spectrogram", "dsp.read_wav",
        "dsp.resample", "metrics.estoi", "corruption.corrupt",
        "harness.run_table_experiment", "harness.evaluate_system",
        "harness.load_mels", "harness.build_manifest", "speechlike.make_corpus")
CALLS = ("model.SarModel.encode", "model.SarModel.decode",
         "model.load_checkpoint", "dsp.stft", "dsp.istft",
         "dsp.mel_spectrogram", "dsp.read_wav", "dsp.resample",
         "metrics.estoi", "corruption.corrupt", "harness.evaluate_system")
SELF = ("model.train_autoencoder", "dsp.griffin_lim", "metrics.estoi")
PER_UTT = {"harness.mel_per_utt": "dsp.mel_spectrogram",
           "harness.read_per_utt": "dsp.read_wav",
           "harness.encode_per_utt": "model.SarModel.encode",
           "harness.estoi_per_utt": "metrics.estoi"}


def layer_metrics(tracer, untraced, traced, eval_utts):
    from spans import LAYERS
    busy, self_s, calls, bench_self_s = tracer.summary()
    m = {}
    for name in BUSY:
        m[name + "_s"] = (busy[name], "s")
    for name in CALLS:
        m[name + "_calls"] = (calls[name], "count")
    for name in SELF:
        m[name + ".self_s"] = (self_s[name], "s")
    counts = tracer.counts
    m["nn.Lstm.timesteps"] = (counts["nn.Lstm.timesteps"], "count")
    m["nn.Adam.steps"] = (calls["nn.Adam.step"], "count")
    m["nn.Adam.skipped"] = (counts["nn.Adam.skipped"], "count")
    m["model.valid_frame_ratio"] = (
        counts["model.valid_frames"] / max(counts["model.padded_frames"], 1), "ratio")
    under = tracer.count_under("harness.run_table_experiment", set(PER_UTT.values()))
    for metric, name in PER_UTT.items():
        m[metric] = (under[name] / max(eval_utts, 1), "1/utt")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    for layer, value in layer_self.items():
        m[layer + ".self_s"] = (value, "s")
    m["bench.self_s"] = (bench_self_s, "s")
    m["trace.wall_s"] = (tracer.wall_s, "s")
    m["trace.bookkeeping_s"] = (tracer.bookkeeping_s, "s")
    m["trace.self_sum_s"] = (sum(layer_self.values()) + bench_self_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    untraced_op = statistics.median(dt for _, dt, _ in untraced)
    traced_op = statistics.median(dt for _, dt, _ in traced)
    m["trace.untraced_op_s"] = (untraced_op, "s")
    m["trace.traced_op_s"] = (traced_op, "s")
    m["trace.overhead_frac"] = (traced_op / untraced_op - 1.0, "ratio")
    return m


def baseline_rows(m, cells):
    """The two ROADMAP baseline rows, from the traced run."""
    rows = []
    steps = m["nn.Adam.steps"][0]
    train_s = m["model.train_autoencoder_s"][0]
    if steps:
        parts = ["%s %.1f%%" % (name, 100.0 * m[name + "_s"][0] / train_s)
                 for name in BUSY[:9]]
        parts.append("model.train_autoencoder self %.1f%%"
                     % (100.0 * m["model.train_autoencoder.self_s"][0] / train_s))
        rows.append("baseline train step: %.4f s/step over %d steps, validation "
                    "included; share of train_autoencoder time: %s"
                    % (train_s / steps, steps, ", ".join(parts)))
    if cells:
        stages = (("read", "dsp.read_wav"), ("mel", "dsp.mel_spectrogram"),
                  ("encode", "model.SarModel.encode"),
                  ("decode", "model.SarModel.decode"),
                  ("griffin_lim", "dsp.griffin_lim"), ("estoi", "metrics.estoi"))
        parts = ["%s %.4f" % (label, m[name + "_s"][0] / cells)
                 for label, name in stages]
        rows.append("baseline grid cell: %.4f s/cell over %d cells; stage s/cell "
                    "(mean over all cells): %s"
                    % (m["harness.run_table_experiment_s"][0] / cells, cells,
                       ", ".join(parts)))
    return rows


def traced_run(workload, args, workdir):
    from spans import Tracer
    from workloads import CELLS_PER_UTT
    tracer = Tracer()
    with tracer.active():
        state = workload.setup(workdir / "setup", args.seed)
    warm = warm_up(workload, state)
    # alternate, so that drift in machine speed hits both sides alike
    untraced, traced = [], []
    for i in range(TRACED_OPS):
        untraced.append(timed_op(workload, state) + (None,))
        tracer.op = i
        with tracer.active():
            traced.append(timed_op(workload, state) + (None,))
    errors = workload.check(state, workdir)
    eval_utts = len(traced) * state.get("n_eval", 0)
    metrics = layer_metrics(tracer, untraced, traced, eval_utts)
    out = WORK_ROOT / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / ("%s-seed%d.json" % (workload.name, args.seed))
    tracer.write(path)
    for row in baseline_rows(metrics, eval_utts * CELLS_PER_UTT):
        print(row)
    print("spans written to %s" % path.relative_to(ROOT))
    return warm + untraced + traced, errors, metrics


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_c5", "train_ragged", "grid_c5"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, toy=False):
    """Run one workload; `toy` selects the tiny sizes the self-test uses."""
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    if import_sarlab() is None:
        print("sarlab not found under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    import workloads
    workload = (workloads.TOY if toy else workloads.FULL)[args.workload]
    workdir = WORK_ROOT / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        run = traced_run if args.trace else timed_run
        ops, errors, metrics = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [e for r, _, _ in ops for e in r.errors] + errors
    print("provenance " + json.dumps(provenance(args, len(ops)), sort_keys=True))
    for e in errors:
        print("check failed: %s" % e)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r, _, _ in ops),
        "failed": sum(r.failed for r, _, _ in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
