"""Re-record the mel-system reference means in reference.json.

    python3 perfbench/record_reference.py

The mel system (mel -> Griffin-Lim -> ESTOI) does not depend on nn, so its
cell means on the fixed reference corpus stay put while the model changes.
Re-record only when a change to dsp, corruption, metrics or harness alters
those scores on purpose, and say so in the change's notes.
"""

import json
import os
import shutil
import sys

from run import ROOT, THREAD_PINS, WORK_ROOT, import_sarlab


def main():
    os.environ.update(THREAD_PINS)
    if import_sarlab() is None:
        print("sarlab not found under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    import workloads
    ref = json.loads(workloads.REFERENCE_PATH.read_text())
    workdir = WORK_ROOT / "work" / ("reference-%d" % os.getpid())
    try:
        table = workloads.mel_reference_table(workdir, ref["config"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref["mel_means"] = {c: table.mean("mel", c) for c in table.conditions}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(json.dumps(ref["mel_means"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
