"""The four benchmark workloads replay their recorded reference CSVs byte for byte.

perfbench/reference/<workload>.json holds the CSV each workload's sweep wrote
at one BLAS thread when it was recorded.  Any change to the numbers -- one
ulp in one estimate, one matvec in one count -- changes those bytes, so this
test fails on it unless the references are re-recorded on purpose.  Another
numpy, scipy or BLAS build can change the bytes too, so a failure names the
versions the references were recorded with and the ones running.  The
workloads are imported read-only from perfbench/workloads.py and run at input
seed 0 in one subprocess, because the BLAS thread count must be set before
numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from oracles import ONE_BLAS_THREAD, blas_builds, perfbench_module

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
INPUT_SEED = 0
RECORDED_WITH = "numpy 2.4.6 (scipy-openblas 0.3.31.188.0), scipy 1.17.1 (scipy-openblas 0.3.30)"

_REPLAY = """
import json, sys
from pathlib import Path
src, perfbench, workdir, seed = sys.argv[1:]
sys.path[:0] = [src, perfbench]
from tracekit.bench import emit_csv, run_sweep
from workloads import WORKLOADS
out = {}
for name, workload in WORKLOADS.items():
    spec, _ = workload.spec(int(seed), Path(workdir))
    emit_csv(run_sweep(spec), Path(workdir) / "sweep.csv")
    out[name] = (Path(workdir) / "sweep.csv").read_text()
print(json.dumps(out))
"""


def test_workloads_replay_their_reference_csv_bytes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY, str(ROOT / "src"), str(PERFBENCH), str(tmp_path),
         str(INPUT_SEED)],
        env={**os.environ, **ONE_BLAS_THREAD},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    produced = json.loads(proc.stdout)
    mismatches = {}
    for path in sorted((PERFBENCH / "reference").glob("*.json")):
        record = json.loads(path.read_text())
        assert record["blas_threads"] == 1
        want, got = record["csv"][str(INPUT_SEED)], produced.pop(record["workload"])
        if got != want:
            gate = perfbench_module("gate")
            cells = list(gate.parse_csv(want))
            mismatches[record["workload"]] = gate.check_csv(got, want, cells).problems or [
                "bytes differ within the gate's tolerance"
            ]
    assert not produced, f"workloads without a reference: {sorted(produced)}"
    assert not mismatches, (
        f"{mismatches}\nrecorded with: {RECORDED_WITH}\nrunning:       {blas_builds()}"
    )
