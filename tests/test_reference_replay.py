"""The four benchmark workloads replay their recorded reference CSVs byte for byte.

perfbench/reference/<workload>.json holds the CSV each workload's sweep wrote
at one BLAS thread when it was recorded, the thread count the root
conftest.py sets for the test run.  Any change to the numbers -- one ulp in
one estimate, one matvec in one count -- changes those bytes, so this test
fails on it unless the references are re-recorded on purpose.  Another numpy,
scipy or BLAS build can change the bytes too, so a failure names the versions
the references were recorded with and the ones running.  The workloads are
imported read-only from perfbench/workloads.py and run at input seed 0.
"""

import json
from pathlib import Path

from oracles import blas_builds, perfbench_module
from tracekit.bench import emit_csv, run_sweep

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
INPUT_SEED = 0
RECORDED_WITH = "numpy 2.4.6 (scipy-openblas 0.3.31.188.0), scipy 1.17.1 (scipy-openblas 0.3.30)"


def test_workloads_replay_their_reference_csv_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports graphgen
    from workloads import WORKLOADS

    produced = {}
    for name, workload in WORKLOADS.items():
        spec, _ = workload.spec(INPUT_SEED, tmp_path)
        emit_csv(run_sweep(spec), tmp_path / "sweep.csv")
        produced[name] = (tmp_path / "sweep.csv").read_text()
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
