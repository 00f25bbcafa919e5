"""Pin every BLAS the test run may load to one thread.

OpenBLAS, OpenMP and MKL read these variables once, when numpy loads them,
so this file raises if numpy is already imported.  One thread keeps the
suite from oversubscribing the CPUs, gives the reference replay the thread
count its CSVs were recorded at, and is inherited by every interpreter a
test spawns.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin BLAS to one thread")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
