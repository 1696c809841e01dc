#!/usr/bin/env python3
"""Entry point of the benchmark; see harness.py for what it measures.

    python3 perfbench/run.py --workload {region,windows,trajectory} \
        --seed N --seconds S --trace {0,1}
"""

import os
import sys

if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy is imported here or in a child
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from harness import main

    sys.exit(main())
