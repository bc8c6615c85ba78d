"""Run the suite on one BLAS thread.

numpy reads these variables when it is first imported, which happens after
this file: neither pytest nor hypothesis imports it.  More BLAS threads
than the machine has cores slow every small factorization down.  A value
already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
