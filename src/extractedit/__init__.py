"""Desk-scale unsupervised translation lab.

A self-contained numpy stack: a float64 autodiff tensor engine, a shared
GRU encoder/decoder, exact nearest-neighbor extraction of real target
sentences, a max-pool editing mechanism, a comparative ranking loss with
an adversarially trained evaluation network, a back-translation baseline,
and synthetic cipher language pairs that make every result checkable
against ground truth. Names are imported from their modules
(``from extractedit.cipher import CipherSpec``); importing the package
itself loads none of them.

Threads: a process that imports extractedit before numpy runs BLAS on
one thread. Training multiplies small matrices, where OpenBLAS's further
threads spin between calls and double the CPU a run takes without
shortening it, and two runs side by side starve each other. Importing
the package sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1
while it loads numpy, then restores ``os.environ``, so child processes
inherit the caller's environment. To choose another count, set either
variable before starting Python (``OPENBLAS_NUM_THREADS=2 extractedit
train ...``); the package then leaves the count to it, as it does when
numpy was imported first.
"""


def _import_numpy_on_one_blas_thread() -> None:
    """Load numpy with one BLAS thread, unless it is loaded already or the
    caller set a thread count: OpenBLAS reads the count once, as it loads."""
    import os
    import sys

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in names):
        return
    os.environ.update(dict.fromkeys(names, "1"))
    try:
        import numpy  # noqa: F401
    finally:
        for name in names:
            del os.environ[name]


_import_numpy_on_one_blas_thread()
