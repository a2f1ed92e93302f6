"""The name of the array backend.

The package has one backend, numpy; `fem` holds the quadrature rule and
builds every element integral from it.  This module stays only because
`solvebench/run.py` reports `BACKEND` on its machine line, and goes with
the next change to the benchmark.
"""

BACKEND = "numpy"
