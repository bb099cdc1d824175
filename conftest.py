"""Test-run configuration for the suite under `tests/` and `bench/`.

The Worker's small GP solves stall at random under threaded OpenBLAS on a
shared machine, which trips wall-clock bounds such as criterion 2's, so
scipy's OpenBLAS runs on one thread, as the `cyclesynth` entry point sets
it.  numpy's OpenBLAS keeps its threads: criterion 3's surrogate training
runs about a third slower on one.
"""

from cyclesynth import worker

worker.pin_solver_threads()
