"""CPU-timed benchmark of the memory-model laboratory.

``python3 perfbench/run.py --workload {paper,sweep,predict} --seed N
--seconds S --trace {0,1}`` runs one workload in one process and prints its
metrics as the last line of standard output.  See ``perfbench/README.md``.
"""
