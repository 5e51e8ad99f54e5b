"""Fixed reference workload that measures how fast the machine runs right now.

Usage: python3 perfbench/calibration.py

The benchmark times this script, in a fresh interpreter like the CLI runs
it brackets, and rescales the CLI wall times of a benchmark run by
REFERENCE_S / (the median time of that run's calibrations).  Its mix mirrors stratakit's work: a sparse
dict of tuple keys to Fractions (opalg, localize), big-integer powers and
remainders (cutoff), and a float loop (geometry), over a working set of tens
of MiB touched for the first time.  It imports nothing from stratakit, so a
change to the program never changes it.  Changing this file changes the unit
of every time the benchmark reports.
"""

import random
from fractions import Fraction

rng = random.Random(20260401)
terms = {(i % 97, (i % 5, i % 3), i % 11, i % 7, i % 2): Fraction(i + 1, i % 13 + 1) for i in range(40000)}
keys = list(terms)
for n in range(40000):
    key = keys[rng.randrange(len(keys))]
    terms[key] = terms[key] * Fraction(n % 5 + 1, n % 7 + 2) + Fraction(1, n % 3 + 1)

big = 3**20000
modulus = 7**30000 + 1
for _ in range(15):
    big = (big * big + 1) % modulus

y = 1.2
for i in range(100000):
    y = y + 1e-3 * (y * (1.0 - y * y / 4.0)) - 1e-7 * i
