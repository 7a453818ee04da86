"""Fixed reference work that uses nothing from silentspecies.

run.py runs this script just before every pass and divides the pass's wall
time by this script's wall time. The machines the benchmark runs on have
slowed down by up to 1.6x for minutes at a time. Raw pass times then spread
more between runs than any useful regression bound. The reference work
slows down with them, so the ratio stays steady.

The mix matches the CLI's own: interpreter start-up, the numpy import,
string-keyed dict updates like the CSV tally, and multinomial draws like
synth and the bootstrap. Change it and every *_rel figure changes with it.
"""

import numpy as np

SPECIES = 5000
DICT_UPDATES = 200_000
DRAWS = 300

counts: dict[str, int] = {}
for i in range(DICT_UPDATES):
    key = "sp%04d" % (i % SPECIES)
    counts[key] = counts.get(key, 0) + 1
rng = np.random.default_rng(0)
probs = np.full(SPECIES, 1.0 / SPECIES)
for _ in range(DRAWS):
    rng.multinomial(100, probs)
