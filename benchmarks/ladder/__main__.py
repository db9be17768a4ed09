"""``python -m benchmarks.ladder`` — see :mod:`benchmarks.ladder.run`."""

import sys

from benchmarks.ladder.run import main

sys.exit(main())
