"""The benchmark ladder: five named workloads, one schema.

Everything a later performance claim in this repository is judged on
lives here and in ``BENCHMARK.json`` at the repository root:

* :mod:`~benchmarks.ladder.workloads` — the five workloads, their
  seeded inputs, timed loops and correctness gate;
* :mod:`~benchmarks.ladder.trace` — the bench-side span tracer and the
  probing hooks the traced run attaches around ``repro``'s layers;
* :mod:`~benchmarks.ladder.layers` — per-module microbenchmarks
  (``host``/``dsl``/``bricks``/``comm``) and the traced-run breakdown;
* :mod:`~benchmarks.ladder.stats` — medians, quartiles, the tail
  percentile rule and run-to-run spread;
* :mod:`~benchmarks.ladder.manifest` — provenance on every output file;
* :mod:`~benchmarks.ladder.run` — the one command;
* :mod:`~benchmarks.ladder.compare` — two result files against the
  bounds.

See ``README.md`` in this directory for why each workload exists and
which end-to-end number each layer metric is expected to move.
"""
