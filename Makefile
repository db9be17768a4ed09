# Convenience targets; everything also works as plain pytest/python.

.PHONY: install test bench examples validate experiments all clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done
	@echo "all examples ran cleanly"

validate:
	python -m repro validate

experiments:
	python -m repro experiment all --json benchmarks/results/json

all: install test bench validate

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache benchmarks/results/json
