.PHONY: install test lint lint-ratchet lint-bench bench classify-bench vt-bench similarity-bench serve-bench telemetry examples all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint:
	PYTHONPATH=src python -m repro.lint src tests examples benchmarks scripts

lint-ratchet:
	PYTHONPATH=src python -m repro.lint src tests examples benchmarks scripts \
		--ratchet --baseline lint-baseline.json

lint-bench:
	PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_lint_flow.py -q -s

bench:
	pytest benchmarks/ --benchmark-only -s

classify-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_classify_throughput.py -q -s

vt-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_vt_scan.py -q -s

similarity-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_similarity.py -q -s

serve-bench:
	PYTHONPATH=src python -m repro serve-bench --out BENCH_serve.json

telemetry:
	PYTHONPATH=src python -m repro campaign --days 1 --target 60 \
		--train-samples 80 --export-dir telemetry-out
	python scripts/validate_telemetry.py telemetry-out/telemetry.json

examples:
	python examples/quickstart.py
	python examples/evasive_attacks.py
	python examples/browser_extension.py
	python examples/feature_importance.py
	python examples/historical_analysis.py
	python examples/measurement_campaign.py --days 2 --target 150

all: install lint test bench
