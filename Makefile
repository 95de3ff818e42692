.PHONY: install test lint lint-ratchet lint-bench bench classify-bench vt-bench similarity-bench visual-bench table2-bench evasive-bench serve-bench telemetry examples all

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

lint:
	PYTHONPATH=src python -m repro.lint src tests examples benchmarks scripts

lint-ratchet:
	PYTHONPATH=src python -m repro.lint src tests examples benchmarks scripts \
		--ratchet --baseline lint-baseline.json

lint-bench:
	PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_lint_flow.py -q -s

bench:
	PYTHONPATH=src:benchmarks python -m pytest benchmarks/ --benchmark-only -s

classify-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_classify_throughput.py -q -s

vt-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_vt_scan.py -q -s

similarity-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_similarity.py -q -s

visual-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_visual.py -q -s

table2-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_table2_model_comparison.py -q -s

evasive-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_sec55_evasive.py -q -s

serve-bench:
	PYTHONPATH=src python -m repro serve-bench --out BENCH_serve.json

telemetry:
	PYTHONPATH=src python -m repro campaign --days 1 --target 60 \
		--train-samples 80 --export-dir telemetry-out
	python scripts/validate_telemetry.py telemetry-out/telemetry.json

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/evasive_attacks.py
	PYTHONPATH=src python examples/browser_extension.py
	PYTHONPATH=src python examples/feature_importance.py
	PYTHONPATH=src python examples/historical_analysis.py
	PYTHONPATH=src python examples/measurement_campaign.py --days 2 --target 150

all: install lint test bench
