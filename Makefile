W ?= scenario_sim
SEED ?= 1
REF ?= HEAD
PAIRS ?= 10

.PHONY: test bench-smoke bench bench-pairs loc fingerprint fingerprint-diff

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

bench-smoke:
	python -m pytest benchmarks/test_smoke.py

bench:
	python3 benchmarks/run.py --workload $(W) --seed $(SEED) --seconds 25 --trace 0

bench-pairs:
	python3 tools/bench_pairs.py --ref $(REF) --workload $(W) --pairs $(PAIRS) $(if $(OUT),--out $(OUT))

loc:
	wc -l src/poem/*.py | tail -1

fingerprint:
	@python3 tools/cli_fingerprint.py

fingerprint-diff:
	@python3 tools/cli_fingerprint.py --diff $(REF)
