# Developer conveniences; everything also works as plain pytest/python calls.

.PHONY: install test test-one-thread bench examples experiments serve-smoke cluster-smoke chaos-smoke recovery-smoke bench-core-smoke bench-eval-smoke bench-batch-smoke bench-ingest-smoke perfbench-short ci lint clean

install:
	pip install -e .

test:
	pytest tests/

# The kernel's byte-identity suites with BLAS pinned to one thread, as
# perfbench runs: a lone pursuit updates with a mat-vec and a batch with
# a GEMM, whose blocking may depend on the thread count.
test-one-thread:
	OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONHASHSEED=0 \
		PYTHONPATH=src python -m pytest -q tests/test_omp_kernel.py \
		tests/test_batch_solver.py tests/test_serve_incremental.py \
		tests/test_compare_sets.py tests/test_compare_sets_plus.py \
		tests/test_integer_regression.py

bench:
	pytest benchmarks/ --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

experiments:
	python -m repro.cli experiment all --scale 0.5 --instances 15

# Boot the real HTTP server in a subprocess and hit every endpoint.
serve-smoke:
	python scripts/serve_smoke.py

# Gateway + 2 shard workers vs the single-process server: responses
# must be byte-identical across topologies, health/metrics aggregated.
cluster-smoke:
	python scripts/cluster_smoke.py

# Overload / failing-backend / reload / drain scenarios with SLO checks.
chaos-smoke:
	PYTHONPATH=src python -m repro.serve.chaos --suite load

# Crash-recovery invariants: kill -9 mid-ingest, torn WAL writes, full
# disks, cache-backend outages.  Nonzero exit (with the scenario's seed
# printed) on any acked-then-lost delta or recovery mismatch.
recovery-smoke:
	PYTHONPATH=src python -m repro.serve.chaos --suite durability

# Batch-OMP kernel vs reference: identical selections + >= 1x warm speedup.
bench-core-smoke:
	PYTHONPATH=src python scripts/bench_core_smoke.py

# ROUGE eval kernel vs reference: bitwise-equal scores + >= 1x speedup.
bench-eval-smoke:
	PYTHONPATH=src python scripts/bench_eval_smoke.py

# Cross-request batch solver + pre-screen: identical selections, and on
# a >= 4-CPU runner the 16-burst amortisation floor.
bench-batch-smoke:
	PYTHONPATH=src python scripts/bench_batch_smoke.py

# Incremental ingest: delta re-warm byte-identical to a cold rebuild,
# and on a >= 4-CPU runner a 4x re-warm speedup floor.
bench-ingest-smoke:
	PYTHONPATH=src python scripts/bench_ingest_smoke.py

# perfbench's own tests: every workload in short mode with every output
# check on (served results equal the nnls reference, narrow replies are
# optimal, a cold rebuild over the acked deltas answers like the live
# engine), about three minutes.
perfbench-short:
	python -m pytest perfbench/test_short.py -q

# Mirrors .github/workflows/ci.yml: the test matrix plus the lint job.
# Lint is skipped with a notice when ruff is not installed locally.
ci: test lint

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI still runs it)"; \
	fi

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
