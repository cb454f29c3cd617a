# Convenience targets for the CSE reproduction.

PYTHON ?= python

.PHONY: install native test test-fast bench bench-kernels \
        bench-cache bench-fleet bench-native bench-prefilter check \
        check-flow check-overhead report examples clean golden

install:
	$(PYTHON) setup.py develop

# compile the optional native set-flow library into the per-user cache
# (requires cc/gcc/clang; everything degrades to the interpreted loop
# without it, so this target failing is informative, not fatal)
native:
	PYTHONPATH=src $(PYTHON) -m repro.kernels.native --rebuild

# static soundness gates (repro check, both pillars): artifact
# verification + exact convergence certification on a paper-suite
# ruleset, then the repo's AST lint rules.  Nonzero on any
# error-severity diagnostic — this is the CI lint-job entry point.
check:
	PYTHONPATH=src $(PYTHON) -m repro.cli check artifact --family ExactMatch
	PYTHONPATH=src $(PYTHON) -m repro.cli check lint src

# flow-sensitive lint alone (R1xx + R2xx resource lifecycle + R3xx
# dtype flow), gated against the committed baseline, with a SARIF
# report for CI annotation upload
check-flow:
	PYTHONPATH=src $(PYTHON) -m repro.cli check lint src --sarif lint.sarif

test:
	$(PYTHON) -m pytest tests/ -q

test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# smoke mode: seconds, skips the trivial-partition regression gate and
# the resolver and plan-choice gates; drop --smoke for the real run
bench-kernels:
	$(PYTHON) benchmarks/bench_kernels.py --smoke

# compilation cache cold/warm latency + profiler vectorization; smoke mode
# skips the >=5x cold/warm and >=3x profiler acceptance gates
bench-cache:
	$(PYTHON) benchmarks/bench_cache.py --smoke

# sharded fleet scan vs the per-machine loop; smoke mode skips the >=3x
# acceptance gate on the 64-ruleset fleet
bench-fleet:
	$(PYTHON) benchmarks/bench_fleet.py --smoke

# literal-prefilter fast path vs the native frontier; smoke mode skips
# the >=3x acceptance gate and the <=1.05x fallback gate
bench-prefilter:
	$(PYTHON) benchmarks/bench_prefilter.py --smoke

# compiled native tier vs the interpreted loop; smoke mode skips the
# >=15x acceptance gate and tolerates a toolchain-less host
bench-native:
	$(PYTHON) benchmarks/bench_native.py --smoke

# instrumented vs no-op scan on the bench smoke config; fails above 10%
check-overhead:
	$(PYTHON) benchmarks/check_overhead.py --out obs_metrics.json \
		--trace-out obs_trace.json --flamegraph-out obs_profile.folded

report:
	$(PYTHON) benchmarks/generate_report.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

golden:
	rm -f benchmarks/expected/results.json
	$(PYTHON) -m pytest benchmarks/test_golden_results.py --benchmark-only -q

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	       benchmarks/output .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
