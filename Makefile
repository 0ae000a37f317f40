# Convenience targets for the ttda suite.

.PHONY: all test experiments experiments-output quickbench opt sched serve fuzz fuzz-corpus profile doc examples clean

all: test

test:
	cargo test --workspace

experiments:
	cargo run --release -p ttda-bench --bin experiments -- all

# Regenerates the checked-in experiment tables in normalized mode
# (host-dependent digits masked); CI's experiments-determinism job
# diffs against this file, so commit it whenever a table changes.
experiments-output:
	cargo run --release -p ttda-bench --bin experiments -- all --normalize > experiments_output.txt

# Re-records every section of the tracked benchmark baseline BENCH.json
# from one run. To move one suite, add --suites to the same command.
quickbench:
	cargo run --release -p ttda-bench --bin experiments -- quickbench \
		--check BENCH.json --rebaseline

# Per-workload optimizer before/after: instruction counts, firings,
# critical paths and O0/O2 Graphviz renderings under target/opt.
opt:
	cargo run --release -p ttda-bench --bin experiments -- opt --out target/opt

# The scheduling story on its own: the fifo-vs-crit timed makespan
# table (E23) plus a fresh sched section in target/BENCH.json.
sched:
	cargo run --release -p ttda-bench --bin experiments -- e23
	cargo run --release -p ttda-bench --bin experiments -- quickbench \
		--suites sched

# One sustained open-loop service run past the saturation knee.
# Override: make serve SERVE_LOAD=0.8 SERVE_REQUESTS=128
SERVE_LOAD ?= 1.2
SERVE_REQUESTS ?= 64
serve:
	cargo run --release -p ttda-bench --bin experiments -- \
		serve --load $(SERVE_LOAD) --requests $(SERVE_REQUESTS)

# A short local differential-fuzz hunt (deterministic per seed; see
# DESIGN.md §11). Override: make fuzz FUZZ_SEED=42 FUZZ_ITERS=5000
FUZZ_SEED ?= 1
FUZZ_ITERS ?= 1000
fuzz:
	cargo run --release -p ttda-bench --bin experiments -- \
		fuzz --seed $(FUZZ_SEED) --iters $(FUZZ_ITERS) --out target/fuzz-divergence.txt

# Replays the pinned regression corpus (tests/fuzz_regressions.txt)
# through the cross-engine oracle in release; CI's test job replays it
# in debug as part of `cargo test`.
fuzz-corpus:
	cargo test --release --test fuzz_corpus

# A sampled line-level profile of one repo-benchmark workload: builds
# the benchmark with line tables into target/profile (its own target
# directory, so no other build changes), runs it for SECONDS under the
# SIGPROF sampler in scripts/sigprof, and prints function and line
# shares. The kernel tick gives about 250 samples per CPU second, so a
# share needs a run of about 20 s to settle.
# Override: make profile WORKLOAD=emu-matmul SECONDS=5
WORKLOAD ?= timed-fib
SECONDS ?= 20
PROFILE_DIR := target/profile
profile:
	mkdir -p $(PROFILE_DIR)
	cc -O2 -shared -fPIC -o $(PROFILE_DIR)/sampler.so scripts/sigprof/sampler.c
	CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline \
		--manifest-path crates/bench/src/bin/benchmark/Cargo.toml \
		--target-dir $(PROFILE_DIR)/build
	SAMPLER_OUT=$(PROFILE_DIR)/$(WORKLOAD).samples LD_PRELOAD=$(abspath $(PROFILE_DIR)/sampler.so) \
		$(PROFILE_DIR)/build/release/benchmark --workload $(WORKLOAD) --seed 7 \
		--seconds $(SECONDS) --trace 0 > /dev/null
	python3 scripts/sigprof/report.py $(PROFILE_DIR)/$(WORKLOAD).samples

doc:
	cargo doc --workspace --no-deps

examples:
	cargo run --release --example quickstart
	cargo run --release --example producer_consumer
	cargo run --release --example survey_tour
	cargo run --release --example testbed
	cargo run --release --example multiprogramming
	cargo run --release --example id_compiler
	cargo run --release --example tracing

clean:
	cargo clean
