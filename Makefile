# Convenience targets for the ttda suite.

.PHONY: all test experiments experiments-output quickbench opt sched serve fuzz fuzz-corpus doc examples clean

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

doc:
	cargo doc --workspace --no-deps

examples:
	cargo run --release --example quickstart
	cargo run --release --example producer_consumer
	cargo run --release --example survey_tour
	cargo run --release --example testbed
	cargo run --release --example multiprogramming
	cargo run --release --example id_compiler

clean:
	cargo clean
