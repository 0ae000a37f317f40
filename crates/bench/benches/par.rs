//! Criterion bench behind Experiment E21: the sequential interpreter
//! against the relaxed parallel backend.
//! The bodies live in `ttda_bench::suites` so the `experiments
//! quickbench` subcommand can run the same targets.

use ttda_bench::quickbench::{criterion_group, criterion_main, Criterion};
use ttda_bench::suites;

fn bench_par(c: &mut Criterion) {
    suites::par(c);
}

criterion_group!(benches, bench_par);
criterion_main!(benches);
