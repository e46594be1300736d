//! Shared helpers for the benchmark harness.
//!
//! Every bench binary in `benches/` regenerates one table or figure of
//! the paper: it first *prints* the reproduced rows/series (so `cargo
//! bench` output doubles as the experiment log recorded in
//! EXPERIMENTS.md), then times the underlying machinery.
//!
//! The timing loop lives in [`harness`]: a dependency-free, wall-clock
//! mini-benchmark with the subset of the Criterion API these benches use
//! (`benchmark_group` / `bench_function` / `iter` / `black_box`). The
//! container this repo builds in has no network access to crates.io, so
//! the harness is vendored rather than pulled in as a dependency.

pub mod harness;

pub use harness::{black_box, Criterion};

use std::time::Duration;

/// A harness instance tuned for this suite: small samples and short
/// measurement windows, because the interesting output is the reproduced
/// table, not picosecond precision.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
        .configure_from_args()
}

/// Compiles a DSPStone kernel with the RECORD pipeline for `tic25`.
pub fn compile_kernel(name: &str) -> record_isa::Code {
    let kernel = record_dspstone::kernel(name).expect("known kernel");
    let lir = record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap()).unwrap();
    let compiler = record::Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    compiler.compile(&lir, &record::PassPlan::o2()).unwrap()
}
