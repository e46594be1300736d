//! RECORD — a retargetable compiler (generator) for DSP core processors.
//!
//! This crate is the reproduction of the system of Section 4.3 of
//! P. Marwedel, *"Code Generation for Core Processors"*, DAC 1997 — the
//! RECORD compiler, whose global flow (Fig. 2 of the paper) is:
//!
//! ```text
//!  DFL program ──parse──▶ flow graph ──treeify──▶ trees
//!                                                  │ algebraic variants
//!  processor model ──ISE──▶ instruction set        ▼
//!        (RT netlist or instruction set) ──▶ BURS matcher ──▶ cover
//!                                                  │
//!            compaction / address assignment / bank assignment /
//!                    mode minimization  ──▶ executable code
//! ```
//!
//! * [`Compiler`] is the generator: build one with
//!   [`Compiler::for_target`] from an explicit instruction-set description
//!   or with [`Compiler::from_netlist`] from an RT-level structural model
//!   (instruction-set extraction closes "the gap … between electronic CAD
//!   and compiler generation"),
//! * [`PassPlan`] is the pipeline itself as data, and the compiler's one
//!   configuration: every backend phase is a named [`Pass`] over a
//!   [`CompilationUnit`]; plans start from the `O0`/`O1`/`O2` presets and
//!   are edited per pass by name — every optimization the paper
//!   catalogues can be dropped ([`PassPlan::without`]) or reconfigured
//!   ([`PassPlan::replacing`] with [`select_pass`], [`compact_pass`] or
//!   [`modes_pass`]) for the ablation benches — and in strict mode the
//!   runner verifies structural invariants between passes,
//! * [`Compiler::compile_recorded`] runs a plan over a lowered program —
//!   the pipeline primitive; [`Compiler::compile`] and
//!   [`Compiler::compile_source`] are its plain conveniences,
//! * [`Session`] is compilation as a service, entered through
//!   [`Session::compile`] (one program, with an optional deadline and
//!   span recorder) or [`Session::compile_batch`]: a per-target compiler
//!   cache, a parallel batch driver, and the observability layer —
//!   attach a [`Tracer`] ([`Session::with_tracer`](Session::with_tracer))
//!   for per-compile span trees (exported as JSON-lines or Chrome
//!   trace-event format) and read [`Session::metrics`](Session::metrics)
//!   for counters/gauges/histograms in Prometheus text form,
//! * [`baseline`] is the *target-specific comparison compiler* standing in
//!   for the mid-90s TI C compiler of Table 1: no algebraic variants, no
//!   AGU streams, a memory-resident loop counter and per-access address
//!   arithmetic,
//! * [`handasm`] provides expert hand-assembly references for the ten
//!   DSPStone kernels (the 100 % line of Table 1),
//! * [`selftest`] generates processor self-test programs (Section 4.5),
//! * [`report`] regenerates Table 1.
//!
//! # Quickstart
//!
//! ```
//! use record::Compiler;
//!
//! let target = record_isa::targets::tic25::target();
//! let compiler = Compiler::for_target(target)?;
//! let code = compiler.compile_source(
//!     "program p;
//!      var a, b, y: fix;
//!      begin y := a + b * a; end",
//! )?;
//! assert!(code.size_words() > 0);
//! println!("{}", code.render());
//! # Ok::<(), record::CompileError>(())
//! ```

pub mod baseline;
pub mod cache;
pub mod emit;
pub mod handasm;
pub mod pass;
pub mod pipeline;
pub mod report;
pub mod select;
pub mod selftest;
pub mod session;
pub mod timing;

mod error;

pub use cache::{CacheKey, CacheStats, CompileCache, ScrubStats};
pub use error::{CompileError, TargetError};
pub use pass::{
    compact_pass, modes_pass, panic_message, reference_select_pass, select_pass, CompilationUnit,
    Pass, PassPlan,
};
pub use pipeline::{Budgets, Compiler};
pub use record_trace::{
    span, AttrValue, Event, Metric, MetricsRegistry, Span, SpanRecorder, TraceRecord, Tracer,
};
pub use session::{CompileInput, Session, SessionStats};
pub use timing::{
    CodeStats, Counter, PassRecord, PhaseTimings, SalvageRecord, SelectCounters, COUNTERS,
};
