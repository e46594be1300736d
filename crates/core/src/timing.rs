//! Per-phase instrumentation of the compilation pipeline.
//!
//! Every compile (see [`Compiler::compile_recorded`](crate::Compiler::compile_recorded)
//! and the [`Session`](crate::Session) APIs) fills in a [`PhaseTimings`]:
//! one [`PassRecord`] per executed pass, the frontend and total wall-clock
//! times, and the selection work counters. Timings are additive — [`PhaseTimings::absorb`] accumulates
//! them across statements, kernels or whole batches — so the same struct
//! serves a single compile and a session-wide aggregate.
//!
//! The selection work counters are declared once, in `select_counters!`.
//! Every struct that carries them ([`SelectStats`](crate::select::SelectStats),
//! [`CompilationUnit`](crate::CompilationUnit), [`PhaseTimings`]) gets
//! its counter fields and its [`SelectCounters`] impl from that list,
//! and every exporter (span attributes, `/metrics`, `BENCH_compile.json`)
//! walks [`COUNTERS`] or [`SelectCounters::counters`].

use std::fmt;
use std::time::Duration;

use record_isa::{Code, InsnKind, Loc};

/// Hands the selection work counters to `$callback`, after its own
/// tokens: one `name: "doc";` entry per counter, in report order. This
/// is the only place the counter set is written down — adding an entry
/// here adds the field to every counter struct, the span attribute, the
/// `record_<name>_total` series and the `BENCH_compile.json` key.
macro_rules! select_counters {
    ($callback:ident! { $($head:tt)* }) => {
        $callback! {
            { $($head)* }
            statements: "Statements selected (after tree decomposition).";
            variants: "Tree variants enumerated across all statements.";
            covered: "Variants that produced a legal cover.";
            interned_nodes: "Distinct tree nodes interned by the hash-consing pool.";
            dedup_hits: "Node constructions answered by the pool (allocation avoided).";
            labels_computed: "BURS label states computed from scratch.";
            labels_memoized: "BURS labellings answered from the memo cache.";
            variants_pruned: "Variants skipped by the cost-floor cutoff or a search cap.";
            search_steps: "Candidate rewrites generated; what `max_search_steps` caps.";
            shared_subtrees: "Soundly shareable multi-use subtrees in the block DAG.";
            shares_taken: "DAG sharing candidates computed once into a parked register.";
            recomputes_chosen: "DAG sharing candidates recomputed at every use instead.";
            probe_runs: "Simulator runs made by emit-time verification.";
        }
    };
}
pub(crate) use select_counters;

/// `select_counters!` callback: declares the given struct with its own
/// fields followed by one public `u64` field per counter, and implements
/// [`SelectCounters`] for it.
macro_rules! counter_struct {
    (
        { $(#[$attr:meta])* $vis:vis struct $name:ident $(<$lt:lifetime>)? { $($fields:tt)* } }
        $($counter:ident: $doc:literal;)*
    ) => {
        $(#[$attr])*
        $vis struct $name $(<$lt>)? {
            $($fields)*
            $(#[doc = $doc] pub $counter: u64,)*
        }

        impl $(<$lt>)? $crate::timing::SelectCounters for $name $(<$lt>)? {
            fn counters(&self) -> [(&'static str, u64); $crate::timing::COUNTERS.len()] {
                [$((stringify!($counter), self.$counter)),*]
            }

            fn counters_mut(&mut self) -> [&mut u64; $crate::timing::COUNTERS.len()] {
                [$(&mut self.$counter),*]
            }
        }
    };
}
pub(crate) use counter_struct;

/// `select_counters!` callback: the struct expression `Name { fields }`
/// with every counter field set to zero.
macro_rules! zero_counters {
    ({ $name:ident { $($fields:tt)* } } $($counter:ident: $doc:literal;)*) => {
        $name { $($fields)* $($counter: 0,)* }
    };
}
pub(crate) use zero_counters;

/// `select_counters!` callback: the [`COUNTERS`] table.
macro_rules! counter_table {
    ({} $($counter:ident: $doc:literal;)*) => {
        /// Every selection work counter, in report order.
        pub const COUNTERS: [Counter; [$(stringify!($counter)),*].len()] = [$(Counter {
            name: stringify!($counter),
            metric: concat!("record_", stringify!($counter), "_total"),
        }),*];
    };
}

select_counters!(counter_table! {});

/// One selection work counter of [`COUNTERS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// Field name; also the `select` span attribute and the
    /// `BENCH_compile.json` key.
    pub name: &'static str,
    /// The metrics series, `record_<name>_total`.
    pub metric: &'static str,
}

/// A struct carrying every counter of [`COUNTERS`] as a named `u64`
/// field (implemented by `select_counters!`, never by hand).
pub trait SelectCounters {
    /// The counters as `(name, value)` pairs, in [`COUNTERS`] order.
    fn counters(&self) -> [(&'static str, u64); COUNTERS.len()];

    /// The counter fields, in [`COUNTERS`] order.
    fn counters_mut(&mut self) -> [&mut u64; COUNTERS.len()];

    /// Adds `other`'s counters into `self`.
    fn add_counters(&mut self, other: &impl SelectCounters) {
        for (mine, (_, theirs)) in self.counters_mut().into_iter().zip(other.counters()) {
            *mine += theirs;
        }
    }
}

/// A snapshot of code-shape counters, taken before and after each pass so
/// a [`PassRecord`] can show what the pass actually did to the code.
///
/// Snapshots are additive: [`CodeStats::absorb`] sums them, so aggregated
/// records (a whole [`Session`](crate::Session)) stay meaningful as
/// totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeStats {
    /// Instructions (bundles count once).
    pub insns: usize,
    /// Code size in words.
    pub words: u32,
    /// Explicit no-ops.
    pub nops: usize,
    /// Sub-operations riding in parallel bundles (bundle fill).
    pub parallel_ops: usize,
    /// Distinct registers referenced.
    pub regs_used: usize,
}

impl CodeStats {
    /// Measures `code`.
    pub fn of(code: &Code) -> Self {
        let mut stats = CodeStats { words: code.size_words(), ..Default::default() };
        let mut regs = std::collections::HashSet::new();
        for insn in &code.insns {
            stats.insns += 1;
            count_insn(insn, &mut stats, &mut regs);
        }
        stats.regs_used = regs.len();
        stats
    }

    /// Adds `other` into `self` (for session-level aggregation).
    pub fn absorb(&mut self, other: &CodeStats) {
        self.insns += other.insns;
        self.words += other.words;
        self.nops += other.nops;
        self.parallel_ops += other.parallel_ops;
        self.regs_used = self.regs_used.max(other.regs_used);
    }
}

fn count_insn(
    insn: &record_isa::Insn,
    stats: &mut CodeStats,
    regs: &mut std::collections::HashSet<record_isa::RegId>,
) {
    if insn.text == "NOP" {
        stats.nops += 1;
    }
    if let InsnKind::Compute { dst, expr } = &insn.kind {
        if let Loc::Reg(r) = dst {
            regs.insert(*r);
        }
        for l in expr.reads() {
            if let Loc::Reg(r) = l {
                regs.insert(*r);
            }
        }
    }
    for p in &insn.parallel {
        stats.parallel_ops += 1;
        count_insn(p, stats, regs);
    }
}

/// One dynamically-registered pass's contribution to a compile (or, after
/// [`PhaseTimings::absorb`], to a whole batch/session).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassRecord {
    /// The pass name (as registered in the `PassPlan`).
    pub name: String,
    /// Wall-clock time spent in the pass.
    pub time: Duration,
    /// How many compiles ran this pass (1 for a single compile).
    pub runs: usize,
    /// Code shape before the pass (summed across runs).
    pub before: CodeStats,
    /// Code shape after the pass (summed across runs).
    pub after: CodeStats,
}

/// One graceful-degradation event: a best-effort pass failed (panic,
/// budget exhaustion or strict-verify violation) and was dropped from the
/// plan before the compile was retried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageRecord {
    /// The pass that was dropped.
    pub pass: String,
    /// The failure that caused the drop, rendered.
    pub reason: String,
}

/// The display phases after `parse` and `lower`, each with the passes
/// whose time it sums (the phase boundaries of Fig. 2; custom passes
/// count only towards `total`).
const PHASES: [(&str, &[&str]); 7] = [
    ("treeify", &["treeify"]),
    ("select", &["fold", "select"]),
    ("layout", &["layout", "offset"]),
    ("banks", &["banks"]),
    ("address", &["address"]),
    ("compact", &["compact", "hoist", "rpt"]),
    ("modes", &["modes"]),
];

select_counters!(counter_struct! {
    /// Wall-clock time and work counters of a compile, per pass.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct PhaseTimings {
        /// DFL lexing + parsing (zero when compiling from a prebuilt LIR).
        pub parse: Duration,
        /// AST → LIR lowering (zero when compiling from a prebuilt LIR).
        pub lower: Duration,
        /// End-to-end time of the compile (≥ the sum of the passes).
        pub total: Duration,
        /// Instructions in the final code.
        pub insns: usize,
        /// `true` when this "compile" was answered by the session's compile
        /// cache: no phase ran, every duration and counter is zero.
        /// [`Session`](crate::Session) counts it as a compile but keeps it
        /// out of the timing aggregate and the latency/size histograms,
        /// which describe work actually performed.
        pub from_cache: bool,
        /// Per-pass records in execution order, as registered by the
        /// `PassPlan` that drove the compile.
        pub passes: Vec<PassRecord>,
        /// Graceful-degradation trail: one record per best-effort pass the
        /// driver dropped to salvage this compile (empty on a clean compile).
        pub salvages: Vec<SalvageRecord>,
    }
});

impl PhaseTimings {
    /// Adds `other`'s durations and counters into `self`.
    pub fn absorb(&mut self, other: &PhaseTimings) {
        self.parse += other.parse;
        self.lower += other.lower;
        self.total += other.total;
        self.add_counters(other);
        self.insns += other.insns;
        for r in &other.passes {
            match self.passes.iter_mut().find(|p| p.name == r.name) {
                Some(p) => {
                    p.time += r.time;
                    p.runs += r.runs;
                    p.before.absorb(&r.before);
                    p.after.absorb(&r.after);
                }
                None => self.passes.push(r.clone()),
            }
        }
        self.salvages.extend(other.salvages.iter().cloned());
    }

    /// Total time of the passes named in `names`.
    fn pass_time(&self, names: &[&str]) -> Duration {
        self.passes.iter().filter(|p| names.contains(&p.name.as_str())).map(|p| p.time).sum()
    }

    /// The phases in pipeline order, with display names: the frontend,
    /// then the passes grouped at the phase boundaries of Fig. 2.
    pub fn phases(&self) -> [(&'static str, Duration); 9] {
        let mut out = [("parse", self.parse); 9];
        out[1] = ("lower", self.lower);
        for (slot, (name, passes)) in out[2..].iter_mut().zip(PHASES) {
            *slot = (name, self.pass_time(passes));
        }
        out
    }

    /// The time of the phase `name` of [`phases`](PhaseTimings::phases)
    /// (zero for an unknown name).
    pub fn phase(&self, name: &str) -> Duration {
        self.phases().into_iter().find(|(n, _)| *n == name).map_or(Duration::ZERO, |(_, d)| d)
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total.as_secs_f64().max(1e-12);
        writeln!(f, "  {:<10} {:>12} {:>7}", "phase", "time", "share")?;
        for (name, d) in self.phases() {
            if d.is_zero() {
                continue;
            }
            writeln!(
                f,
                "  {:<10} {:>12} {:>6.1}%",
                name,
                format_duration(d),
                100.0 * d.as_secs_f64() / total
            )?;
        }
        writeln!(f, "  {:<10} {:>12}", "total", format_duration(self.total))?;
        write!(f, "  {} instructions", self.insns)?;
        for (i, (name, value)) in self.counters().into_iter().enumerate() {
            let sep = if i % 4 == 0 { "\n  " } else { ", " };
            write!(f, "{sep}{name} {value}")?;
        }
        Ok(())
    }
}

fn format_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 10_000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{us:.1} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_taking(us: u64, statements: u64) -> PhaseTimings {
        let select = PassRecord {
            name: "select".into(),
            time: Duration::from_micros(us),
            runs: 1,
            ..Default::default()
        };
        PhaseTimings { statements, passes: vec![select], ..Default::default() }
    }

    #[test]
    fn absorb_is_additive() {
        let mut a = select_taking(10, 2);
        a.absorb(&select_taking(5, 3));
        assert_eq!(a.pass_time(&["select"]), Duration::from_micros(15));
        assert_eq!(a.passes.len(), 1, "records merge by pass name");
        assert_eq!(a.statements, 5);
    }

    #[test]
    fn phases_group_passes_at_the_phase_boundaries() {
        let mut t = select_taking(10, 1);
        for (name, us) in [("fold", 1), ("offset", 2), ("layout", 3), ("hoist", 4), ("custom", 5)] {
            let time = Duration::from_micros(us);
            t.passes.push(PassRecord { name: name.into(), time, runs: 1, ..Default::default() });
        }
        let phases: std::collections::HashMap<_, _> = t.phases().into_iter().collect();
        assert_eq!(phases["select"], Duration::from_micros(11));
        assert_eq!(phases["layout"], Duration::from_micros(5));
        assert_eq!(phases["compact"], Duration::from_micros(4));
        assert_eq!(phases["banks"], Duration::ZERO);
    }

    #[test]
    fn display_renders_nonempty_phases() {
        let t = PhaseTimings { total: Duration::from_micros(100), ..select_taking(80, 1) };
        let s = t.to_string();
        assert!(s.contains("select"), "{s}");
        assert!(!s.contains("banks"), "zero phases are elided: {s}");
    }
}
