//! The pass manager: the pipeline of Fig. 2 as first-class objects.
//!
//! Each phase of the backend — constant folding, CSE/treeify, BURS
//! selection, storage layout, offset assignment, bank assignment, AGU
//! addressing, compaction, invariant hoisting, mode insertion, hardware
//! repeat — is a named [`Pass`] over a [`CompilationUnit`]. A
//! [`PassPlan`] is an ordered list of passes and the compiler's only
//! configuration: start from the `O0`/`O1`/`O2` presets and edit them per
//! pass by name ([`PassPlan::without`], [`PassPlan::replacing`],
//! [`PassPlan::with_pass`]). The configurable built-in passes have public
//! constructors ([`select_pass`], [`compact_pass`], [`modes_pass`]).
//!
//! In *strict* mode (the default in debug builds and tests) the runner
//! verifies the unit between passes: [`Code::verify`] plus each pass's
//! own [`Pass::postcondition`]. A pass that breaks a structural invariant
//! therefore fails at its own boundary — as
//! [`CompileError::Verify`] carrying the pass name — instead of
//! surfacing later in the simulator.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use record_burg::Tables;
use record_ir::lir::{Lir, LirItem, StorageKind, VarInfo};
use record_ir::transform::RuleSet;
use record_ir::{fold, AssignStmt, Bank, Symbol};
use record_isa::{AddrMode, Code, Insn, InsnKind, Loc, StructureError, TargetDesc};
use record_opt::compact::ScheduleMode;
use record_opt::modes::ModeStrategy;
use record_trace::SpanRecorder;

use crate::pipeline::{convert_rpt, order_vars, order_vars_budgeted, Budgets};
use crate::select::{Emitter, SelectBudget, SelectStats};
use crate::timing::{CodeStats, PassRecord, PhaseTimings};
use crate::CompileError;

/// The state a compilation threads through the passes: the (rewritable)
/// LIR, the storage variables it accumulates, and the output [`Code`].
///
/// LIR-level passes (`fold`, `treeify`) rewrite [`lir`](Self::lir);
/// `select` consumes it into [`code`](Self::code); every later pass
/// rewrites `code` in place.
pub struct CompilationUnit<'a> {
    /// The target being compiled for.
    pub target: &'a TargetDesc,
    /// Shared BURS matcher tables for the target.
    pub tables: &'a Arc<Tables>,
    /// The program, in lowered form; LIR passes rewrite it.
    pub lir: Lir,
    /// Storage to lay out: program variables plus generated temporaries
    /// and spill scratch, in creation order.
    pub vars: Vec<VarInfo>,
    /// The output machine code (empty until `select` runs).
    pub code: Code,
    /// Statements selected (after tree decomposition).
    pub statements: usize,
    /// Tree variants enumerated across all statements.
    pub variants: usize,
    /// Variants that produced a legal cover.
    pub covered: usize,
    /// Distinct tree nodes interned by selection's hash-consing pool.
    pub interned_nodes: u64,
    /// Tree-node constructions answered by the pool (allocation avoided).
    pub dedup_hits: u64,
    /// BURS label states computed from scratch during selection.
    pub labels_computed: u64,
    /// BURS labellings answered from the memo cache.
    pub labels_memoized: u64,
    /// Generated variants skipped by the cost-floor short-circuit.
    pub variants_pruned: u64,
    /// Candidate rewrites generated by variant enumeration.
    pub search_steps: u64,
    /// Soundly shareable multi-use subtrees found by block DAG analysis.
    pub shared_subtrees: u64,
    /// DAG sharing candidates computed once into a parked register.
    pub shares_taken: u64,
    /// DAG sharing candidates recomputed at every use instead.
    pub recomputes_chosen: u64,
    /// Resource caps the passes must respect (copied from the plan by
    /// the runner before the first pass executes).
    pub budgets: Budgets,
    /// The compile's span recorder. The runner opens one span per pass
    /// on it; passes may attach extra attributes or events (e.g. the
    /// search passes record `search_steps`). Disabled (a no-op) unless
    /// the driver installed an enabled recorder — see
    /// [`Compiler::compile_recorded`](crate::Compiler::compile_recorded).
    pub trace: SpanRecorder,
}

impl<'a> CompilationUnit<'a> {
    /// Fresh unit for compiling `lir` on `target`.
    pub fn new(target: &'a TargetDesc, tables: &'a Arc<Tables>, lir: &Lir) -> Self {
        CompilationUnit {
            target,
            tables,
            vars: lir.vars.clone(),
            code: Code {
                insns: Vec::new(),
                layout: Default::default(),
                target: target.name.clone(),
                name: lir.name.to_string(),
            },
            lir: lir.clone(),
            statements: 0,
            variants: 0,
            covered: 0,
            interned_nodes: 0,
            dedup_hits: 0,
            labels_computed: 0,
            labels_memoized: 0,
            variants_pruned: 0,
            search_steps: 0,
            shared_subtrees: 0,
            shares_taken: 0,
            recomputes_chosen: 0,
            budgets: Budgets::unlimited(),
            trace: SpanRecorder::disabled(),
        }
    }
}

/// One named transformation of a [`CompilationUnit`].
pub trait Pass: Send + Sync {
    /// The registered name (used for display, enable/disable and
    /// [`CompileError::Verify`] attribution).
    fn name(&self) -> &'static str;

    /// Applies the pass.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] the underlying phase raises.
    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError>;

    /// Pass-specific invariant over the unit, checked *in addition to*
    /// [`Code::verify`] when the plan runs in strict mode.
    ///
    /// # Errors
    ///
    /// The violated invariant, attributed to this pass by the runner.
    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        let _ = unit;
        Ok(())
    }

    /// Whether the pass is a *best-effort* optimization the driver may
    /// drop to salvage a failing compile. Mandatory pipeline stages
    /// (and custom passes, by default) return `false`: their failure
    /// fails the compile outright.
    fn best_effort(&self) -> bool {
        false
    }

    /// A stable hash of the pass's *configuration* — everything beyond
    /// its name that changes the code it emits. Feeds
    /// [`PassPlan::fingerprint`], which in turn keys the compile cache:
    /// two plans whose passes agree on name **and** configuration
    /// produce identical code for identical input, so they may share
    /// cached output. The default (`0`) is correct for configuration-free
    /// passes; passes with knobs (selection rules, schedule mode, mode
    /// strategy) must override it. Must be stable across processes —
    /// derive it from field values, never from addresses or
    /// `DefaultHasher`.
    fn config_fingerprint(&self) -> u64 {
        0
    }
}

/// A declarative, ordered pass pipeline — the one configuration of a
/// compile.
///
/// [`o0`](PassPlan::o0)/[`o1`](PassPlan::o1)/[`o2`](PassPlan::o2) are the
/// presets; [`without`](PassPlan::without),
/// [`replacing`](PassPlan::replacing), [`with_pass`](PassPlan::with_pass)
/// and [`folding`](PassPlan::folding) edit a plan per pass — the ablation
/// bench drives every axis this way.
#[derive(Clone)]
pub struct PassPlan {
    passes: Vec<Arc<dyn Pass>>,
    strict: bool,
    budgets: Budgets,
    salvage: bool,
}

impl fmt::Debug for PassPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassPlan")
            .field("passes", &self.names())
            .field("strict", &self.strict)
            .field("budgets", &self.budgets)
            .field("salvage", &self.salvage)
            .finish()
    }
}

impl Default for PassPlan {
    fn default() -> Self {
        PassPlan::o2()
    }
}

impl PassPlan {
    /// A plan running `passes` in order: strict in debug builds, no
    /// budgets, salvaging on.
    fn of(passes: Vec<Arc<dyn Pass>>) -> Self {
        PassPlan {
            passes,
            strict: cfg!(debug_assertions),
            budgets: Budgets::unlimited(),
            salvage: true,
        }
    }

    /// `O0`: every optimization off — the naive macro-expander end of the
    /// ablation axis: the original trees only, no CSE, no memory-layout
    /// search, no compaction, a mode change before every use.
    pub fn o0() -> Self {
        PassPlan::of(vec![
            select_pass(RuleSet::none(), 1, false),
            Arc::new(LayoutPass),
            Arc::new(AddressPass),
            modes_pass(ModeStrategy::PerUse),
        ])
    }

    /// `O1`: code-level optimizations (variants, CSE, DAG covering,
    /// compaction, hardware repeat) without the memory-layout ones
    /// (offset and bank assignment).
    pub fn o1() -> Self {
        PassPlan::o2().without("offset").without("banks")
    }

    /// `O2`: everything on except constant folding, which the paper's
    /// Table 1 configuration leaves off (see [`folding`](PassPlan::folding)).
    pub fn o2() -> Self {
        PassPlan::of(vec![
            Arc::new(TreeifyPass),
            select_pass(RuleSet::all(), 32, true),
            Arc::new(LayoutPass),
            Arc::new(OffsetPass),
            Arc::new(BanksPass),
            Arc::new(AddressPass),
            compact_pass(None),
            Arc::new(HoistPass),
            modes_pass(ModeStrategy::Lazy),
            Arc::new(RptPass),
        ])
    }

    /// Puts constant folding (the `fold` pass) at the front of the plan.
    /// The paper states RECORD "does not contain any standard
    /// optimization technique (such as constant folding)", so no preset
    /// runs it.
    #[must_use]
    pub fn folding(mut self) -> Self {
        if !self.passes.iter().any(|p| p.name() == "fold") {
            self.passes.insert(0, Arc::new(FoldPass));
        }
        self
    }

    /// Removes every pass named `name`. Unknown names are a no-op, so
    /// ablation axes compose freely.
    #[must_use]
    pub fn without(mut self, name: &str) -> Self {
        self.passes.retain(|p| p.name() != name);
        self
    }

    /// Appends a (possibly custom) pass to the end of the plan.
    #[must_use]
    pub fn with_pass(mut self, pass: Arc<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Replaces the pass named `name` in place (first match) or appends
    /// when absent.
    #[must_use]
    pub fn replacing(mut self, name: &str, pass: Arc<dyn Pass>) -> Self {
        match self.passes.iter().position(|p| p.name() == name) {
            Some(ix) => self.passes[ix] = pass,
            None => self.passes.push(pass),
        }
        self
    }

    /// Sets strict inter-pass verification explicitly (defaults to on in
    /// debug builds, off in release).
    #[must_use]
    pub fn strict(mut self, on: bool) -> Self {
        self.strict = on;
        self
    }

    /// Whether the runner verifies between passes.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Sets the resource caps the passes run under.
    #[must_use]
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// The resource caps the passes run under.
    pub fn budgets(&self) -> &Budgets {
        &self.budgets
    }

    /// Sets the whole-compile wall-clock deadline: the runner checks it
    /// at every pass boundary and clamps each search budget to it, so a
    /// compile past `at` returns [`CompileError::Budget`] with resource
    /// `"deadline"` instead of running to completion. The earlier
    /// deadline wins when one is already set. Deliberately *excluded*
    /// from [`fingerprint`](PassPlan::fingerprint): a deadline decides
    /// whether a compile finishes, never what code it produces, so
    /// deadline-carrying plans still share cached code.
    #[must_use]
    pub fn deadline(mut self, at: Instant) -> Self {
        self.budgets = self.budgets.with_deadline(at);
        self
    }

    /// Enables or disables graceful degradation: with salvaging on (the
    /// default), a failing *best-effort* pass is dropped and the plan
    /// retried by [`Compiler::compile_recorded`](crate::Compiler::compile_recorded)
    /// instead of failing the compile.
    #[must_use]
    pub fn salvaging(mut self, on: bool) -> Self {
        self.salvage = on;
        self
    }

    /// Whether the driver may drop failing best-effort passes.
    pub fn allows_salvage(&self) -> bool {
        self.salvage
    }

    /// This plan with every best-effort pass removed — the plainest
    /// (mandatory-stages-only) pipeline it can degrade to; used as the
    /// reference compile when validating salvaged output.
    #[must_use]
    pub fn mandatory_only(&self) -> Self {
        let mut plan = self.clone();
        plan.passes.retain(|p| !p.best_effort());
        plan
    }

    /// The registered pass names, in execution order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The passes themselves.
    pub fn passes(&self) -> &[Arc<dyn Pass>] {
        &self.passes
    }

    /// A stable 64-bit fingerprint of everything about this plan that
    /// affects the code it produces: the ordered pass names, each
    /// pass's [`config_fingerprint`](Pass::config_fingerprint), the
    /// salvage switch, and the budgets (a tighter budget can change the
    /// outcome, so it keys the cache too). Strictness is *excluded* —
    /// it only adds verification, never changes output. Stable across
    /// processes: the compile cache persists it to disk.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = record_trace::codec::StableHasher::new();
        h.write_u64(self.passes.len() as u64);
        for pass in &self.passes {
            let name = pass.name();
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
            h.write_u64(pass.config_fingerprint());
        }
        h.write_u8(u8::from(self.salvage));
        let opt_usize = |h: &mut record_trace::codec::StableHasher, v: Option<usize>| match v {
            None => h.write_u8(0),
            Some(n) => {
                h.write_u8(1);
                h.write_u64(n as u64);
            }
        };
        let opt_u64 = |h: &mut record_trace::codec::StableHasher, v: Option<u64>| match v {
            None => h.write_u8(0),
            Some(n) => {
                h.write_u8(1);
                h.write_u64(n);
            }
        };
        opt_usize(&mut h, self.budgets.max_lir_nodes);
        opt_usize(&mut h, self.budgets.max_variants);
        opt_u64(&mut h, self.budgets.max_schedule_steps);
        opt_u64(&mut h, self.budgets.max_search_steps);
        opt_u64(&mut h, self.budgets.max_sim_steps);
        match self.budgets.pass_deadline {
            None => h.write_u8(0),
            Some(d) => {
                h.write_u8(1);
                h.write_u64(d.as_micros() as u64);
            }
        }
        h.finish()
    }

    /// Runs the plan over `unit`, filling `timings` with one
    /// [`PassRecord`] per executed pass.
    ///
    /// Each pass runs inside `catch_unwind`: a panic is converted to
    /// [`CompileError::Internal`] naming the pass, so a poisoned kernel
    /// reports an error instead of unwinding through the caller (the
    /// unit may be left half-rewritten — rebuild it before retrying).
    ///
    /// # Errors
    ///
    /// The first pass failure, or — in strict mode — the first
    /// [`CompileError::Verify`] naming the pass whose output broke an
    /// invariant.
    pub fn run(
        &self,
        unit: &mut CompilationUnit<'_>,
        timings: &mut PhaseTimings,
    ) -> Result<(), CompileError> {
        self.run_inner(unit, timings).map_err(|f| f.error)
    }

    /// [`run`](PassPlan::run) keeping failure attribution: which pass
    /// failed and whether it was best-effort (salvageable). The salvage
    /// loop in `Compiler::compile_recorded` keys off this.
    pub(crate) fn run_inner(
        &self,
        unit: &mut CompilationUnit<'_>,
        timings: &mut PhaseTimings,
    ) -> Result<(), PassFailure> {
        unit.budgets = self.budgets;
        if let Some(cap) = self.budgets.max_lir_nodes {
            let nodes = lir_nodes(&unit.lir.body);
            if nodes > cap {
                unit.trace.event(
                    "budget-exceeded",
                    &[("pass", "pipeline".into()), ("resource", "lir-nodes".into())],
                );
                return Err(PassFailure::anonymous(CompileError::Budget {
                    pass: "pipeline".into(),
                    resource: "lir-nodes".into(),
                }));
            }
        }
        for pass in &self.passes {
            // the whole-compile deadline is checked at every pass
            // boundary: a job admitted too late (or one whose earlier
            // passes ate the budget) stops here instead of running to
            // completion. Anonymous on purpose — retrying a blown
            // deadline via salvage would only burn more past-deadline
            // time.
            if let Some(hard) = self.budgets.hard_deadline {
                if Instant::now() >= hard {
                    unit.trace.event(
                        "budget-exceeded",
                        &[("pass", pass.name().into()), ("resource", "deadline".into())],
                    );
                    return Err(PassFailure::anonymous(CompileError::Budget {
                        pass: pass.name().into(),
                        resource: "deadline".into(),
                    }));
                }
            }
            let before = CodeStats::of(&unit.code);
            unit.trace.open(pass.name());
            let t = Instant::now();
            let outcome =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass.run(unit))) {
                    Ok(result) => result,
                    Err(payload) => Err(CompileError::Internal {
                        pass: pass.name().to_string(),
                        message: panic_message(payload.as_ref()),
                    }),
                };
            let time = t.elapsed();
            let outcome = outcome.and_then(|()| {
                if self.strict {
                    let attribute =
                        |error| CompileError::Verify { pass: pass.name().to_string(), error };
                    unit.code.verify().map_err(attribute)?;
                    pass.postcondition(unit).map_err(attribute)?;
                }
                Ok(())
            });
            let after = CodeStats::of(&unit.code);
            if unit.trace.is_enabled() {
                unit.trace.attr("insns_before", before.insns);
                unit.trace.attr("insns_after", after.insns);
                unit.trace.attr("words_before", before.words);
                unit.trace.attr("words_after", after.words);
                if let Err(error) = &outcome {
                    let event = match error {
                        CompileError::Budget { .. } => "budget-exceeded",
                        CompileError::Verify { .. } => "verify-failure",
                        CompileError::Internal { .. } => "pass-panic",
                        _ => "pass-error",
                    };
                    unit.trace.event(event, &[("error", error.to_string().into())]);
                    unit.trace.attr("error", error.to_string());
                }
            }
            unit.trace.close();
            outcome.map_err(|error| PassFailure {
                pass: Some(pass.name()),
                best_effort: pass.best_effort(),
                error,
            })?;
            timings.passes.push(PassRecord {
                name: pass.name().to_string(),
                time,
                runs: 1,
                before,
                after,
            });
        }
        if !self.strict {
            // the pre-pass-manager pipeline always verified the final
            // code; keep that guarantee even with inter-pass checks off
            unit.code.verify().map_err(|e| {
                PassFailure::anonymous(CompileError::Verify { pass: "pipeline".into(), error: e })
            })?;
        }
        timings.statements = unit.statements;
        timings.variants = unit.variants;
        timings.covered = unit.covered;
        timings.interned_nodes = unit.interned_nodes;
        timings.dedup_hits = unit.dedup_hits;
        timings.labels_computed = unit.labels_computed;
        timings.labels_memoized = unit.labels_memoized;
        timings.variants_pruned = unit.variants_pruned;
        timings.search_steps = unit.search_steps;
        timings.shared_subtrees = unit.shared_subtrees;
        timings.shares_taken = unit.shares_taken;
        timings.recomputes_chosen = unit.recomputes_chosen;
        timings.insns = unit.code.insns.len();
        Ok(())
    }
}

/// A pass failure with attribution, as produced by
/// [`PassPlan::run_inner`]: `pass` is `None` for failures outside any
/// single pass (the LIR-size gate, the final non-strict verify).
pub(crate) struct PassFailure {
    pub pass: Option<&'static str>,
    pub best_effort: bool,
    pub error: CompileError,
}

impl PassFailure {
    fn anonymous(error: CompileError) -> Self {
        PassFailure { pass: None, best_effort: false, error }
    }
}

/// Renders a caught panic payload (the `String`/`&str` cases cover
/// `panic!`/`assert!`; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Total tree-node count of a LIR body (the budgeted "DFG size").
fn lir_nodes(items: &[LirItem]) -> usize {
    fn tree_nodes(t: &record_ir::Tree) -> usize {
        match t {
            record_ir::Tree::Bin(_, a, b) => 1 + tree_nodes(a) + tree_nodes(b),
            record_ir::Tree::Un(_, a) => 1 + tree_nodes(a),
            _ => 1,
        }
    }
    items
        .iter()
        .map(|item| match item {
            LirItem::Assign(a) => 1 + tree_nodes(&a.src),
            LirItem::Loop { body, .. } => 1 + lir_nodes(body),
        })
        .sum()
}

/// A [`SearchBudget`](record_opt::SearchBudget) for one pass execution:
/// the given step cap plus the plan's per-pass wall-clock deadline,
/// clamped by the whole-compile hard deadline when one is set (whichever
/// expires first stops the search).
fn search_budget(max_steps: Option<u64>, budgets: &Budgets) -> record_opt::SearchBudget {
    let per_pass = budgets.pass_deadline.map(|d| Instant::now() + d);
    let deadline = match (per_pass, budgets.hard_deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    record_opt::SearchBudget::new(max_steps, deadline)
}

// --------------------------------------------------------------------------
// The built-in passes
// --------------------------------------------------------------------------

/// Constant folding over the LIR ([`record_ir::fold`]). Off by default:
/// the paper measures RECORD without "standard optimization techniques".
struct FoldPass;

impl Pass for FoldPass {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let width = unit.target.word_width;
        fn walk(items: &mut [LirItem], width: u32) {
            for item in items {
                match item {
                    LirItem::Assign(a) => a.src = fold::fold(&a.src, width),
                    LirItem::Loop { body, .. } => walk(body, width),
                }
            }
        }
        walk(&mut unit.lir.body, width);
        Ok(())
    }
}

/// Data-flow-graph construction and tree decomposition (CSE): shares
/// common subexpressions within each straight-line block, materializing
/// them as temporaries appended to the unit's storage.
struct TreeifyPass;

impl Pass for TreeifyPass {
    fn name(&self) -> &'static str {
        "treeify"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let mut next_temp = 0usize;
        fn flush(
            block: &mut Vec<AssignStmt>,
            out: &mut Vec<LirItem>,
            next_temp: &mut usize,
            vars: &mut Vec<VarInfo>,
        ) {
            if block.is_empty() {
                return;
            }
            let (forest, next) = record_ir::treeify::treeify(block, *next_temp);
            *next_temp = next;
            block.clear();
            for t in &forest.temps {
                vars.push(VarInfo {
                    name: t.clone(),
                    len: 1,
                    kind: StorageKind::Var,
                    bank: None,
                    is_fix: true,
                });
            }
            out.extend(forest.assigns.into_iter().map(LirItem::Assign));
        }
        fn walk(
            items: Vec<LirItem>,
            next_temp: &mut usize,
            vars: &mut Vec<VarInfo>,
        ) -> Vec<LirItem> {
            let mut out = Vec::with_capacity(items.len());
            let mut block: Vec<AssignStmt> = Vec::new();
            for item in items {
                match item {
                    LirItem::Assign(a) => block.push(a),
                    LirItem::Loop { var, count, body } => {
                        flush(&mut block, &mut out, next_temp, vars);
                        let body = walk(body, next_temp, vars);
                        out.push(LirItem::Loop { var, count, body });
                    }
                }
            }
            flush(&mut block, &mut out, next_temp, vars);
            out
        }
        let body = std::mem::take(&mut unit.lir.body);
        unit.lir.body = walk(body, &mut next_temp, &mut unit.vars);
        Ok(())
    }
}

/// Variant enumeration, BURS covering and code emission — the heart of
/// the paper's retargetable selection (§4). Consumes the LIR into
/// [`CompilationUnit::code`]; spill scratch cells join the storage list.
///
/// The default configuration streams interned variants out of a
/// hash-consing pool with memoized labelling; `reference` switches to
/// the boxed pre-interning path (see [`reference_select_pass`]).
struct SelectPass {
    rules: RuleSet,
    variant_limit: usize,
    reference: bool,
    /// Cover straight-line statement runs as block DAGs: soundly repeated
    /// subtrees may be computed once into a parked register
    /// ([`Emitter::emit_block`]). Off in the reference pass — it stays
    /// the per-statement golden oracle DAG output is validated against.
    dag_cover: bool,
}

/// The `select` pass: enumerates up to `variant_limit` algebraic variants
/// of each statement under `rules` and covers the cheapest. With
/// `dag_cover`, straight-line blocks are covered as DAGs, so a soundly
/// repeated subtree may be computed once into a parked register. The
/// presets use `(RuleSet::all(), 32, true)` (`O1`/`O2`) and
/// `(RuleSet::none(), 1, false)` (`O0`); swap in another configuration
/// with `plan.replacing("select", select_pass(..))`.
pub fn select_pass(rules: RuleSet, variant_limit: usize, dag_cover: bool) -> Arc<dyn Pass> {
    Arc::new(SelectPass { rules, variant_limit, reference: false, dag_cover })
}

/// A `select` pass running the boxed (pre-interning) selection path.
/// Produces byte-identical code to the default interned pass *with DAG
/// covering off* — the golden equivalence test compiles every kernel
/// through both, and the DAG-covering tests use it as the semantic
/// oracle. Swap it in with `plan.replacing("select", reference_select_pass(..))`.
pub fn reference_select_pass(rules: RuleSet, variant_limit: usize) -> Arc<dyn Pass> {
    Arc::new(SelectPass { rules, variant_limit, reference: true, dag_cover: false })
}

/// The `compact` pass: instruction fusion, then bundle scheduling in
/// `schedule` mode, or adjacent parallel-move packing when `None` (the
/// presets' choice).
pub fn compact_pass(schedule: Option<ScheduleMode>) -> Arc<dyn Pass> {
    Arc::new(CompactPass { schedule })
}

/// The `modes` pass: inserts mode changes with `strategy` (the presets
/// use [`ModeStrategy::Lazy`], except `O0`'s [`ModeStrategy::PerUse`]).
pub fn modes_pass(strategy: ModeStrategy) -> Arc<dyn Pass> {
    Arc::new(ModesPass { strategy })
}

impl Pass for SelectPass {
    fn name(&self) -> &'static str {
        "select"
    }

    fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = record_trace::codec::StableHasher::new();
        h.write_u8(u8::from(self.rules.commutativity));
        h.write_u8(u8::from(self.rules.associativity));
        h.write_u8(u8::from(self.rules.mul_shift));
        h.write_u8(u8::from(self.rules.sub_neg));
        h.write_u64(self.variant_limit as u64);
        h.write_u8(u8::from(self.reference));
        h.write_u8(u8::from(self.dag_cover));
        h.finish()
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let target = unit.target;
        let budgets = unit.budgets;
        let search = search_budget(None, &budgets);
        let budget = SelectBudget { search: Some(&search), max_variants: budgets.max_variants };
        let mut emitter = Emitter::with_tables(target, Arc::clone(unit.tables));
        emitter.set_reference(self.reference);
        emitter.set_search_cap(budgets.max_search_steps);
        let body = std::mem::take(&mut unit.lir.body);
        let mut insns: Vec<Insn> = Vec::new();
        let mut stats = SelectStats::default();
        let result = self.emit_rec(
            &body,
            target,
            &mut emitter,
            &mut insns,
            &mut unit.statements,
            &mut stats,
            &budget,
        );
        unit.lir.body = body;
        unit.variants += stats.variants;
        unit.covered += stats.covered;
        unit.interned_nodes += stats.interned_nodes;
        unit.dedup_hits += stats.dedup_hits;
        unit.labels_computed += stats.labels_computed;
        unit.labels_memoized += stats.labels_memoized;
        unit.variants_pruned += stats.variants_pruned;
        unit.search_steps += stats.search_steps;
        unit.shared_subtrees += stats.shared_subtrees;
        unit.shares_taken += stats.shares_taken;
        unit.recomputes_chosen += stats.recomputes_chosen;
        unit.trace.attr("search_steps", search.steps());
        if unit.trace.is_enabled() {
            unit.trace.attr("interned_nodes", stats.interned_nodes);
            unit.trace.attr("dedup_hits", stats.dedup_hits);
            unit.trace.attr("labels_computed", stats.labels_computed);
            unit.trace.attr("labels_memoized", stats.labels_memoized);
            unit.trace.attr("variants_pruned", stats.variants_pruned);
            unit.trace.attr("enum_steps", stats.search_steps);
            unit.trace.attr("shared_subtrees", stats.shared_subtrees);
            unit.trace.attr("shares_taken", stats.shares_taken);
            unit.trace.attr("recomputes_chosen", stats.recomputes_chosen);
        }
        result?;
        for s in emitter.scratch_symbols() {
            unit.vars.push(VarInfo {
                name: s.clone(),
                len: 1,
                kind: StorageKind::Var,
                bank: None,
                is_fix: true,
            });
        }
        unit.code.insns = insns;
        Ok(())
    }
}

impl SelectPass {
    #[allow(clippy::too_many_arguments)]
    fn emit_rec(
        &self,
        items: &[LirItem],
        target: &TargetDesc,
        emitter: &mut Emitter<'_>,
        out: &mut Vec<Insn>,
        statements: &mut usize,
        stats: &mut SelectStats,
        budget: &SelectBudget<'_>,
    ) -> Result<(), CompileError> {
        // Consecutive assignments form a straight-line block; DAG
        // covering works across it, so gather runs and flush at loop
        // boundaries (the same block notion `treeify` uses).
        let mut block: Vec<AssignStmt> = Vec::new();
        for item in items {
            match item {
                LirItem::Assign(stmt) => block.push(stmt.clone()),
                LirItem::Loop { var, count, body } => {
                    self.flush_block(&mut block, emitter, out, statements, stats, budget)?;
                    let init = target.loop_ctrl.init_cost;
                    out.push(Insn::ctrl(
                        InsnKind::LoopStart { var: var.clone(), count: *count },
                        format!("LOOP #{count}"),
                        init.words,
                        init.cycles,
                    ));
                    self.emit_rec(body, target, emitter, out, statements, stats, budget)?;
                    let end = target.loop_ctrl.end_cost;
                    out.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", end.words, end.cycles));
                }
            }
        }
        self.flush_block(&mut block, emitter, out, statements, stats, budget)
    }

    /// Emits a gathered straight-line block: as one DAG cover when the
    /// pass runs with `dag_cover`, otherwise statement by statement. Both
    /// paths check the budget once per statement.
    fn flush_block(
        &self,
        block: &mut Vec<AssignStmt>,
        emitter: &mut Emitter<'_>,
        out: &mut Vec<Insn>,
        statements: &mut usize,
        stats: &mut SelectStats,
        budget: &SelectBudget<'_>,
    ) -> Result<(), CompileError> {
        if block.is_empty() {
            return Ok(());
        }
        let stmts = std::mem::take(block);
        let (rules, limit) = (&self.rules, self.variant_limit);
        if self.dag_cover && !self.reference {
            out.extend(emitter.emit_block(&stmts, rules, limit, false, budget, stats)?);
        } else {
            for insns in emitter.emit_statements(&stmts, rules, limit, false, budget, stats)? {
                out.extend(insns);
            }
        }
        *statements += stmts.len();
        Ok(())
    }
}

/// Declaration-order storage layout: scalars first, then arrays, packed
/// from address zero per bank.
struct LayoutPass;

impl Pass for LayoutPass {
    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let ordered = order_vars(&unit.vars, &unit.code, false);
        unit.code.layout = record_opt::layout_in_order(
            ordered.iter().map(|v| (v.name.clone(), v.len, v.bank)),
            unit.target,
        )?;
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        placed(unit)
    }
}

/// Simple offset assignment: reorders scalars along the access sequence
/// (SOA) so auto-increment chains replace explicit pointer loads, then
/// rebuilds the layout in that order.
struct OffsetPass;

impl Pass for OffsetPass {
    fn name(&self) -> &'static str {
        "offset"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let budget = search_budget(unit.budgets.max_search_steps, &unit.budgets);
        let result = order_vars_budgeted(&unit.vars, &unit.code, true, &budget);
        unit.trace.attr("search_steps", budget.steps());
        let ordered = result.map_err(|e| CompileError::Budget {
            pass: "offset".into(),
            resource: e.resource.into(),
        })?;
        unit.code.layout = record_opt::layout_in_order(
            ordered.iter().map(|v| (v.name.clone(), v.len, v.bank)),
            unit.target,
        )?;
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        placed(unit)
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Memory-bank assignment for dual-bank targets: places array operand
/// pairs in opposite banks so parallel moves can dual-fetch.
struct BanksPass;

impl Pass for BanksPass {
    fn name(&self) -> &'static str {
        "banks"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        if unit.target.memory.banks == 2 {
            let fixed: HashMap<Symbol, Bank> =
                unit.vars.iter().filter_map(|v| v.bank.map(|b| (v.name.clone(), b))).collect();
            let budget = search_budget(unit.budgets.max_search_steps, &unit.budgets);
            let result =
                record_opt::assign_banks_budgeted(&mut unit.code, unit.target, &fixed, &budget);
            unit.trace.attr("search_steps", budget.steps());
            result.map_err(|e| CompileError::Budget {
                pass: "banks".into(),
                resource: e.resource.into(),
            })?;
        }
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        if unit.target.memory.banks < 2 {
            for entry in unit.code.layout.entries() {
                if entry.bank == Bank::Y {
                    return Err(StructureError::BadBank { sym: entry.sym.clone() });
                }
            }
        }
        placed(unit)
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// AGU addressing: resolves every symbolic memory operand to a direct or
/// register-indirect access, inserting address-register bookkeeping.
struct AddressPass;

impl Pass for AddressPass {
    fn name(&self) -> &'static str {
        "address"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::assign_addresses(&mut unit.code, unit.target)?;
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        // nothing may remain unresolved once addressing has run
        for (i, insn) in unit.code.insns.iter().enumerate() {
            if has_unresolved(insn) {
                return Err(StructureError::UnresolvedOperand { index: i });
            }
        }
        Ok(())
    }
}

/// Compaction: instruction fusion plus either list scheduling or
/// adjacent parallel-move packing, per the plan's [`ScheduleMode`].
struct CompactPass {
    schedule: Option<ScheduleMode>,
}

impl Pass for CompactPass {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = record_trace::codec::StableHasher::new();
        match self.schedule {
            None => h.write_u8(0),
            Some(ScheduleMode::List) => h.write_u8(1),
            Some(ScheduleMode::BranchAndBound { max_segment }) => {
                h.write_u8(2);
                h.write_u64(max_segment as u64);
            }
        }
        h.finish()
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::fuse(&mut unit.code, unit.target);
        match self.schedule {
            Some(mode) => {
                let budget = search_budget(unit.budgets.max_schedule_steps, &unit.budgets);
                let result =
                    record_opt::schedule_budgeted(&mut unit.code, unit.target, mode, &budget);
                unit.trace.attr("search_steps", budget.steps());
                result.map_err(|e| CompileError::Budget {
                    pass: "compact".into(),
                    resource: e.resource.into(),
                })?;
            }
            None => {
                record_opt::pack_moves(&mut unit.code, unit.target);
            }
        }
        Ok(())
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Loop-invariant prefix hoisting (runs only when compaction does, as in
/// the original pipeline).
struct HoistPass;

impl Pass for HoistPass {
    fn name(&self) -> &'static str {
        "hoist"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::hoist_invariant_prefix(&mut unit.code);
        Ok(())
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Residual control: inserts the mode-change instructions each
/// instruction's `mode_req` demands, lazily or per use.
struct ModesPass {
    strategy: ModeStrategy,
}

impl Pass for ModesPass {
    fn name(&self) -> &'static str {
        "modes"
    }

    fn config_fingerprint(&self) -> u64 {
        match self.strategy {
            ModeStrategy::Lazy => 1,
            ModeStrategy::PerUse => 2,
        }
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::insert_mode_changes(&mut unit.code, unit.target, self.strategy);
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        verify_modes(&unit.code, unit.target)
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Hardware-repeat conversion: single-instruction loops become
/// `RPT`-style zero-overhead repeats where the target supports them.
struct RptPass;

impl Pass for RptPass {
    fn name(&self) -> &'static str {
        "rpt"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        convert_rpt(&mut unit.code, unit.target);
        Ok(())
    }

    fn best_effort(&self) -> bool {
        true
    }
}

// --------------------------------------------------------------------------
// Shared postcondition helpers
// --------------------------------------------------------------------------

/// Every memory operand's base symbol must be placed in the layout
/// (spill pointer cells are appended by the address pass itself, so this
/// holds after every layout-shaping pass).
fn placed(unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
    for insn in &unit.code.insns {
        let mut err = None;
        visit_mems(insn, &mut |m| {
            if err.is_none() && unit.code.layout.entry(&m.base).is_none() {
                err = Some(StructureError::Unplaced { sym: m.base.clone() });
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

fn has_unresolved(insn: &Insn) -> bool {
    let mut any = false;
    visit_mems(insn, &mut |m| {
        if m.mode == AddrMode::Unresolved {
            any = true;
        }
    });
    any
}

fn visit_mems(insn: &Insn, f: &mut impl FnMut(&record_isa::MemLoc)) {
    if let InsnKind::Compute { dst, expr } = &insn.kind {
        for l in expr.reads() {
            if let Loc::Mem(m) = l {
                f(m);
            }
        }
        if let Loc::Mem(m) = dst {
            f(m);
        }
    }
    for p in &insn.parallel {
        visit_mems(p, f);
    }
}

/// Linear mode-state scan: starting from the target's power-on defaults,
/// every instruction's `mode_req` must hold under the `SetMode`s inserted
/// so far, and the state at each loop back edge must equal the state at
/// loop entry (otherwise iterations would run under varying modes).
fn verify_modes(code: &Code, target: &TargetDesc) -> Result<(), StructureError> {
    let mut state: Vec<bool> = target.modes.iter().map(|m| m.default_on).collect();
    let mut stack: Vec<Vec<bool>> = Vec::new();
    for (i, insn) in code.insns.iter().enumerate() {
        match &insn.kind {
            InsnKind::SetMode { mode, on } => match state.get_mut(*mode) {
                Some(slot) => *slot = *on,
                None => return Err(StructureError::UnknownMode { mode: *mode }),
            },
            InsnKind::LoopStart { .. } => stack.push(state.clone()),
            InsnKind::LoopEnd => {
                let entry = stack.pop().ok_or(StructureError::UnmatchedLoopEnd { index: i })?;
                if let Some(mode) = state.iter().zip(&entry).position(|(a, b)| a != b) {
                    return Err(StructureError::ModeLoopImbalance { index: i, mode });
                }
            }
            _ => {}
        }
        if let Some((mode, on)) = insn.mode_req {
            match state.get(mode) {
                Some(&actual) if actual == on => {}
                Some(_) => return Err(StructureError::ModeUnsatisfied { index: i, mode }),
                None => return Err(StructureError::UnknownMode { mode }),
            }
        }
    }
    Ok(())
}
