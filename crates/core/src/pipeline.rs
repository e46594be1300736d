//! The RECORD compiler pipeline (Fig. 2 of the paper).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use record_burg::Tables;
use record_ir::lir::{Lir, VarInfo};
use record_ir::{dfl, lower, Symbol};
use record_isa::netlist::Netlist;
use record_isa::{Code, Insn, InsnKind, Loc, TargetDesc};
use record_ise::ToTargetOptions;
use record_trace::SpanRecorder;

use crate::timing::{PhaseTimings, SalvageRecord};
use crate::{CompileError, PassPlan};

/// Resource budgets for one compilation: hard caps that turn the
/// superlinear searches (variant enumeration, branch-and-bound
/// compaction, offset/bank search) and oversized inputs into a prompt
/// [`CompileError::Budget`] instead of a hang or memory blow-up.
///
/// Every field is optional; the default ([`Budgets::unlimited`]) changes
/// nothing. [`Budgets::service`] is a preset sized for compiling
/// untrusted kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Cap on LIR tree nodes entering the backend (checked before the
    /// first pass; resource `"lir-nodes"`).
    pub max_lir_nodes: Option<usize>,
    /// Cap on tree variants enumerated across the whole program during
    /// selection (resource `"variants"`).
    pub max_variants: Option<usize>,
    /// Step cap for compaction's branch-and-bound scheduler (resource
    /// `"steps"` on pass `compact`).
    pub max_schedule_steps: Option<u64>,
    /// Step cap for the offset- and bank-assignment searches (resource
    /// `"steps"` on passes `offset`/`banks`).
    pub max_search_steps: Option<u64>,
    /// Wall-clock deadline applied to each search-based pass
    /// individually (resource `"deadline"`).
    pub pass_deadline: Option<Duration>,
    /// Absolute wall-clock deadline for the *whole* compile: checked
    /// before every pass and folded into each pass's search budget, so
    /// a job admitted late (a queued batch slot, a daemon request) stops
    /// promptly with `Budget { resource: "deadline" }` instead of
    /// running to completion. Excluded from
    /// [`PassPlan::fingerprint`](crate::PassPlan::fingerprint): a deadline only decides *whether*
    /// a compile finishes, never what code it produces, so cached code
    /// stays shareable across requests with different deadlines.
    pub hard_deadline: Option<std::time::Instant>,
    /// Simulator step cap used when validating salvaged output
    /// bit-exactly (defaults to [`record_sim::DEFAULT_MAX_STEPS`]).
    pub max_sim_steps: Option<u64>,
}

impl Budgets {
    /// No caps at all — identical behavior to the pre-budget pipeline.
    pub fn unlimited() -> Self {
        Budgets::default()
    }

    /// A preset sized for a service compiling untrusted kernels: large
    /// enough that every DSPStone kernel compiles untouched, small
    /// enough that adversarial inputs fail in well under a second.
    pub fn service() -> Self {
        Budgets {
            max_lir_nodes: Some(1_000_000),
            max_variants: Some(1_000_000),
            max_schedule_steps: Some(5_000_000),
            max_search_steps: Some(20_000_000),
            pass_deadline: Some(Duration::from_secs(10)),
            hard_deadline: None,
            max_sim_steps: Some(record_sim::DEFAULT_MAX_STEPS),
        }
    }

    /// This budget set with the whole-compile wall-clock deadline set to
    /// `at` (the earlier one wins when one is already set).
    #[must_use]
    pub fn with_deadline(mut self, at: std::time::Instant) -> Self {
        self.hard_deadline = Some(match self.hard_deadline {
            Some(existing) => existing.min(at),
            None => at,
        });
        self
    }
}

/// A generated compiler for one target.
///
/// See the [crate docs](crate) for the full picture; in short:
///
/// ```
/// use record::Compiler;
///
/// let compiler = Compiler::for_target(record_isa::targets::tic25::target())?;
/// let code = compiler.compile_source(
///     "program p; var x, y: fix; begin y := x + 1; end",
/// )?;
/// assert_eq!(code.target, "tic25");
/// # Ok::<(), record::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    target: TargetDesc,
    /// BURS matcher tables, generated once per compiler and shared (via
    /// `Arc`) with every `Emitter` this compiler creates — including
    /// emitters running concurrently on other threads. Cloning a
    /// `Compiler` clones the handle, not the tables.
    tables: Arc<Tables>,
    /// Lazily computed [`stable_fingerprint`](Compiler::stable_fingerprint);
    /// cloning a compiler keeps the cached value.
    fingerprint: OnceLock<u64>,
}

impl Compiler {
    /// Generates a compiler from an explicit instruction-set description.
    ///
    /// The BURS matcher tables are generated here, once; every subsequent
    /// compile reuses them.
    ///
    /// # Errors
    ///
    /// [`CompileError::Target`] if the description fails validation.
    pub fn for_target(target: TargetDesc) -> Result<Self, CompileError> {
        target.validate().map_err(|e| CompileError::Target(crate::TargetError::Invalid(e)))?;
        let tables = Arc::new(Tables::build(&target));
        Ok(Compiler { target, tables, fingerprint: OnceLock::new() })
    }

    /// Generates a compiler from a target description plus
    /// **pre-built** BURS tables — the warm-start path: tables
    /// deserialized from the on-disk cache skip
    /// [`Tables::build`] entirely.
    ///
    /// # Errors
    ///
    /// [`CompileError::Target`] if the description fails validation or
    /// the tables do not structurally match it (wrong rule count,
    /// nonterminal count, or out-of-range rule ids — e.g. tables cached
    /// for a different revision of the target).
    pub fn with_tables(target: TargetDesc, tables: Arc<Tables>) -> Result<Self, CompileError> {
        target.validate().map_err(|e| CompileError::Target(crate::TargetError::Invalid(e)))?;
        if !tables.is_consistent_with(&target) {
            return Err(CompileError::Target(crate::TargetError::Invalid(format!(
                "pre-built BURS tables do not match target `{}`",
                target.name
            ))));
        }
        Ok(Compiler { target, tables, fingerprint: OnceLock::new() })
    }

    /// Generates a compiler from an RT-level netlist via instruction-set
    /// extraction — the full left branch of Fig. 2.
    ///
    /// Returns the compiler and the number of extracted instructions that
    /// could not be mapped to grammar rules.
    ///
    /// # Errors
    ///
    /// [`CompileError::Target`] if extraction or conversion fails.
    pub fn from_netlist(
        name: &str,
        netlist: &Netlist,
        opts: &ToTargetOptions,
    ) -> Result<(Self, usize), CompileError> {
        let insns = record_ise::normalize(
            record_ise::extract(netlist)
                .map_err(|e| CompileError::Target(crate::TargetError::Invalid(e)))?,
        );
        let (target, skipped) = record_ise::to_target(name, netlist, &insns, opts)
            .map_err(|e| CompileError::Target(crate::TargetError::Invalid(e)))?;
        let tables = Arc::new(Tables::build(&target));
        Ok((Compiler { target, tables, fingerprint: OnceLock::new() }, skipped))
    }

    /// The target this compiler was generated for.
    pub fn target(&self) -> &TargetDesc {
        &self.target
    }

    /// The generated BURS matcher tables (shared, immutable).
    pub fn tables(&self) -> &Arc<Tables> {
        &self.tables
    }

    /// A stable 64-bit fingerprint of the target description — the
    /// cross-process half of a compile-cache key and the name of the
    /// target's on-disk BURS table file. Computed once (FNV-1a over the
    /// `TargetDesc`'s `Hash` derivation, *not* the randomly keyed
    /// `DefaultHasher`) and cached in the compiler.
    pub fn stable_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            let mut h = record_trace::codec::StableHasher::new();
            self.target.hash(&mut h);
            h.finish()
        })
    }

    /// Parses, lowers and compiles a mini-DFL source text with the `O2`
    /// preset — the quick-start entry point.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_source(&self, source: &str) -> Result<Code, CompileError> {
        let lir = lower::lower(&dfl::parse(source)?)?;
        self.compile(&lir, &PassPlan::o2())
    }

    /// Compiles a lowered program by running `plan`.
    ///
    /// # Errors
    ///
    /// See [`compile_recorded`](Compiler::compile_recorded).
    pub fn compile(&self, lir: &Lir, plan: &PassPlan) -> Result<Code, CompileError> {
        let mut recorder = SpanRecorder::disabled();
        self.compile_recorded(lir, plan, &mut recorder).map(|(code, _)| code)
    }

    /// Compiles a lowered program by running `plan`, reporting per-pass
    /// timings and before/after code statistics — the pipeline primitive
    /// every other entry point delegates to.
    ///
    /// Spans go to the caller's `recorder`: one `compile` span
    /// (attributes `kernel`, `target`, and on completion `insns`/`words`
    /// or `error`) whose children are the executed passes, with
    /// `salvage` events marking every dropped best-effort pass. The
    /// caller keeps ownership of the recorder and of where its spans end
    /// up; with a disabled recorder the cost is a branch per pass.
    ///
    /// When a *best-effort* pass (an optimization: offset, banks,
    /// compact, hoist, modes, rpt) panics, fails strict verification or
    /// exhausts its budget, the compile is **salvaged**: the plan is
    /// retried from a fresh unit with that pass removed, the event is
    /// recorded in [`PhaseTimings::salvages`], and the degraded output
    /// is validated bit-exactly against a mandatory-passes-only compile
    /// on the simulator. Mandatory passes (fold, treeify, select,
    /// layout, address) and custom passes still hard-fail. Salvaging can
    /// be disabled per plan with [`PassPlan::salvaging`].
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; in strict plans a broken pass surfaces as
    /// [`CompileError::Verify`] naming the pass,
    /// [`CompileError::Internal`] reports a panicking pass that could not
    /// be salvaged (or whose salvage failed validation) and
    /// [`CompileError::Budget`] an exhausted resource cap.
    pub fn compile_recorded(
        &self,
        lir: &Lir,
        plan: &PassPlan,
        recorder: &mut SpanRecorder,
    ) -> Result<(Code, PhaseTimings), CompileError> {
        let start = Instant::now();
        recorder.open("compile");
        recorder.attr("kernel", lir.name.to_string());
        recorder.attr("target", self.target.name.clone());
        let mut plan = plan.clone();
        let mut salvages: Vec<SalvageRecord> = Vec::new();
        let result = loop {
            // always restart from a fresh unit: a panicking pass may
            // have left the previous unit half-rewritten
            let mut timings = PhaseTimings::default();
            let mut unit = crate::pass::CompilationUnit::new(&self.target, &self.tables, lir);
            // the recorder rides inside the unit while the passes run
            // (its open `compile` span survives salvage retries)
            unit.trace = std::mem::take(recorder);
            let run = plan.run_inner(&mut unit, &mut timings);
            *recorder = std::mem::take(&mut unit.trace);
            match run {
                Ok(()) => {
                    if !salvages.is_empty() {
                        if let Err(e) = self.validate_salvage(lir, &plan, &unit.code, &salvages) {
                            break Err(e);
                        }
                    }
                    timings.salvages = salvages;
                    timings.total = start.elapsed();
                    break Ok((unit.code, timings));
                }
                Err(failure) => {
                    let pass = match failure.pass {
                        Some(name) if failure.best_effort && plan.allows_salvage() => name,
                        _ => break Err(failure.error),
                    };
                    recorder.event(
                        "salvage",
                        &[("pass", pass.into()), ("reason", failure.error.to_string().into())],
                    );
                    salvages.push(SalvageRecord {
                        pass: pass.to_string(),
                        reason: failure.error.to_string(),
                    });
                    plan = plan.without(pass);
                }
            }
        };
        match &result {
            Ok((code, _)) => {
                recorder.attr("insns", code.insns.len());
                recorder.attr("words", code.size_words());
            }
            Err(e) => recorder.attr("error", e.to_string()),
        }
        recorder.close();
        result
    }

    /// Bit-exact validation of a salvaged compile: the same LIR is
    /// compiled with every best-effort pass stripped (mandatory passes
    /// only — the plainest code this plan can produce) and both programs
    /// run on the simulator with deterministic pseudo-random inputs; any
    /// output divergence rejects the salvage.
    fn validate_salvage(
        &self,
        lir: &Lir,
        plan: &PassPlan,
        salvaged: &Code,
        salvages: &[SalvageRecord],
    ) -> Result<(), CompileError> {
        let culprit = salvages.last().map(|s| s.pass.clone()).unwrap_or_default();
        let fail = |message: String| CompileError::Internal { pass: culprit.clone(), message };

        let baseline_plan = plan.mandatory_only();
        let mut timings = PhaseTimings::default();
        let mut unit = crate::pass::CompilationUnit::new(&self.target, &self.tables, lir);
        baseline_plan
            .run(&mut unit, &mut timings)
            .map_err(|e| fail(format!("salvage validation baseline failed to compile: {e}")))?;

        let inputs = deterministic_inputs(lir);
        let max_steps = plan.budgets().max_sim_steps.unwrap_or(record_sim::DEFAULT_MAX_STEPS);
        let run = |code: &Code, label: &str| {
            record_sim::run_program_with_steps(code, &self.target, &inputs, max_steps)
                .map(|(out, _)| out)
                .map_err(|e| fail(format!("salvage validation: {label} run failed: {e}")))
        };
        let got = run(salvaged, "salvaged")?;
        let want = run(&unit.code, "baseline")?;
        for v in &lir.vars {
            if got.get(&v.name) != want.get(&v.name) {
                return Err(fail(format!(
                    "salvage validation mismatch on `{}`: {:?} vs baseline {:?}",
                    v.name,
                    got.get(&v.name),
                    want.get(&v.name)
                )));
            }
        }
        Ok(())
    }
}

/// Deterministic pseudo-random inputs for salvage validation: every
/// `in` variable gets splitmix64-derived values, identical across runs.
fn deterministic_inputs(lir: &Lir) -> HashMap<Symbol, Vec<i64>> {
    let mut state = 0x5EED_BA5E_D00D_F00Du64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    lir.vars
        .iter()
        .filter(|v| v.kind == record_ir::lir::StorageKind::In)
        .map(|v| {
            let values = (0..v.len.max(1)).map(|_| (next() % 65_536) as i64 - 32_768).collect();
            (v.name.clone(), values)
        })
        .collect()
}

/// Orders variables for layout: scalars first (SOA order when enabled,
/// else declaration order), then arrays.
///
/// Every variable appears exactly once in the result, even if the input
/// carries duplicate names (e.g. a program variable colliding with a
/// generated temporary) or the SOA access sequence mentions a symbol
/// repeatedly; zero-length variables are kept (they occupy a name but no
/// storage) rather than silently dropped from the layout.
pub(crate) fn order_vars(vars: &[VarInfo], code: &Code, soa: bool) -> Vec<VarInfo> {
    order_vars_budgeted(vars, code, soa, &record_opt::SearchBudget::unlimited())
        .expect("unlimited budget never fires")
}

/// [`order_vars`] with the SOA search running under a [`record_opt::SearchBudget`].
pub(crate) fn order_vars_budgeted(
    vars: &[VarInfo],
    code: &Code,
    soa: bool,
    budget: &record_opt::SearchBudget,
) -> Result<Vec<VarInfo>, record_opt::BudgetExceeded> {
    let by_name: HashMap<&Symbol, &VarInfo> = vars.iter().map(|v| (&v.name, v)).collect();
    let mut out: Vec<VarInfo> = Vec::with_capacity(vars.len());
    let mut seen: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
    if soa {
        // scalar access sequence, in code order
        let mut accesses: Vec<Symbol> = Vec::new();
        for insn in &code.insns {
            collect_scalar_accesses(insn, &by_name, &mut accesses);
        }
        let order = record_opt::soa_order_budgeted(&accesses, budget)?;
        for sym in &order {
            if let Some(v) = by_name.get(sym) {
                if seen.insert(v.name.clone()) {
                    out.push((*v).clone());
                }
            }
        }
    }
    // remaining scalars (and zero-length placeholders) in declaration
    // order, then arrays
    for v in vars {
        if v.len <= 1 && seen.insert(v.name.clone()) {
            out.push(v.clone());
        }
    }
    for v in vars {
        if v.len > 1 && seen.insert(v.name.clone()) {
            out.push(v.clone());
        }
    }
    Ok(out)
}

fn collect_scalar_accesses(
    insn: &Insn,
    by_name: &HashMap<&Symbol, &VarInfo>,
    out: &mut Vec<Symbol>,
) {
    if let InsnKind::Compute { dst, expr } = &insn.kind {
        for l in expr.reads() {
            if let Loc::Mem(m) = l {
                if m.index.is_none() && by_name.get(&m.base).map(|v| v.len) == Some(1) {
                    out.push(m.base.clone());
                }
            }
        }
        if let Loc::Mem(m) = dst {
            if m.index.is_none() && by_name.get(&m.base).map(|v| v.len) == Some(1) {
                out.push(m.base.clone());
            }
        }
    }
    for p in &insn.parallel {
        collect_scalar_accesses(p, by_name, out);
    }
}

/// Replaces `[LoopStart; single repeatable insn; LoopEnd]` with
/// `[Rpt; insn]` where the target supports hardware repeat; returns the
/// number of conversions.
pub fn convert_rpt(code: &mut Code, target: &TargetDesc) -> u32 {
    let Some(rpt) = &target.loop_ctrl.rpt else {
        return 0;
    };
    let mut converted = 0u32;
    let insns = std::mem::take(&mut code.insns);
    let mut out: Vec<Insn> = Vec::with_capacity(insns.len());
    let mut i = 0usize;
    while i < insns.len() {
        if i + 2 < insns.len() {
            if let (
                InsnKind::LoopStart { var, count },
                InsnKind::Compute { .. },
                InsnKind::LoopEnd,
            ) = (&insns[i].kind, &insns[i + 1].kind, &insns[i + 2].kind)
            {
                let body = &insns[i + 1];
                let eligible =
                    *count >= 1 && *count <= rpt.max_count && !references_counter(body, var);
                if eligible {
                    out.push(Insn::ctrl(
                        InsnKind::Rpt { count: *count },
                        format!("RPTK #{count}"),
                        rpt.cost.words,
                        rpt.cost.cycles,
                    ));
                    out.push(body.clone());
                    converted += 1;
                    i += 3;
                    continue;
                }
            }
        }
        out.push(insns[i].clone());
        i += 1;
    }
    code.insns = out;
    converted
}

/// `true` if any operand still resolves through the loop counter
/// symbolically (such a loop cannot become a hardware repeat).
fn references_counter(insn: &Insn, var: &Symbol) -> bool {
    if let InsnKind::Compute { dst, expr } = &insn.kind {
        let unresolved = |m: &record_isa::MemLoc| {
            m.index.as_ref() == Some(var) && m.mode == record_isa::AddrMode::Unresolved
        };
        if expr.reads().iter().any(|l| l.as_mem().map(unresolved).unwrap_or(false)) {
            return true;
        }
        if let Loc::Mem(m) = dst {
            if unresolved(m) {
                return true;
            }
        }
    }
    insn.parallel.iter().any(|p| references_counter(p, var))
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::lir::StorageKind;
    use record_ir::Bank;
    use record_opt::modes::ModeStrategy;
    use record_sim::run_program;
    use std::collections::HashMap as Map;

    fn tic25_compiler() -> Compiler {
        Compiler::for_target(record_isa::targets::tic25::target()).unwrap()
    }

    const FIR_SRC: &str = "
        program fir;
        const N = 8;
        in x: fix[N];
        in c: fix[N];
        out y: fix;
        begin
          y := 0;
          for i in 0..N-1 loop
            y := y + c[i] * x[i];
          end loop;
        end
    ";

    #[test]
    fn compiles_and_validates_fir() {
        let compiler = tic25_compiler();
        let code = compiler.compile_source(FIR_SRC).unwrap();
        code.verify().unwrap();
        // run against the reference dot product
        let x: Vec<i64> = (1..=8).collect();
        let c: Vec<i64> = (1..=8).map(|v| v * 3).collect();
        let expect: i64 = x.iter().zip(&c).map(|(a, b)| a * b).sum();
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("x"), x), (Symbol::new("c"), c)].into_iter().collect();
        let (out, result) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![expect]);
        assert!(result.cycles > 0);
    }

    #[test]
    fn optimized_is_never_larger_than_unoptimized() {
        let compiler = tic25_compiler();
        let ast = dfl::parse(FIR_SRC).unwrap();
        let lir = lower::lower(&ast).unwrap();
        let optimized = compiler.compile(&lir, &PassPlan::o2()).unwrap();
        let plain = compiler.compile(&lir, &PassPlan::o0()).unwrap();
        assert!(
            optimized.size_words() <= plain.size_words(),
            "opt {} vs plain {}",
            optimized.size_words(),
            plain.size_words()
        );
    }

    #[test]
    fn plans_produce_equivalent_results() {
        let compiler = tic25_compiler();
        let ast = dfl::parse(FIR_SRC).unwrap();
        let lir = lower::lower(&ast).unwrap();
        let x: Vec<i64> = (0..8).map(|v| v * 7 - 11).collect();
        let c: Vec<i64> = (0..8).map(|v| 5 - v).collect();
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("x"), x.clone()), (Symbol::new("c"), c.clone())].into_iter().collect();
        let expect: i64 = x.iter().zip(&c).map(|(a, b)| a * b).sum();
        for plan in [
            PassPlan::o2(),
            PassPlan::o0(),
            PassPlan::o2().without("compact").without("hoist"),
            PassPlan::o2().without("rpt"),
            PassPlan::o2().without("offset"),
            PassPlan::o2().folding(),
        ] {
            let code = compiler.compile(&lir, &plan).unwrap();
            let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
            assert_eq!(out[&Symbol::new("y")], vec![expect], "plan {plan:?}");
        }
    }

    #[test]
    fn from_netlist_end_to_end() {
        // Fig. 2's left branch: netlist → ISE → compiler → code → simulator
        let netlist = record_ise::demo::acc_machine_netlist();
        let (compiler, _skipped) =
            Compiler::from_netlist("accgen", &netlist, &Default::default()).unwrap();
        let code = compiler
            .compile_source("program p; var a, b, y: fix; begin y := a + b - 3; end")
            .unwrap();
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![10]), (Symbol::new("b"), vec![20])].into_iter().collect();
        let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![27]);
    }

    #[test]
    fn rpt_conversion_fires_on_single_insn_loops() {
        let compiler = tic25_compiler();
        // y-accumulation compiles to >1 body insn; a pure copy loop
        // becomes LAC/SACL per element — still 2 insns. A constant fill
        // is 2 insns too (LACK/SACL). Use an array copy shifted so the
        // body after selection is LAC *ar+ ; SACL *ar+ — 2 insns; RPT
        // cannot fire. So check the negative case is handled gracefully
        // and the positive case via a hand-built loop.
        let code = compiler
            .compile_source(
                "program p; const N = 4; var a: fix[N]; var b: fix[N];
                 begin for i in 0..N-1 loop b[i] := a[i]; end loop; end",
            )
            .unwrap();
        code.verify().unwrap();

        // hand-built single-insn loop
        let target = compiler.target().clone();
        let mut code2 = Code::default();
        code2.layout.place(Symbol::new("a"), 0, 4, Bank::X);
        code2.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP #4",
            2,
            2,
        ));
        code2.insns.push(Insn::mov(
            Loc::Mem(record_isa::MemLoc {
                base: Symbol::new("a"),
                disp: 0,
                index: None,
                down: false,
                bank: Bank::X,
                mode: record_isa::AddrMode::Indirect { ar: 0, post: 1 },
            }),
            Loc::Imm(7),
            "FILL",
            1,
            1,
        ));
        code2.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", 2, 3));
        let before = code2.size_words();
        let n = convert_rpt(&mut code2, &target);
        assert_eq!(n, 1);
        assert!(code2.size_words() < before);
        assert!(matches!(code2.insns[0].kind, InsnKind::Rpt { count: 4 }));
    }

    #[test]
    fn order_vars_dedups_and_keeps_zero_length_vars() {
        let mk = |name: &str, len: u32| VarInfo {
            name: Symbol::new(name),
            len,
            kind: StorageKind::Var,
            bank: None,
            is_fix: true,
        };
        // duplicate scalar, zero-length var, duplicate array
        let vars = vec![mk("a", 1), mk("a", 1), mk("z", 0), mk("arr", 4), mk("arr", 4), mk("b", 1)];
        let code = Code::default();
        for soa in [false, true] {
            let out = order_vars(&vars, &code, soa);
            let names: Vec<&str> = out.iter().map(|v| v.name.as_str()).collect();
            assert_eq!(out.len(), 4, "soa={soa}: {names:?}");
            for want in ["a", "z", "arr", "b"] {
                assert_eq!(names.iter().filter(|n| **n == want).count(), 1, "soa={soa}: {names:?}");
            }
            // arrays go last
            assert_eq!(*names.last().unwrap(), "arr", "soa={soa}: {names:?}");
        }
    }

    #[test]
    fn mode_requiring_single_insn_loops_still_become_rpt() {
        // the pipeline runs mode insertion *before* RPT conversion: the
        // lazy pass hoists the body's requirement into the preheader, so
        // the body stays single-instruction and the conversion fires with
        // no mode change trapped between RPT and its body.
        use record_isa::SemExpr;
        let target = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.layout.place(Symbol::new("x"), 0, 1, Bank::X);
        code.layout.place(Symbol::new("y"), 1, 1, Bank::X);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP #4",
            2,
            2,
        ));
        let mut body = Insn::compute(
            Loc::Mem(record_isa::MemLoc::scalar("y")),
            SemExpr::bin(
                record_ir::BinOp::Add,
                SemExpr::loc(Loc::Mem(record_isa::MemLoc::scalar("y"))),
                SemExpr::loc(Loc::Mem(record_isa::MemLoc::scalar("x"))),
            ),
            "SAT-ACC",
            1,
            1,
        );
        body.mode_req = Some((0, true));
        code.insns.push(body);
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", 2, 3));

        record_opt::insert_mode_changes(&mut code, &target, ModeStrategy::Lazy);
        let n = convert_rpt(&mut code, &target);
        assert_eq!(n, 1, "{}", code.render());
        code.verify().unwrap();
        assert!(matches!(code.insns[0].kind, InsnKind::SetMode { on: true, .. }));
        assert!(matches!(code.insns[1].kind, InsnKind::Rpt { count: 4 }));
    }

    #[test]
    fn invalid_target_rejected() {
        let mut t = record_isa::targets::tic25::target();
        t.memory.banks = 3;
        assert!(matches!(Compiler::for_target(t), Err(CompileError::Target(_))));
    }

    #[test]
    fn nested_loop_program_runs() {
        let compiler = tic25_compiler();
        let code = compiler
            .compile_source(
                "program p; const N = 3; var a: fix[N]; out y: fix;
                 begin
                   for i in 0..N-1 loop
                     for j in 0..N-1 loop
                       y := y + a[j];
                     end loop;
                   end loop;
                 end",
            )
            .unwrap();
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![1, 2, 3])].into_iter().collect();
        let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![18]); // 3 * (1+2+3)
    }

    #[test]
    fn dsp56k_pipeline_produces_parallel_bundles() {
        let compiler = Compiler::for_target(record_isa::targets::dsp56k::target()).unwrap();
        let src = "
            program cm;
            in ar, ai, br, bi: fix;
            out cr, ci: fix;
            begin
              cr := ar * br - ai * bi;
              ci := ar * bi + ai * br;
            end
        ";
        let code = compiler.compile_source(src).unwrap();
        let inputs: Map<Symbol, Vec<i64>> = [
            (Symbol::new("ar"), vec![3]),
            (Symbol::new("ai"), vec![4]),
            (Symbol::new("br"), vec![5]),
            (Symbol::new("bi"), vec![6]),
        ]
        .into_iter()
        .collect();
        let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("cr")], vec![3 * 5 - 4 * 6]);
        assert_eq!(out[&Symbol::new("ci")], vec![3 * 6 + 4 * 5]);
    }
}
