//! Integration tests for the pass manager: the preset plans and their
//! fingerprints, per-pass editing, strict inter-pass verification (a
//! broken pass is caught at its own boundary, by name), and the per-pass
//! observability records.

use std::sync::Arc;

use record::{CompilationUnit, CompileError, Compiler, Pass, PassPlan, SpanRecorder};
use record_isa::{Insn, InsnKind, StructureError};

fn lir_of(name: &str) -> record_ir::lir::Lir {
    let k = record_dspstone::kernel(name).unwrap();
    record_ir::lower::lower(&record_ir::dfl::parse(k.source).unwrap()).unwrap()
}

fn tic25() -> Compiler {
    Compiler::for_target(record_isa::targets::tic25::target()).unwrap()
}

#[test]
fn presets_have_the_documented_shapes() {
    assert_eq!(PassPlan::o0().names(), ["select", "layout", "address", "modes"]);

    let o1 = PassPlan::o1().names();
    assert!(!o1.contains(&"offset"), "O1 skips memory-layout passes: {o1:?}");
    assert!(!o1.contains(&"banks"), "O1 skips memory-layout passes: {o1:?}");
    assert!(o1.contains(&"treeify") && o1.contains(&"compact") && o1.contains(&"rpt"), "{o1:?}");

    assert_eq!(PassPlan::o2().names(), PassPlan::default().names());
}

/// The preset fingerprints key the on-disk compile cache, so a rebuild
/// of the presets must keep them: these literals were recorded before
/// the presets became explicit pass lists.
#[test]
fn preset_fingerprints_are_pinned() {
    let pinned = [
        (PassPlan::o0(), 0xf85d_70c3_11d5_0a51_u64, 0xfa9c_c3a2_6319_f3b3_u64),
        (PassPlan::o1(), 0xc627_c4d9_1728_0d68, 0x3e98_253b_bc05_7d5e),
        (PassPlan::o2(), 0xd61e_4934_e6dd_d567, 0xa445_8541_af00_2d5d),
    ];
    for (plan, plain, service) in pinned {
        assert_eq!(plan.fingerprint(), plain, "{:?}", plan.names());
        let served = plan.with_budgets(record::Budgets::service());
        assert_eq!(served.fingerprint(), service, "{:?} with service budgets", served.names());
    }
}

#[test]
fn passes_can_be_dropped_and_replaced_by_name() {
    let full = PassPlan::default();
    let thinned = full.clone().without("compact").without("hoist");
    assert!(!thinned.names().contains(&"compact"), "{:?}", thinned.names());
    assert!(!thinned.names().contains(&"hoist"), "{:?}", thinned.names());
    assert_eq!(thinned.names().len(), full.names().len() - 2);

    // unknown names are a no-op, so ablation axes compose freely
    assert_eq!(full.clone().without("no-such-pass").names(), full.names());

    // the thinned plan still compiles and still verifies
    let compiler = tic25();
    let code = compiler.compile(&lir_of("fir"), &thinned.strict(true)).unwrap();
    code.verify().unwrap();
}

/// A pass that emits a structurally invalid instruction: a `LoopEnd`
/// with no matching `LoopStart`.
struct StrayEndPass;

impl Pass for StrayEndPass {
    fn name(&self) -> &'static str {
        "stray-end"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        unit.code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", 1, 1));
        Ok(())
    }
}

#[test]
fn strict_verify_catches_a_broken_pass_at_its_own_boundary() {
    let compiler = tic25();
    let plan = PassPlan::default().with_pass(Arc::new(StrayEndPass)).strict(true);
    let err = compiler.compile(&lir_of("fir"), &plan).unwrap_err();
    match &err {
        CompileError::Verify { pass, error } => {
            assert_eq!(pass, "stray-end", "blamed the wrong pass: {err}");
            assert!(
                matches!(error, StructureError::UnmatchedLoopEnd { .. }),
                "unexpected invariant: {error:?}"
            );
        }
        other => panic!("expected a Verify error, got: {other}"),
    }
    // the pass name reaches the user-facing message
    assert!(err.to_string().contains("stray-end"), "{err}");
}

/// A pass whose transformation is structurally fine but whose own
/// postcondition fails — strict mode must attribute that too.
struct LyingPass;

impl Pass for LyingPass {
    fn name(&self) -> &'static str {
        "lying"
    }

    fn run(&self, _unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        Ok(())
    }

    fn postcondition(&self, _unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        Err(StructureError::StrayLoopEnd)
    }
}

#[test]
fn strict_verify_runs_pass_postconditions() {
    let compiler = tic25();
    let plan = PassPlan::default().with_pass(Arc::new(LyingPass)).strict(true);
    match compiler.compile(&lir_of("fir"), &plan) {
        Err(CompileError::Verify { pass, error }) => {
            assert_eq!(pass, "lying");
            assert_eq!(error, StructureError::StrayLoopEnd);
        }
        other => panic!("expected a Verify error, got: {other:?}"),
    }

    // with strict off, neither the broken insn nor the postcondition is
    // checked mid-pipeline (the final whole-code verify still passes
    // because LyingPass doesn't actually damage the code)
    let lax = PassPlan::default().with_pass(Arc::new(LyingPass)).strict(false);
    compiler.compile(&lir_of("fir"), &lax).unwrap();
}

#[test]
fn replacing_swaps_a_pass_in_place() {
    let plan = PassPlan::default().replacing("hoist", Arc::new(LyingPass));
    let names = plan.names();
    let full = PassPlan::default().names();
    assert_eq!(names.len(), full.len());
    assert_eq!(
        names.iter().position(|n| *n == "lying"),
        full.iter().position(|n| *n == "hoist"),
        "replacement keeps the slot: {names:?}"
    );
}

#[test]
fn timed_compiles_record_one_pass_record_per_pass() {
    let compiler = tic25();
    let plan = PassPlan::default();
    let mut recorder = SpanRecorder::disabled();
    let (code, timings) = compiler.compile_recorded(&lir_of("fir"), &plan, &mut recorder).unwrap();

    let recorded: Vec<&str> = timings.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(recorded, plan.names(), "one record per pass, in plan order");
    for p in &timings.passes {
        assert_eq!(p.runs, 1, "{}", p.name);
    }

    // select is the pass that materializes instructions…
    let select = timings.passes.iter().find(|p| p.name == "select").unwrap();
    assert_eq!(select.before.insns, 0);
    assert!(select.after.insns > 0);
    // …and the last pass's after-stats describe the final code
    let last = timings.passes.last().unwrap();
    assert_eq!(last.after.insns, code.insns.len());
    assert_eq!(last.after.words, code.size_words());
}
