//! Crash-proofing contract of the compilation service.
//!
//! Three guarantees, end to end:
//!
//! * **Panic isolation** — a panicking pass never tears down the process
//!   or its batch; it surfaces as [`CompileError::Internal`] naming the
//!   pass, or (for best-effort passes) triggers salvage.
//! * **Graceful degradation** — a failing *best-effort* pass is dropped
//!   and the plan retried; the event lands in
//!   [`record::PhaseTimings::salvages`] and the session counters, and
//!   the degraded output still simulates correctly.
//! * **Resource budgets** — exceeding a [`record::Budgets`] cap is a
//!   structured [`CompileError::Budget`], not an OOM or a hang.
//!
//! Plus the regression corpus: every fuzz-found input under
//! `tests/corpus/` replays through the frontend without a panic,
//! forever.

use std::collections::HashMap;
use std::sync::Arc;

use record::{
    Budgets, CompilationUnit, CompileError, CompileInput, Compiler, Pass, PassPlan, PhaseTimings,
    Session, SessionStats, SpanRecorder,
};
use record_ir::lir::StorageKind;
use record_ir::{dfl, lower};
use record_repro::fuzz::{self, FlakyPass};

const KERNEL: &str = "\
program conv;
  const N := 4;
  in x: fix[N];
  in h: fix[N];
  var acc: fix;
  out y: fix;
begin
  acc := 0;
  for i in 0..3 loop
    acc := acc + x[i] * h[i];
  end loop;
  y := sat(acc);
end
";

/// Scalar-heavy straight-line code: enough scalar memory traffic for
/// the offset-assignment (SOA) search to charge multiple budget steps.
const SCALAR_KERNEL: &str = "\
program mix;
  in x0: fix;
  in x1: fix;
  var t0: fix;
  var t1: fix;
  var t2: fix;
  out y0: fix;
  out y1: fix;
begin
  t0 := x0 + x1;
  t1 := t0 * x0;
  t2 := t1 - x1;
  y0 := t2 + t0;
  y1 := t1 * t2;
end
";

fn sources_of<'a>(sources: &[&'a str]) -> Vec<CompileInput<'a>> {
    sources.iter().copied().map(CompileInput::Source).collect()
}

fn tic25() -> record_isa::TargetDesc {
    record_isa::targets::tic25::target()
}

/// A pass that panics and does NOT opt into best-effort status — the
/// default, so it must hard-fail the compile with `Internal`.
struct BoomPass;

impl Pass for BoomPass {
    fn name(&self) -> &'static str {
        "boom"
    }

    fn run(&self, _unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        panic!("mandatory pass exploded");
    }
}

/// Runs `f` with the default panic hook silenced (these tests provoke
/// panics on purpose; the hook would spray backtraces into the output).
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(saved);
    result
}

#[test]
fn best_effort_panic_salvages_and_output_still_simulates() {
    quiet(|| {
        let target = tic25();
        let compiler = Compiler::for_target(target.clone()).unwrap();
        let lir = lower::lower(&dfl::parse(KERNEL).unwrap()).unwrap();
        let plan = PassPlan::o2().strict(true).with_pass(Arc::new(FlakyPass));

        let (code, timings) =
            compiler.compile_recorded(&lir, &plan, &mut SpanRecorder::disabled()).unwrap();
        assert_eq!(
            timings.salvages.iter().map(|s| s.pass.as_str()).collect::<Vec<_>>(),
            ["flaky"],
            "exactly the poisoned pass is dropped"
        );
        assert!(
            timings.salvages[0].reason.contains("injected fuzz failure"),
            "salvage reason carries the panic message: {}",
            timings.salvages[0].reason
        );

        // the salvaged code equals what the plan-minus-poison produces
        let clean = compiler.compile(&lir, &PassPlan::o2().strict(true)).unwrap();
        assert_eq!(code.render(), clean.render());

        // and it computes the right convolution on the simulator
        let inputs: HashMap<_, _> = lir
            .vars
            .iter()
            .filter(|v| v.kind == StorageKind::In)
            .map(|v| (v.name.clone(), (1..=v.len.max(1)).map(|i| i as i64).collect::<Vec<_>>()))
            .collect();
        let (outs, _) = record_sim::run_program(&code, &target, &inputs).unwrap();
        // conv of [1,2,3,4] with itself: 1+4+9+16
        assert_eq!(outs[&record_ir::Symbol::from("y")], vec![30]);
    });
}

#[test]
fn salvage_events_reach_session_stats_and_the_report() {
    quiet(|| {
        let target = tic25();
        let session =
            Session::new().with_plan(PassPlan::o2().strict(true).with_pass(Arc::new(FlakyPass)));
        let batch = session.compile_batch(&target, &sources_of(&[KERNEL, KERNEL]), None).unwrap();
        assert!(batch.iter().all(Result::is_ok), "poisoned batch still completes");

        let stats = session.stats();
        assert_eq!(stats.salvaged_passes, 2, "one salvage per kernel: {stats:?}");
        let timings = session.timings();
        assert_eq!(timings.salvages.len(), 2);

        // the human-readable report names the dropped pass
        let breakdown = record::report::PhaseBreakdown {
            rows: vec![("conv", timings.clone())],
            total: timings,
            stats,
        };
        let rendered = breakdown.to_string();
        assert!(rendered.contains("degradation trace"), "{rendered}");
        assert!(rendered.contains("dropped `flaky`"), "{rendered}");
        assert!(rendered.contains("2 salvaged pass(es)"), "{rendered}");
    });
}

#[test]
fn mandatory_pass_panic_is_an_internal_error_naming_the_pass() {
    quiet(|| {
        let compiler = Compiler::for_target(tic25()).unwrap();
        let lir = lower::lower(&dfl::parse(KERNEL).unwrap()).unwrap();
        let plan = PassPlan::o2().with_pass(Arc::new(BoomPass));
        match compiler.compile(&lir, &plan) {
            Err(CompileError::Internal { pass, message }) => {
                assert_eq!(pass, "boom");
                assert!(message.contains("mandatory pass exploded"), "{message}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    });
}

#[test]
fn disabling_salvage_exposes_the_raw_failure() {
    quiet(|| {
        let compiler = Compiler::for_target(tic25()).unwrap();
        let lir = lower::lower(&dfl::parse(KERNEL).unwrap()).unwrap();
        let plan = PassPlan::o2().with_pass(Arc::new(FlakyPass)).salvaging(false);
        match compiler.compile(&lir, &plan) {
            Err(CompileError::Internal { pass, .. }) => assert_eq!(pass, "flaky"),
            other => panic!("expected Internal, got {other:?}"),
        }
    });
}

#[test]
fn a_panicking_batch_job_poisons_only_its_own_slot() {
    quiet(|| {
        let target = tic25();
        let session =
            Session::new().with_plan(PassPlan::o2().with_pass(Arc::new(BoomPass)).salvaging(false));
        let sources = [KERNEL, KERNEL, KERNEL];
        let batch = session.compile_batch(&target, &sources_of(&sources), None).unwrap();
        assert_eq!(batch.len(), 3, "batch ran to completion");
        for outcome in &batch {
            match outcome {
                Err(CompileError::Internal { pass, .. }) => assert_eq!(pass, "boom"),
                other => panic!("expected Internal per slot, got {other:?}"),
            }
        }
    });
}

#[test]
fn lir_size_budget_rejects_oversized_programs_up_front() {
    let compiler = Compiler::for_target(tic25()).unwrap();
    let lir = lower::lower(&dfl::parse(KERNEL).unwrap()).unwrap();
    let budgets = Budgets { max_lir_nodes: Some(1), ..Budgets::unlimited() };
    let plan = PassPlan::o2().with_budgets(budgets);
    match compiler.compile(&lir, &plan) {
        Err(CompileError::Budget { pass, resource }) => {
            assert_eq!(pass, "pipeline");
            assert_eq!(resource, "lir-nodes");
        }
        other => panic!("expected Budget, got {other:?}"),
    }
}

#[test]
fn variant_budget_fails_selection_as_a_budget_error() {
    let compiler = Compiler::for_target(tic25()).unwrap();
    let lir = lower::lower(&dfl::parse(KERNEL).unwrap()).unwrap();
    let budgets = Budgets { max_variants: Some(0), ..Budgets::unlimited() };
    let plan = PassPlan::o2().with_budgets(budgets);
    // selection is mandatory: the budget error surfaces even with
    // salvaging on
    match compiler.compile(&lir, &plan) {
        Err(CompileError::Budget { pass, resource }) => {
            assert_eq!(pass, "select");
            assert_eq!(resource, "variants");
        }
        other => panic!("expected Budget, got {other:?}"),
    }
}

/// A variants cap crossed by the second statement of a straight-line
/// block that selection covers as one DAG: the block path checks the cap
/// per statement, so the compile still fails with the variants budget and
/// the crossing statement enumerates at most one variant past the cap.
#[test]
fn variant_budget_crossed_mid_block_stops_at_the_crossing_statement() {
    let compiler = Compiler::for_target(record_isa::targets::dsp56k::target()).unwrap();
    let lower_src = |src: &str| lower::lower(&dfl::parse(src).unwrap()).unwrap();
    let first = lower_src(
        "program one; in a, b, c, d: fix; out x: fix;
         begin x := a * b + c * d; end",
    );
    let block = lower_src(
        "program blk; in a, b, c, d: fix; out x, y, z: fix;
         begin
           x := a * b + c * d;
           y := a * c - b * d;
           z := a * d + b * c;
         end",
    );
    let plan = PassPlan::o2();
    let mut recorder = SpanRecorder::disabled();
    let (_, alone) = compiler.compile_recorded(&first, &plan, &mut recorder).unwrap();
    let cap = alone.variants;
    let budgets = Budgets { max_variants: Some(cap as usize), ..Budgets::unlimited() };

    match compiler.compile(&block, &plan.clone().with_budgets(budgets)) {
        Err(CompileError::Budget { pass, resource }) => {
            assert_eq!((pass.as_str(), resource.as_str()), ("select", "variants"));
        }
        other => panic!("expected a variants budget error, got {other:?}"),
    }

    let mut unit = CompilationUnit::new(compiler.target(), compiler.tables(), &block);
    unit.budgets = budgets;
    let mut outcome = Ok(());
    for pass in plan.passes() {
        outcome = pass.run(&mut unit);
        if outcome.is_err() {
            assert_eq!(pass.name(), "select");
            break;
        }
    }
    assert!(
        matches!(&outcome, Err(CompileError::Budget { resource, .. }) if resource == "variants"),
        "{outcome:?}"
    );
    assert!(unit.variants > cap, "the cap was crossed: {} variants, cap {cap}", unit.variants);
    assert!(unit.variants <= cap + 1, "{} variants past a cap of {cap}", unit.variants);
}

#[test]
fn search_budget_degrades_the_optimizing_passes_not_the_compile() {
    let compiler = Compiler::for_target(tic25()).unwrap();
    let lir = lower::lower(&dfl::parse(SCALAR_KERNEL).unwrap()).unwrap();
    let budgets =
        Budgets { max_search_steps: Some(1), max_schedule_steps: Some(1), ..Budgets::unlimited() };
    let plan = PassPlan::o2().with_budgets(budgets);
    let (_, timings) =
        compiler.compile_recorded(&lir, &plan, &mut SpanRecorder::disabled()).unwrap();
    assert!(!timings.salvages.is_empty(), "a 1-step search budget must force at least one salvage");
    for s in &timings.salvages {
        assert!(
            ["offset", "banks", "compact"].contains(&s.pass.as_str()),
            "only search-driven best-effort passes degrade, got {}",
            s.pass
        );
        assert!(s.reason.contains("budget"), "reason names the budget: {}", s.reason);
    }
}

#[test]
fn simulator_step_budget_is_a_structured_error() {
    let target = tic25();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    let lir = lower::lower(&dfl::parse(KERNEL).unwrap()).unwrap();
    let code = compiler.compile(&lir, &PassPlan::o2()).unwrap();
    let inputs: HashMap<_, _> = lir
        .vars
        .iter()
        .filter(|v| v.kind == StorageKind::In)
        .map(|v| (v.name.clone(), vec![0; v.len.max(1) as usize]))
        .collect();
    assert_eq!(
        record_sim::run_program_with_steps(&code, &target, &inputs, 1),
        Err(record_sim::SimError::StepLimit)
    );
    // the default budget is generous enough for real kernels
    assert!(record_sim::run_program_with_steps(
        &code,
        &target,
        &inputs,
        record_sim::DEFAULT_MAX_STEPS
    )
    .is_ok());
}

#[test]
fn corpus_replays_without_panics() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "dfl") {
            continue;
        }
        seen += 1;
        let source = std::fs::read_to_string(&path).unwrap();
        if let Err(panic) = fuzz::check_frontend(&source) {
            panic!("{} panicked the frontend: {panic}", path.display());
        }
    }
    assert!(seen >= 8, "corpus went missing (found {seen} files in {})", dir.display());
}

#[test]
fn seeded_fuzz_smoke_is_clean() {
    // tiny counts: the full run lives in CI's fuzz job; this keeps the
    // harness itself from rotting
    let front = fuzz::run_frontend_fuzz(150, 0xD1CE);
    assert!(front.clean(), "{front}");
    let diff = fuzz::run_differential_fuzz(4, 0xD1CE);
    assert!(diff.clean(), "{diff}");
    assert!(diff.compared > 0, "differential fuzz compared nothing: {diff}");
}

#[test]
fn session_stats_default_reports_no_salvage() {
    // a clean run keeps the counter at zero (guards against double
    // counting in `absorb`)
    let target = tic25();
    let session = Session::new();
    session.compile_source(&target, KERNEL).unwrap();
    let stats: SessionStats = session.stats();
    assert_eq!(stats.salvaged_passes, 0);
    let timings: PhaseTimings = session.timings();
    assert!(timings.salvages.is_empty());
}

/// Satellite: wall-clock deadlines thread through the whole batch
/// path. An already-expired deadline fills *every* slot with the
/// structured budget error — resource `"deadline"` — before any
/// compilation work happens, and the batch call itself still succeeds.
#[test]
fn expired_batch_deadline_fills_every_slot_structurally() {
    let session = Session::new();
    let target = record_isa::targets::tic25::target();
    let sources = [KERNEL, SCALAR_KERNEL, KERNEL, SCALAR_KERNEL];
    let results = session
        .compile_batch(&target, &sources_of(&sources), Some(std::time::Instant::now()))
        .expect("an expired deadline is a per-slot failure, not a batch error");
    assert_eq!(results.len(), sources.len());
    for (i, slot) in results.iter().enumerate() {
        match slot {
            Err(CompileError::Budget { resource, .. }) => {
                assert_eq!(resource, "deadline", "slot {i}");
            }
            other => panic!("slot {i}: expected a deadline budget error, got {other:?}"),
        }
    }
    assert_eq!(session.stats().compiles, 0, "expired slots must not reach the pipeline");
}

/// The mirror image: a generous deadline changes nothing — every slot
/// compiles exactly as the deadline-free batch path would.
#[test]
fn generous_batch_deadline_compiles_every_slot() {
    let session = Session::new();
    let target = record_isa::targets::tic25::target();
    let sources = [KERNEL, SCALAR_KERNEL];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(600);
    let results = session.compile_batch(&target, &sources_of(&sources), Some(deadline)).unwrap();
    let baseline = session.compile_batch(&target, &sources_of(&sources), None).unwrap();
    for (i, (got, want)) in results.iter().zip(&baseline).enumerate() {
        let got = got.as_ref().expect("deadline slot compiles");
        let want = want.as_ref().expect("baseline slot compiles");
        assert_eq!(got.render(), want.render(), "slot {i}: deadline changed the output");
    }
}

/// Single compiles admission-check the deadline before any work — the
/// error names the `admission` stage, so a service can distinguish
/// "never started" from "ran out mid-pipeline".
#[test]
fn expired_single_deadline_fails_at_admission() {
    let session = Session::new();
    let target = record_isa::targets::tic25::target();
    let expired = Some(std::time::Instant::now());
    match session.compile(&target, CompileInput::Source(KERNEL), expired, None) {
        Err(CompileError::Budget { pass, resource }) => {
            assert_eq!(pass, "admission");
            assert_eq!(resource, "deadline");
        }
        other => panic!("expected an admission deadline error, got {other:?}"),
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(600);
    let (code, timings) =
        session.compile(&target, CompileInput::Source(KERNEL), Some(deadline), None).unwrap();
    assert!(!code.is_empty());
    assert!(!timings.from_cache);
}
