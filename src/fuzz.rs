//! Fuzzing harness for the whole toolchain.
//!
//! Three drivers, all deterministic (seeded [`record_prop::Rng`]
//! streams) so that CI runs and local replays exercise identical inputs:
//!
//! * [`run_frontend_fuzz`] — *panic freedom*: arbitrary byte soup, plus
//!   token-level mutations of well-formed programs, must flow through
//!   lexer → parser → lowering and come back as `Ok` or a structured
//!   [`record_ir::Error`] — never a panic.
//! * [`run_differential_fuzz`] — *semantic stability over programs*:
//!   grammar-generated programs are compiled under the `O0` plan, the
//!   `O2` plan (which covers blocks as DAGs), an `O2` plan running the
//!   per-statement reference selector (the DAG-covering oracle), and an
//!   `O2` plan poisoned with an always-panicking best-effort pass (so
//!   the salvage path runs); every plan that compiles must simulate to
//!   the same outputs on the same inputs, on both shipped targets.
//! * [`run_target_fuzz`] — *semantic stability over targets*: the same
//!   differential discipline swept across the processor cube. A seeded
//!   stream of [`record_isa::cube`] targets is derived, and every
//!   program (grammar-generated plus the DSPStone smoke subset) must
//!   compile-and-agree under `O0`/`O2`/reference-selector plans on each
//!   of them — with bit-exact validation against the DSPStone reference
//!   implementations wherever the data path width permits. Capacity
//!   errors (no cover on a feature-poor corner, register pressure on a
//!   tiny file) are benign skips; panics, verifier escapes and
//!   miscompares are failures, minimized to a `(target-seed, program)`
//!   pair and written to a replayable corpus.
//!
//! Failures carry the replay seed, and the regression corpora under
//! `tests/corpus/` and `tests/corpus/targets/` pin previously-found
//! inputs forever.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use record::{
    reference_select_pass, CompilationUnit, CompileError, Compiler, Pass, PassPlan, Tracer,
};
use record_ir::lir::{Lir, StorageKind};
use record_ir::transform::RuleSet;
use record_ir::Symbol;
use record_isa::cube::CubeParams;
use record_isa::{Code, TargetDesc};
use record_prop::{dfl, Rng};

/// A best-effort pass that always panics — the poison pill the
/// differential fuzzer injects to force the graceful-degradation path.
pub struct FlakyPass;

impl Pass for FlakyPass {
    fn name(&self) -> &'static str {
        "flaky"
    }

    fn run(&self, _unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        panic!("injected fuzz failure");
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Outcome counters plus the (hopefully empty) failure list of one fuzz
/// run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Inputs tried.
    pub cases: usize,
    /// Inputs the frontend rejected with a structured error.
    pub rejected: usize,
    /// Programs that compiled under every plan and simulated identically.
    pub compared: usize,
    /// Programs skipped for benign reasons (e.g. an optimization plan
    /// reporting a capacity error the baseline plan does not hit).
    pub skipped: usize,
    /// Human-readable descriptions of every failure, with replay seeds.
    pub failures: Vec<String>,
}

impl FuzzReport {
    /// True when no case panicked or miscompared.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The report as one JSON object (counters plus the failure list),
    /// for the `fuzz_smoke --json` artifact.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"cases\":");
        out.push_str(&self.cases.to_string());
        out.push_str(",\"rejected\":");
        out.push_str(&self.rejected.to_string());
        out.push_str(",\"compared\":");
        out.push_str(&self.compared.to_string());
        out.push_str(",\"skipped\":");
        out.push_str(&self.skipped.to_string());
        out.push_str(",\"clean\":");
        out.push_str(if self.clean() { "true" } else { "false" });
        out.push_str(",\"failures\":[");
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            record_trace::json::push_str_lit(&mut out, failure);
        }
        out.push_str("]}");
        debug_assert!(record_trace::json::validate(&out).is_ok());
        out
    }

    /// Stamps the final counters onto the innermost open span of `rec`.
    fn close_span(&self, rec: &mut record::SpanRecorder) {
        rec.attr("cases", self.cases);
        rec.attr("rejected", self.rejected);
        rec.attr("compared", self.compared);
        rec.attr("skipped", self.skipped);
        rec.attr("failures", self.failures.len());
        rec.close();
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} case(s): {} rejected, {} compared, {} skipped, {} failure(s)",
            self.cases,
            self.rejected,
            self.compared,
            self.skipped,
            self.failures.len()
        )?;
        for failure in &self.failures {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

/// One frontend fuzz input: byte soup, a well-formed program, or a
/// token-mutated program, weighted toward mutations (they reach deepest).
pub fn frontend_input(rng: &mut Rng) -> String {
    match rng.usize(4) {
        0 => rng.wild_string(200),
        1 => dfl::gen_program(rng),
        _ => {
            let base = dfl::gen_program(rng);
            let rounds = 1 + rng.usize(8);
            dfl::mutate(&base, rng, rounds)
        }
    }
}

/// Feeds `source` through lexer → parser → lowering; `Err` means a panic
/// escaped (the message names it), `Ok(true)` means the program lowered,
/// `Ok(false)` means it was rejected with a structured error.
pub fn check_frontend(source: &str) -> Result<bool, String> {
    let outcome = std::panic::catch_unwind(|| match record_ir::dfl::parse(source) {
        Ok(ast) => record_ir::lower::lower(&ast).is_ok(),
        Err(_) => false,
    });
    outcome.map_err(|payload| record::panic_message(payload.as_ref()))
}

/// Runs `f` with the panic hook silenced, restoring it afterwards.
///
/// The fuzz drivers *expect* panics (the injected [`FlakyPass`] fires on
/// every salvage exercise) and catch all of them; without this the
/// default hook would spray a backtrace per case. The hook is
/// process-wide state, so fuzz runs briefly mute panic reporting
/// everywhere.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(saved);
    result
}

/// Runs `iterations` frontend panic-freedom cases derived from
/// `base_seed`.
pub fn run_frontend_fuzz(iterations: usize, base_seed: u64) -> FuzzReport {
    run_frontend_fuzz_traced(iterations, base_seed, None)
}

/// [`run_frontend_fuzz`], optionally recording the run as one
/// `frontend-fuzz` span on `tracer` (final counters as attributes, one
/// `fuzz-failure` event per failing case).
pub fn run_frontend_fuzz_traced(
    iterations: usize,
    base_seed: u64,
    tracer: Option<&Tracer>,
) -> FuzzReport {
    let mut rec = tracer.map(Tracer::recorder).unwrap_or_default();
    rec.open("frontend-fuzz");
    rec.attr("iterations", iterations);
    rec.attr("seed", format!("{base_seed:#x}"));
    let report = with_quiet_panics(|| {
        let mut report = FuzzReport::default();
        for case in 0..iterations {
            let seed = Rng::new(base_seed ^ case as u64).next_u64();
            let mut rng = Rng::new(seed);
            let source = frontend_input(&mut rng);
            report.cases += 1;
            match check_frontend(&source) {
                Ok(true) => report.compared += 1,
                Ok(false) => report.rejected += 1,
                Err(panic) => {
                    let failure = format!(
                        "frontend panic (replay seed {seed:#018x}): {panic}; input: {}",
                        truncate(&source, 160)
                    );
                    rec.event("fuzz-failure", &[("detail", failure.as_str().into())]);
                    report.failures.push(failure);
                }
            }
        }
        report
    });
    report.close_span(&mut rec);
    if let Some(t) = tracer {
        t.submit(rec);
    }
    report
}

/// The four plans every generated program must agree under. `O2-ref`
/// swaps the block-level DAG selector for the per-statement reference
/// selector, so every generated program differentially checks DAG
/// covering against the golden oracle on the simulator.
fn plans() -> Vec<(&'static str, PassPlan)> {
    let mut plans = target_plans().to_vec();
    plans.push(("O2+flaky", PassPlan::o2().strict(true).with_pass(Arc::new(FlakyPass))));
    plans
}

/// Deterministic simulator inputs for the program's `in` storage.
fn sim_inputs(lir: &Lir, rng: &mut Rng) -> HashMap<Symbol, Vec<i64>> {
    lir.vars
        .iter()
        .filter(|v| v.kind == StorageKind::In)
        .map(|v| {
            let values = (0..v.len.max(1)).map(|_| rng.i64_in(-100, 101)).collect();
            (v.name.clone(), values)
        })
        .collect()
}

/// `(symbol, values)` pairs for a program's `out` storage.
type Outputs = Vec<(Symbol, Vec<i64>)>;

/// The simulated values of the program's `out` storage under `code`.
fn run_outputs(
    code: &Code,
    target: &TargetDesc,
    lir: &Lir,
    inputs: &HashMap<Symbol, Vec<i64>>,
) -> Result<Outputs, String> {
    let (outs, _) =
        record_sim::run_program_with_steps(code, target, inputs, record_sim::DEFAULT_MAX_STEPS)
            .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(lir
        .vars
        .iter()
        .filter(|v| v.kind == StorageKind::Out)
        .map(|v| (v.name.clone(), outs.get(&v.name).cloned().unwrap_or_default()))
        .collect())
}

/// How a differential case failed — the taxonomy the target-space
/// fuzzer minimizes against (a candidate reduction must reproduce the
/// same *kind* of failure, not the same message).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    /// A pass panicked ([`CompileError::Internal`]).
    Internal,
    /// The inter-pass verifier caught invalid code
    /// ([`CompileError::Verify`]).
    Verify,
    /// Compiled code failed to simulate (structure or step-limit error).
    Sim,
    /// Two plans computed different outputs from the same inputs.
    Miscompare,
    /// Outputs disagree with the DSPStone reference implementation.
    Reference,
    /// A seeded cube point failed to build or validate — a generator
    /// contract violation, not a compiler bug.
    TargetInvalid,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Internal => "internal",
            FailureKind::Verify => "verify",
            FailureKind::Sim => "sim",
            FailureKind::Miscompare => "miscompare",
            FailureKind::Reference => "reference",
            FailureKind::TargetInvalid => "target-invalid",
        })
    }
}

/// Outcome of one differential case under a plan set.
enum CaseOutcome {
    /// Every plan compiled and all outputs agreed.
    Compared,
    /// Frontend rejection or a benign capacity error on some plan.
    Skipped,
    /// A bug: the kind plus a human-readable description.
    Failed(FailureKind, String),
}

/// Runs one differential case: compiles `source` under every plan,
/// simulates each compiled plan on the same inputs, and cross-checks
/// the outputs (plus `reference` ground-truth values, when given).
/// Inputs come from `fixed_inputs` when given (the DSPStone stimulus)
/// and are drawn from `rng` otherwise.
fn differential_case(
    compiler: &Compiler,
    target: &TargetDesc,
    source: &str,
    rng: &mut Rng,
    plans: &[(&'static str, PassPlan)],
    fixed_inputs: Option<&HashMap<Symbol, Vec<i64>>>,
    reference: Option<&HashMap<Symbol, Vec<i64>>>,
) -> CaseOutcome {
    let lir = match record_ir::dfl::parse(source).and_then(|ast| record_ir::lower::lower(&ast)) {
        Ok(lir) => lir,
        Err(_) => return CaseOutcome::Skipped,
    };
    let mut compiled: Vec<(&'static str, Code)> = Vec::new();
    for (name, plan) in plans {
        match compiler.compile(&lir, plan) {
            Ok(code) => compiled.push((name, code)),
            // a poisoned-pass compile must *never* fail: salvage drops the
            // flaky pass and retries. For the straight plans, capacity
            // errors (no cover, register pressure) are legitimate
            // rejections — but panics and verifier escapes are bugs.
            Err(e @ CompileError::Internal { .. }) => {
                return CaseOutcome::Failed(
                    FailureKind::Internal,
                    format!("plan {name} on {}: {e}", target.name),
                )
            }
            Err(e @ CompileError::Verify { .. }) => {
                return CaseOutcome::Failed(
                    FailureKind::Verify,
                    format!("plan {name} on {}: {e}", target.name),
                )
            }
            Err(_) => return CaseOutcome::Skipped,
        }
    }
    let inputs = match fixed_inputs {
        Some(map) => map.clone(),
        None => sim_inputs(&lir, rng),
    };
    let mut baseline: Option<(&'static str, Outputs)> = None;
    for (name, code) in &compiled {
        let outs = match run_outputs(code, target, &lir, &inputs) {
            Ok(outs) => outs,
            Err(e) => {
                return CaseOutcome::Failed(
                    FailureKind::Sim,
                    format!("plan {name} on {}: {e}", target.name),
                )
            }
        };
        if let Some(expected) = reference {
            for (sym, values) in &outs {
                if expected.get(sym).is_some_and(|want| want != values) {
                    return CaseOutcome::Failed(
                        FailureKind::Reference,
                        format!(
                            "plan {name} on {}: output {sym} = {values:?} disagrees with the \
                             DSPStone reference {:?}",
                            target.name,
                            expected.get(sym).unwrap()
                        ),
                    );
                }
            }
        }
        match &baseline {
            None => baseline = Some((name, outs)),
            Some((ref_name, ref_outs)) => {
                if outs != *ref_outs {
                    return CaseOutcome::Failed(
                        FailureKind::Miscompare,
                        format!(
                            "miscompare on {}: plan {name} disagrees with {ref_name}: \
                             {outs:?} vs {ref_outs:?}",
                            target.name
                        ),
                    );
                }
            }
        }
    }
    CaseOutcome::Compared
}

/// One differential case: compiles `source` under every plan in
/// `plans` and requires identical simulator outputs. `Ok(true)` means
/// the comparison ran, `Ok(false)` that the case was skipped (frontend
/// rejection, or a plan hitting a benign capacity error), `Err` a
/// panic, miscompare, or salvage-validation failure.
pub fn check_differential(
    compiler: &Compiler,
    target: &TargetDesc,
    source: &str,
    rng: &mut Rng,
) -> Result<bool, String> {
    match differential_case(compiler, target, source, rng, &plans(), None, None) {
        CaseOutcome::Compared => Ok(true),
        CaseOutcome::Skipped => Ok(false),
        CaseOutcome::Failed(_, detail) => Err(detail),
    }
}

/// Runs `iterations` differential cases derived from `base_seed` on each
/// of the shipped targets (`tic25`, `dsp56k`).
///
/// # Panics
///
/// Panics only if a target description fails validation — a build error,
/// not a fuzz finding.
pub fn run_differential_fuzz(iterations: usize, base_seed: u64) -> FuzzReport {
    run_differential_fuzz_traced(iterations, base_seed, None)
}

/// [`run_differential_fuzz`], optionally recording the run as one
/// `differential-fuzz` span on `tracer` (final counters as attributes,
/// one `fuzz-failure` event per failing case).
///
/// # Panics
///
/// See [`run_differential_fuzz`].
pub fn run_differential_fuzz_traced(
    iterations: usize,
    base_seed: u64,
    tracer: Option<&Tracer>,
) -> FuzzReport {
    let targets = [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()];
    let compilers: Vec<Compiler> = targets
        .iter()
        .map(|t| Compiler::for_target(t.clone()).expect("shipped targets validate"))
        .collect();
    let mut rec = tracer.map(Tracer::recorder).unwrap_or_default();
    rec.open("differential-fuzz");
    rec.attr("iterations", iterations);
    rec.attr("seed", format!("{base_seed:#x}"));
    rec.attr("targets", targets.len());
    let report = with_quiet_panics(|| {
        let mut report = FuzzReport::default();
        for case in 0..iterations {
            let seed = Rng::new(base_seed ^ case as u64).next_u64();
            let mut rng = Rng::new(seed);
            let source = dfl::gen_program(&mut rng);
            for (target, compiler) in targets.iter().zip(&compilers) {
                report.cases += 1;
                match check_differential(compiler, target, &source, &mut rng) {
                    Ok(true) => report.compared += 1,
                    Ok(false) => report.skipped += 1,
                    Err(e) => {
                        let failure = format!("differential (replay seed {seed:#018x}): {e}");
                        rec.event("fuzz-failure", &[("detail", failure.as_str().into())]);
                        report.failures.push(failure);
                    }
                }
            }
        }
        report
    });
    report.close_span(&mut rec);
    if let Some(t) = tracer {
        t.submit(rec);
    }
    report
}

// ---------------------------------------------------------------------------
// Target-space differential fuzzing: sweep the processor cube.
// ---------------------------------------------------------------------------

/// The three plans every program must agree under on every generated
/// target: the mandatory-passes baseline, the full optimizing pipeline,
/// and the per-statement reference selector (the DAG-covering oracle).
pub fn target_plans() -> [(&'static str, PassPlan); 3] {
    [
        ("O0", PassPlan::o0().strict(true)),
        ("O2", PassPlan::o2().strict(true)),
        (
            "O2-ref",
            PassPlan::o2()
                .replacing("select", reference_select_pass(RuleSet::all(), 32))
                .strict(true),
        ),
    ]
}

/// The DSPStone smoke subset the cube sweep carries: small kernels with
/// bit-exact reference implementations, spanning MAC chains, FIR-style
/// streaming and biquad state updates.
pub fn dspstone_smoke() -> Vec<record_dspstone::Kernel> {
    ["real_update", "complex_multiply", "complex_update", "fir", "dot_product"]
        .iter()
        .map(|name| record_dspstone::kernel(name).expect("smoke kernel exists"))
        .collect()
}

/// Configuration of one target-space fuzz run.
#[derive(Clone, Debug)]
pub struct TargetFuzzConfig {
    /// Cube targets to derive from the seed stream.
    pub targets: usize,
    /// Grammar-generated programs (shared across all targets).
    pub programs: usize,
    /// Base seed for both the target and the program streams.
    pub base_seed: u64,
    /// Also sweep the DSPStone smoke subset (with reference validation
    /// on 16-bit data paths).
    pub dspstone: bool,
    /// Minimize failing generated programs before reporting.
    pub minimize: bool,
}

impl Default for TargetFuzzConfig {
    fn default() -> Self {
        TargetFuzzConfig {
            targets: 50,
            programs: 8,
            base_seed: 0xDAC97,
            dspstone: true,
            minimize: true,
        }
    }
}

/// Survival counters for one coarse cube corner
/// ([`CubeParams::corner`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CornerStat {
    /// Targets generated in this corner.
    pub targets: usize,
    /// Cases that compiled under every plan and agreed.
    pub compared: usize,
    /// Cases skipped for benign capacity reasons.
    pub skipped: usize,
    /// Cases that failed.
    pub failed: usize,
}

/// One minimized target-space failure: everything needed to replay it.
#[derive(Clone, Debug)]
pub struct TargetFuzzFailure {
    /// The cube seed; `CubeParams::from_seed` rebuilds the exact target.
    pub target_seed: u64,
    /// The generated target's name (axes encoded).
    pub target_name: String,
    /// The coarse corner the target sits in.
    pub corner: String,
    /// The (minimized) program that triggers the failure.
    pub program: String,
    /// Failure classification.
    pub kind: FailureKind,
    /// Human-readable description.
    pub detail: String,
}

/// Outcome of a target-space fuzz run: global counters, per-corner
/// survival, and the (hopefully empty) failure list.
#[derive(Debug, Default)]
pub struct TargetFuzzReport {
    /// Targets derived.
    pub targets: usize,
    /// Programs swept per target.
    pub programs: usize,
    /// Total (target, program) cases.
    pub cases: usize,
    /// Cases that compiled everywhere and agreed.
    pub compared: usize,
    /// Benign skips.
    pub skipped: usize,
    /// Per-corner survival counters.
    pub corners: BTreeMap<String, CornerStat>,
    /// Every failure, minimized.
    pub failures: Vec<TargetFuzzFailure>,
}

impl TargetFuzzReport {
    /// True when no case failed.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The per-corner survival report as one JSON object, for the
    /// `cube_sweep --json` artifact.
    pub fn render_json(&self, seed: u64) -> String {
        use record_trace::json::push_str_lit;
        let mut out = format!(
            "{{\"seed\":\"{seed:#x}\",\"targets\":{},\"programs\":{},\"cases\":{},\
             \"compared\":{},\"skipped\":{},\"failures\":{},\"clean\":{},\"corners\":{{",
            self.targets,
            self.programs,
            self.cases,
            self.compared,
            self.skipped,
            self.failures.len(),
            self.clean(),
        );
        for (i, (corner, stat)) in self.corners.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, corner);
            out.push_str(&format!(
                ":{{\"targets\":{},\"compared\":{},\"skipped\":{},\"failed\":{}}}",
                stat.targets, stat.compared, stat.skipped, stat.failed
            ));
        }
        out.push_str("},\"failure_list\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"target_seed\":\"{:#018x}\",\"target\":", f.target_seed));
            push_str_lit(&mut out, &f.target_name);
            out.push_str(",\"corner\":");
            push_str_lit(&mut out, &f.corner);
            out.push_str(&format!(",\"kind\":\"{}\",\"detail\":", f.kind));
            push_str_lit(&mut out, &f.detail);
            out.push_str(",\"program\":");
            push_str_lit(&mut out, &f.program);
            out.push('}');
        }
        out.push_str("]}");
        debug_assert!(record_trace::json::validate(&out).is_ok());
        out
    }
}

impl fmt::Display for TargetFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} target(s) x {} program(s): {} compared, {} skipped, {} failure(s)",
            self.targets,
            self.programs,
            self.compared,
            self.skipped,
            self.failures.len()
        )?;
        for failure in &self.failures {
            write!(
                f,
                "\n  [{}] target seed {:#018x} ({}): {}",
                failure.kind, failure.target_seed, failure.target_name, failure.detail
            )?;
        }
        Ok(())
    }
}

/// Sweeps the processor cube: derives `cfg.targets` seeded cube points,
/// compiles every program on each of them under
/// [`target_plans`] and cross-checks simulator outputs, validating
/// against the DSPStone references where the word width permits.
/// Failing generated programs are minimized to the smallest program
/// that still fails the same way on the same target.
pub fn run_target_fuzz(cfg: &TargetFuzzConfig) -> TargetFuzzReport {
    run_target_fuzz_traced(cfg, None)
}

/// [`run_target_fuzz`], optionally recording the run as one
/// `target-fuzz` span on `tracer` (final counters as attributes, one
/// `fuzz-failure` event per failing case).
pub fn run_target_fuzz_traced(cfg: &TargetFuzzConfig, tracer: Option<&Tracer>) -> TargetFuzzReport {
    let mut rec = tracer.map(Tracer::recorder).unwrap_or_default();
    rec.open("target-fuzz");
    rec.attr("targets", cfg.targets);
    rec.attr("programs", cfg.programs);
    rec.attr("seed", format!("{:#x}", cfg.base_seed));
    let report = with_quiet_panics(|| run_target_fuzz_inner(cfg, &mut rec));
    rec.attr("cases", report.cases);
    rec.attr("compared", report.compared);
    rec.attr("skipped", report.skipped);
    rec.attr("failures", report.failures.len());
    rec.close();
    if let Some(t) = tracer {
        t.submit(rec);
    }
    report
}

fn run_target_fuzz_inner(
    cfg: &TargetFuzzConfig,
    rec: &mut record::SpanRecorder,
) -> TargetFuzzReport {
    let mut programs: Vec<(String, String, Option<record_dspstone::Kernel>)> = Vec::new();
    if cfg.dspstone {
        for kernel in dspstone_smoke() {
            programs.push((
                format!("dspstone:{}", kernel.name),
                kernel.source.to_string(),
                Some(kernel),
            ));
        }
    }
    for j in 0..cfg.programs {
        let pseed = Rng::new(cfg.base_seed.rotate_left(17) ^ j as u64).next_u64();
        let source = dfl::gen_program(&mut Rng::new(pseed));
        programs.push((format!("gen-{j} (program seed {pseed:#018x})"), source, None));
    }

    let mut report = TargetFuzzReport {
        targets: cfg.targets,
        programs: programs.len(),
        ..TargetFuzzReport::default()
    };
    for i in 0..cfg.targets {
        let tseed = Rng::new(cfg.base_seed ^ i as u64).next_u64();
        let params = CubeParams::from_seed(tseed);
        let corner = params.corner();
        report.corners.entry(corner.clone()).or_default().targets += 1;
        let mut fail = |report: &mut TargetFuzzReport, kind, detail: String, program: String| {
            rec.event("fuzz-failure", &[("detail", detail.as_str().into())]);
            report.corners.entry(corner.clone()).or_default().failed += 1;
            report.failures.push(TargetFuzzFailure {
                target_seed: tseed,
                target_name: params.name(),
                corner: corner.clone(),
                program,
                kind,
                detail,
            });
        };
        let target = match params.build() {
            Ok(t) => t,
            Err(e) => {
                report.cases += programs.len();
                fail(
                    &mut report,
                    FailureKind::TargetInvalid,
                    format!("cube seed {tseed:#018x} fails to build: {e}"),
                    String::new(),
                );
                continue;
            }
        };
        let compiler = match Compiler::for_target(target.clone()) {
            Ok(c) => c,
            Err(e) => {
                report.cases += programs.len();
                fail(
                    &mut report,
                    FailureKind::TargetInvalid,
                    format!("cube seed {tseed:#018x} rejected by the compiler: {e}"),
                    String::new(),
                );
                continue;
            }
        };
        for (j, (label, source, kernel)) in programs.iter().enumerate() {
            report.cases += 1;
            let input_seed = Rng::new(tseed ^ (j as u64) << 8).next_u64();
            // the DSPStone stimulus doubles as ground truth, but only on
            // the 16-bit data paths its references were computed for
            let (fixed, expected) = match kernel {
                Some(k) if target.word_width == 16 => {
                    let ins = k.inputs(input_seed);
                    let expect = k.reference(&ins);
                    (Some(ins), Some(expect))
                }
                _ => (None, None),
            };
            let mut rng = Rng::new(input_seed);
            match differential_case(
                &compiler,
                &target,
                source,
                &mut rng,
                &target_plans(),
                fixed.as_ref(),
                expected.as_ref(),
            ) {
                CaseOutcome::Compared => {
                    report.compared += 1;
                    report.corners.entry(corner.clone()).or_default().compared += 1;
                }
                CaseOutcome::Skipped => {
                    report.skipped += 1;
                    report.corners.entry(corner.clone()).or_default().skipped += 1;
                }
                CaseOutcome::Failed(kind, detail) => {
                    let program = if cfg.minimize && kernel.is_none() {
                        minimize_target_failure(&compiler, &target, source, kind, input_seed)
                    } else {
                        source.clone()
                    };
                    let detail = format!("{label} on target seed {tseed:#018x}: {detail}");
                    fail(&mut report, kind, detail, program);
                }
            }
        }
    }
    report
}

/// Shrinks a failing program to a smaller one that still fails the same
/// way (same [`FailureKind`]) on the same target: greedy ddmin-style
/// removal of line ranges, bounded by a fixed check budget.
fn minimize_target_failure(
    compiler: &Compiler,
    target: &TargetDesc,
    source: &str,
    kind: FailureKind,
    input_seed: u64,
) -> String {
    let mut still_fails = |candidate: &str| {
        let mut rng = Rng::new(input_seed);
        matches!(
            differential_case(
                compiler,
                target,
                candidate,
                &mut rng,
                &target_plans(),
                None,
                None,
            ),
            CaseOutcome::Failed(k, _) if k == kind
        )
    };
    minimize_lines(source, &mut still_fails, 250)
}

/// ddmin-lite over whole lines: repeatedly tries to delete contiguous
/// line ranges (halving the chunk size down to single lines) while
/// `still_fails` keeps returning `true`, within `budget` checks.
pub fn minimize_lines(
    source: &str,
    still_fails: &mut dyn FnMut(&str) -> bool,
    budget: usize,
) -> String {
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    let render = |lines: &[String]| {
        let mut s = lines.join("\n");
        s.push('\n');
        s
    };
    let mut checks = 0;
    let mut chunk = (lines.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < lines.len() && checks < budget {
            let end = (i + chunk).min(lines.len());
            let mut candidate: Vec<String> = lines.clone();
            candidate.drain(i..end);
            checks += 1;
            if !candidate.is_empty() && still_fails(&render(&candidate)) {
                lines = candidate;
                removed_any = true;
                // keep `i`: the next range slid into this position
            } else {
                i += 1;
            }
        }
        if checks >= budget || (chunk == 1 && !removed_any) {
            break;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
    render(&lines)
}

/// Writes one failure to the replayable corpus under `dir`: the cube
/// seed, target name and failure kind as `--` comment headers (which
/// the DFL lexer ignores), then the minimized program. The file name is
/// content-addressed, so re-running a sweep never duplicates entries.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_target_corpus(dir: &Path, failure: &TargetFuzzFailure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in failure.program.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let path = dir.join(format!("t{:016x}-p{:08x}.dfl", failure.target_seed, h as u32));
    let detail_one_line: String = truncate(&failure.detail, 300).replace(['\n', '\r'], " ");
    let mut contents = format!(
        "-- cube-seed: {:#018x}\n-- target: {}\n-- kind: {}\n-- found: {}\n",
        failure.target_seed, failure.target_name, failure.kind, detail_one_line
    );
    contents.push_str(&failure.program);
    if !contents.ends_with('\n') {
        contents.push('\n');
    }
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Replays one corpus entry written by [`write_target_corpus`]: rebuilds
/// the target from the `-- cube-seed:` header and reruns the
/// differential case. `Ok(true)` means the program compiled everywhere
/// and agreed, `Ok(false)` that it was (benignly) skipped.
///
/// # Errors
///
/// Returns a description of the failure if the bug has come back, or of
/// the parse problem if the file is not a valid corpus entry.
pub fn replay_target_corpus_file(path: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let seed_line = text
        .lines()
        .find(|l| l.starts_with("-- cube-seed:"))
        .ok_or_else(|| format!("{}: missing `-- cube-seed:` header", path.display()))?;
    let hex = seed_line.trim_start_matches("-- cube-seed:").trim().trim_start_matches("0x");
    let seed = u64::from_str_radix(hex, 16)
        .map_err(|e| format!("{}: bad cube seed {hex:?}: {e}", path.display()))?;
    let params = CubeParams::from_seed(seed);
    let target = params
        .build()
        .map_err(|e| format!("{}: cube point {seed:#x} no longer builds: {e}", path.display()))?;
    let compiler = Compiler::for_target(target.clone())
        .map_err(|e| format!("{}: compiler rejects cube point {seed:#x}: {e}", path.display()))?;
    let mut rng = Rng::new(seed);
    match with_quiet_panics(|| {
        differential_case(&compiler, &target, &text, &mut rng, &target_plans(), None, None)
    }) {
        CaseOutcome::Compared => Ok(true),
        CaseOutcome::Skipped => Ok(false),
        CaseOutcome::Failed(kind, detail) => Err(format!("{}: {kind}: {detail}", path.display())),
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_inputs_are_deterministic_per_seed() {
        let a = frontend_input(&mut Rng::new(9));
        let b = frontend_input(&mut Rng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn traced_fuzz_records_a_span_and_valid_json() {
        let tracer = Tracer::fake_clock();
        let report = run_frontend_fuzz_traced(5, 0xC0DE, Some(&tracer));
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].root.name, "frontend-fuzz");
        assert_eq!(traces[0].root.attr("cases"), Some(&record::AttrValue::Int(5)));
        record_trace::json::validate(&report.render_json()).unwrap();
    }

    #[test]
    fn generated_programs_usually_lower() {
        let mut lowered = 0;
        for seed in 0..40u64 {
            let src = dfl::gen_program(&mut Rng::new(seed));
            if check_frontend(&src) == Ok(true) {
                lowered += 1;
            }
        }
        assert!(lowered >= 30, "only {lowered}/40 generated programs lowered");
    }
}
