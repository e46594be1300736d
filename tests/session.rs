//! Session-cache soundness: compiling through a [`record::Session`]
//! (which reuses generated BURS tables across compiles) must be
//! observationally identical to compiling through a fresh
//! [`record::Compiler`] — byte-for-byte identical code on success, the
//! same rendered error on failure — for every DSPStone kernel on every
//! built-in target. The parallel batch driver must likewise match a
//! sequential loop, in input order.

use record::{CompileInput, Compiler, PassPlan, Session};
use record_ir::lir::Lir;
use record_ir::{dfl, lower};
use record_isa::TargetDesc;

fn targets() -> Vec<TargetDesc> {
    vec![
        record_isa::targets::tic25::target(),
        record_isa::targets::dsp56k::target(),
        record_isa::targets::simple_risc::target(8),
    ]
}

/// Render an outcome (code or error) to a comparable string.
fn outcome_text(r: &Result<record_isa::Code, record::CompileError>) -> String {
    match r {
        Ok(code) => format!("ok:\n{}", code.render()),
        Err(e) => format!("err: {e}"),
    }
}

#[test]
fn session_compile_is_identical_to_fresh_compile_everywhere() {
    for target in targets() {
        let session = Session::new();
        let fresh = Compiler::for_target(target.clone()).unwrap();
        for kernel in record_dspstone::kernels() {
            // two session rounds: the first generates the tables, the
            // second hits the cache — both must equal the fresh compile
            for round in 0..2 {
                let cached = session.compile_source(&target, kernel.source);
                let direct = fresh.compile_source(kernel.source);
                assert_eq!(
                    outcome_text(&cached),
                    outcome_text(&direct),
                    "{} on {} (round {round}) diverges",
                    kernel.name,
                    target.name
                );
            }
        }
        let stats = session.stats();
        assert_eq!(stats.misses, 1, "{}: tables generated once", target.name);
        assert!(stats.hits >= 1, "{}: cache never hit", target.name);
    }
}

#[test]
fn compile_batch_equals_sequential_compilation() {
    for target in targets() {
        let session = Session::new();
        let lirs: Vec<Lir> = record_dspstone::kernels()
            .into_iter()
            .map(|k| lower::lower(&dfl::parse(k.source).unwrap()).unwrap())
            .collect();
        let inputs: Vec<CompileInput> = lirs.iter().map(CompileInput::Lir).collect();
        let batch = session.compile_batch(&target, &inputs, None).unwrap();
        assert_eq!(batch.len(), lirs.len());

        let fresh = Compiler::for_target(target.clone()).unwrap();
        for (i, (lir, outcome)) in lirs.iter().zip(&batch).enumerate() {
            let sequential = fresh.compile(lir, &PassPlan::o2());
            assert_eq!(
                outcome_text(outcome),
                outcome_text(&sequential),
                "batch slot {i} ({}) on {} diverges from sequential",
                lir.name,
                target.name
            );
            if let Ok(code) = outcome {
                assert_eq!(code.name, lir.name.to_string(), "slot {i} out of order");
            }
        }
    }
}

#[test]
fn batch_determinism_across_repeated_runs() {
    // thread scheduling must never leak into the output: two batch runs
    // produce byte-identical outcome vectors
    let target = record_isa::targets::tic25::target();
    let session = Session::new();
    let lirs: Vec<Lir> = record_dspstone::kernels()
        .into_iter()
        .map(|k| lower::lower(&dfl::parse(k.source).unwrap()).unwrap())
        .collect();
    let inputs: Vec<CompileInput> = lirs.iter().map(CompileInput::Lir).collect();
    let a = session.compile_batch(&target, &inputs, None).unwrap();
    let b = session.compile_batch(&target, &inputs, None).unwrap();
    let render = |v: &[Result<record_isa::Code, record::CompileError>]| {
        v.iter().map(outcome_text).collect::<Vec<_>>().join("\n---\n")
    };
    assert_eq!(render(&a), render(&b));
}
