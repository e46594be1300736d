//! Golden assembly snapshot: every DSPStone kernel (the ten of Table 1
//! plus `lms`) × every target `recordd` resolves by name × the
//! `O0`/`O1`/`O2` presets, rendered listing or error code per row,
//! compared byte for byte against `tests/golden/asm.txt`.
//!
//! The snapshot pins behaviour across refactors without keeping a second
//! implementation alive. Regenerate it (only after an intended change to
//! the emitted code) with
//!
//! ```text
//! cargo test --test golden_asm -- --ignored bless_golden_asm
//! ```

use record::{Budgets, Compiler, PassPlan};

const GOLDEN: &str = "tests/golden/asm.txt";

const TARGETS: [&str; 6] = ["tic25", "dsp56k", "risc8", "asip-dsp", "asip-min", "asip-default"];

fn presets() -> [(&'static str, PassPlan); 3] {
    [("o0", PassPlan::o0()), ("o1", PassPlan::o1()), ("o2", PassPlan::o2())]
}

/// The whole snapshot, with every preset passed through `adjust` first.
fn snapshot(adjust: impl Fn(PassPlan) -> PassPlan) -> String {
    let mut kernels = record_dspstone::kernels();
    kernels.extend(record_dspstone::extension_kernels());
    let mut out = String::new();
    for name in TARGETS {
        let target = record_serve::resolve_target(name).expect("bundled target");
        let compiler = Compiler::for_target(target).expect("bundled target is valid");
        for kernel in &kernels {
            let lir = record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap())
                .expect("kernel lowers");
            for (preset, plan) in presets() {
                out.push_str(&format!("== {} {name} {preset}\n", kernel.name));
                match compiler.compile(&lir, &adjust(plan)) {
                    Ok(code) => out.push_str(&code.render()),
                    Err(e) => out.push_str(&format!("error: {}\n", record_serve::error_code(&e))),
                }
            }
        }
    }
    out
}

/// Fails with the first differing row rather than two huge strings.
fn assert_matches_golden(actual: &str, what: &str) {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden snapshot is committed");
    if actual == golden {
        return;
    }
    let rows = |s: &str| -> Vec<String> {
        let mut rows: Vec<String> = Vec::new();
        for line in s.lines() {
            match rows.last_mut() {
                Some(row) if !line.starts_with("== ") => row.push_str(line),
                _ => rows.push(line.to_string()),
            }
            rows.last_mut().expect("row just pushed").push('\n');
        }
        rows
    };
    let (want, got) = (rows(&golden), rows(actual));
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(g, w, "{what}: row differs from {GOLDEN}");
    }
    panic!("{what}: {} rows, golden has {}", got.len(), want.len());
}

#[test]
fn every_kernel_target_and_preset_matches_the_golden_listing() {
    assert_matches_golden(&snapshot(|plan| plan), "presets");
}

/// `recordd` compiles with service budgets and without strict
/// verification; neither may change the emitted code.
#[test]
fn service_budget_plans_match_the_golden_listing() {
    let served = snapshot(|plan| plan.with_budgets(Budgets::service()).strict(false));
    assert_matches_golden(&served, "service budgets");
}

#[test]
#[ignore = "rewrites the golden snapshot"]
fn bless_golden_asm() {
    std::fs::write(GOLDEN, snapshot(|plan| plan)).expect("write golden snapshot");
}
