//! Property-based validation of the pass manager: *any* sampled
//! [`PassPlan`] — randomly configured passes plus random removals of the
//! optional passes — must compile every DSPStone kernel to structurally
//! valid code that computes exactly what the unoptimized (`O0`) plan
//! computes.
//!
//! Every case runs with strict inter-pass verification on, so each
//! pass's postconditions are exercised under every sampled
//! configuration.

use record::{compact_pass, modes_pass, select_pass, Compiler, PassPlan};
use record_ir::transform::RuleSet;
use record_ir::Symbol;
use record_opt::modes::ModeStrategy;
use record_opt::ScheduleMode;
use record_prop::{run_cases, Rng};
use record_sim::run_program;

/// A random plan: `O2` with every configurable pass resampled (selection
/// rules, variant limit and DAG covering; compaction schedule; mode
/// strategy), constant folding switched on at random, and the optional
/// passes dropped by name. `compact`/`hoist` are dropped together
/// (hoisting is compaction's companion, as in the original pipeline).
fn random_plan(rng: &mut Rng) -> PassPlan {
    let rules = if rng.bool() { RuleSet::all() } else { RuleSet::none() };
    let variant_limit = rng.usize(8) + 1;
    let fold = rng.bool();
    let cse = rng.bool();
    let compact = rng.bool();
    let offset = rng.bool();
    let banks = rng.bool();
    let strategy = *rng.pick(&[ModeStrategy::Lazy, ModeStrategy::PerUse]);
    let rpt = rng.bool();
    let schedule = *rng.pick(&[
        None,
        Some(ScheduleMode::List),
        Some(ScheduleMode::BranchAndBound { max_segment: 8 }),
    ]);
    let dag_cover = rng.bool();
    let mut plan = PassPlan::o2()
        .replacing("select", select_pass(rules, variant_limit, dag_cover))
        .replacing("compact", compact_pass(schedule))
        .replacing("modes", modes_pass(strategy));
    if fold {
        plan = plan.folding();
    }
    for (name, keep) in [("treeify", cse), ("offset", offset), ("banks", banks), ("rpt", rpt)] {
        if !keep {
            plan = plan.without(name);
        }
    }
    if !compact {
        plan = plan.without("compact").without("hoist");
    }
    for name in ["fold", "treeify", "offset", "banks", "rpt"] {
        if rng.usize(4) == 0 {
            plan = plan.without(name);
        }
    }
    if rng.usize(4) == 0 {
        plan = plan.without("compact").without("hoist");
    }
    plan.strict(true)
}

#[test]
fn every_sampled_plan_is_valid_and_semantics_preserving() {
    let targets = [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()];
    let compilers: Vec<Compiler> =
        targets.into_iter().map(|t| Compiler::for_target(t).unwrap()).collect();
    let kernels = record_dspstone::kernels();
    let lirs: Vec<record_ir::lir::Lir> = kernels
        .iter()
        .map(|k| record_ir::lower::lower(&record_ir::dfl::parse(k.source).unwrap()).unwrap())
        .collect();
    let o0 = PassPlan::o0().strict(true);

    run_cases(48, |rng| {
        let plan = random_plan(rng);
        let compiler = &compilers[rng.usize(compilers.len())];
        let ix = rng.usize(kernels.len());
        let (kernel, lir) = (&kernels[ix], &lirs[ix]);

        let code = compiler
            .compile(lir, &plan)
            .unwrap_or_else(|e| panic!("{}: plan {:?} failed: {e}", kernel.name, plan.names()));
        // strict mode already verified between passes; the final artifact
        // must also stand on its own
        code.verify().unwrap_or_else(|e| {
            panic!("{}: plan {:?} produced invalid code: {e}", kernel.name, plan.names())
        });

        let baseline = compiler.compile(lir, &o0).unwrap();
        let inputs = kernel.inputs(rng.usize(1 << 16) as u64);
        let (got, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        let (want, _) = run_program(&baseline, compiler.target(), &inputs).unwrap();
        for (name, _) in kernel.outputs() {
            let sym = Symbol::new(*name);
            assert_eq!(
                got.get(&sym),
                want.get(&sym),
                "{} on {}: output {name} diverges from O0 under plan {:?}",
                kernel.name,
                compiler.target().name,
                plan.names()
            );
        }
    });
}
