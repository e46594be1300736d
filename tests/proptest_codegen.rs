//! Property-based end-to-end validation: random straight-line programs
//! must compile on every target and compute exactly what the IR-level
//! reference evaluation computes.
//!
//! This exercises the whole stack — variant enumeration, BURS covering,
//! spill chains, register allocation, layout, addressing, compaction and
//! the simulator — against hundreds of machine-generated programs.

use std::collections::HashMap;

use record::{Compiler, PassPlan};
use record_ir::lir::{Lir, LirItem, StorageKind, VarInfo};
use record_ir::{AssignStmt, BinOp, MemRef, Symbol, Tree, UnOp};
use record_prop::{run_cases, Rng};
use record_sim::run_program;

const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

fn gen_tree(rng: &mut Rng, depth: u32) -> Tree {
    if depth == 0 || rng.usize(4) == 0 {
        return if rng.bool() {
            Tree::var(*rng.pick(&VARS))
        } else {
            Tree::constant(rng.i64_in(-100, 100))
        };
    }
    if rng.usize(3) == 0 {
        let op = *rng.pick(&[UnOp::Neg, UnOp::Abs, UnOp::Not]);
        Tree::un(op, gen_tree(rng, depth - 1))
    } else {
        let op =
            *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor]);
        Tree::bin(op, gen_tree(rng, depth - 1), gen_tree(rng, depth - 1))
    }
}

fn gen_program(rng: &mut Rng) -> Vec<(usize, Tree)> {
    let n = rng.usize(4) + 1;
    (0..n).map(|_| (rng.usize(VARS.len()), gen_tree(rng, 3))).collect()
}

fn gen_init(rng: &mut Rng) -> [i64; 4] {
    [(); 4].map(|_| rng.i64_in(-300, 300))
}

/// Reference semantics: execute the assignment list over a variable map
/// with 16-bit wrap-around arithmetic.
fn reference(stmts: &[(usize, Tree)], init: &[i64; 4]) -> [i64; 4] {
    let mut env: HashMap<Symbol, i64> =
        VARS.iter().zip(init).map(|(v, x)| (Symbol::new(*v), *x)).collect();
    for (dst, tree) in stmts {
        let mut mem = |r: &MemRef| *env.get(r.base()).unwrap_or(&0);
        let mut tmp = |_: &Symbol| 0;
        let v = tree.eval(16, &mut mem, &mut tmp);
        env.insert(Symbol::new(VARS[*dst]), v);
    }
    let mut out = [0i64; 4];
    for (i, v) in VARS.iter().enumerate() {
        out[i] = env[&Symbol::new(*v)];
    }
    out
}

fn lir_of(stmts: &[(usize, Tree)]) -> Lir {
    Lir {
        name: Symbol::new("prop"),
        vars: VARS
            .iter()
            .map(|v| VarInfo {
                name: Symbol::new(*v),
                len: 1,
                kind: StorageKind::Var,
                bank: None,
                is_fix: true,
            })
            .collect(),
        body: stmts
            .iter()
            .map(|(dst, tree)| {
                LirItem::Assign(AssignStmt { dst: MemRef::scalar(VARS[*dst]), src: tree.clone() })
            })
            .collect(),
    }
}

fn check_on(target: record_isa::TargetDesc, stmts: &[(usize, Tree)], init: [i64; 4]) {
    let compiler = Compiler::for_target(target.clone()).unwrap();
    let lir = lir_of(stmts);
    let code = match compiler.compile(&lir, &PassPlan::o2()) {
        Ok(c) => c,
        // a register file can genuinely be too small for a random tree;
        // that is a reported error, not a soundness issue
        Err(record::CompileError::OutOfRegisters { .. }) => return,
        Err(e) => panic!("{}: {e}", target.name),
    };
    let inputs: HashMap<Symbol, Vec<i64>> =
        VARS.iter().zip(init).map(|(v, x)| (Symbol::new(*v), vec![x])).collect();
    let (out, _) = run_program(&code, &target, &inputs)
        .unwrap_or_else(|e| panic!("{}: {e}\n{}", target.name, code.render()));
    let expect = reference(stmts, &init);
    for (i, v) in VARS.iter().enumerate() {
        assert_eq!(
            out[&Symbol::new(*v)],
            vec![expect[i]],
            "{}: variable {v} differs\n{}",
            target.name,
            code.render()
        );
    }
}

#[test]
fn tic25_matches_reference() {
    run_cases(96, |rng| {
        let stmts = gen_program(rng);
        let init = gen_init(rng);
        check_on(record_isa::targets::tic25::target(), &stmts, init);
    });
}

#[test]
fn risc8_matches_reference() {
    run_cases(96, |rng| {
        let stmts = gen_program(rng);
        let init = gen_init(rng);
        check_on(record_isa::targets::simple_risc::target(8), &stmts, init);
    });
}

#[test]
fn dsp56k_matches_reference() {
    run_cases(96, |rng| {
        let stmts = gen_program(rng);
        let init = gen_init(rng);
        check_on(record_isa::targets::dsp56k::target(), &stmts, init);
    });
}

#[test]
fn variants_never_increase_cost() {
    run_cases(96, |rng| {
        // covering any enumerated variant never beats the selector's pick
        let tree = gen_tree(rng, 3);
        let target = record_isa::targets::tic25::target();
        let matcher = record_burg::Matcher::new(&target);
        let acc = target.nt("acc").unwrap();
        let all = record_ir::transform::variants(&tree, &record_ir::transform::RuleSet::all(), 24);
        let costs: Vec<u64> =
            all.iter().filter_map(|v| matcher.cover(v, acc).map(|c| c.cost.weight())).collect();
        if let (Some(first), Some(min)) = (costs.first(), costs.iter().min()) {
            assert!(min <= first);
        }
    });
}

#[test]
fn every_variant_is_coverable_iff_original_is() {
    run_cases(96, |rng| {
        // algebraic rewriting must not lose coverability on tic25 for the
        // operators this generator emits (all have direct rules)
        let tree = gen_tree(rng, 3);
        let target = record_isa::targets::tic25::target();
        let matcher = record_burg::Matcher::new(&target);
        let acc = target.nt("acc").unwrap();
        assert!(matcher.cover(&tree, acc).is_some(), "generator only emits coverable operators");
    });
}

#[test]
fn fold_preserves_semantics_on_random_trees() {
    run_cases(96, |rng| {
        let tree = gen_tree(rng, 4);
        let init = gen_init(rng);
        let folded = record_ir::fold::fold(&tree, 16);
        let env: HashMap<&str, i64> = VARS.iter().copied().zip(init).collect();
        let mut mem = |r: &MemRef| *env.get(r.base().as_str()).unwrap_or(&0);
        let mut tmp = |_: &Symbol| 0;
        let a = tree.eval(16, &mut mem, &mut tmp);
        let mut mem2 = |r: &MemRef| *env.get(r.base().as_str()).unwrap_or(&0);
        let mut tmp2 = |_: &Symbol| 0;
        let b = folded.eval(16, &mut mem2, &mut tmp2);
        assert_eq!(a, b);
    });
}
