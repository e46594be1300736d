//! Hash-consed tree interning: the pool must be a faithful, allocation-
//! free mirror of the boxed [`Tree`] world, and the interned selection
//! hot path must emit **byte-identical** code to the boxed reference
//! implementation on the whole DSPStone corpus, both targets, at `O0`
//! and `O2`.
//!
//! The byte-equivalence test is the golden gate for the interning
//! refactor: `reference_select_pass` keeps the original boxed
//! enumerate-then-cover selector alive, and every kernel is compiled
//! through both selectors and compared on rendered assembly.

use record::{reference_select_pass, select_pass, Compiler, PassPlan, Session};
use record_burg::{LabelCache, Matcher};
use record_ir::transform::{variants, variants_interned, RuleSet};
use record_ir::{BinOp, Tree, TreePool, UnOp};
use record_prop::{run_cases, Rng};

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

#[test]
fn interning_round_trips_every_generated_tree() {
    run_cases(300, |rng| {
        let tree = gen_tree(rng, 4);
        let mut pool = TreePool::new();
        let id = pool.intern(&tree);
        assert_eq!(pool.to_tree(id), tree, "to_tree(intern(t)) != t");
        // interning is idempotent: the same structure maps to the same id
        let again = pool.intern(&tree);
        assert_eq!(id, again, "re-interning produced a fresh id");
        // a structural clone built independently also dedups to the id
        let clone = tree.clone();
        assert_eq!(pool.intern(&clone), id);
    });
}

#[test]
fn structural_equality_is_id_equality() {
    run_cases(200, |rng| {
        let a = gen_tree(rng, 3);
        let b = gen_tree(rng, 3);
        let mut pool = TreePool::new();
        let ia = pool.intern(&a);
        let ib = pool.intern(&b);
        assert_eq!(a == b, ia == ib, "{a:?} vs {b:?}");
    });
}

/// `cr + ar*br - ai*bi`, a typical Table 1 statement: the fixed input
/// the two generated-tree checks below also run at limits 1/8/32/128.
fn statement_tree() -> Tree {
    Tree::bin(
        BinOp::Sub,
        Tree::bin(
            BinOp::Add,
            Tree::var("cr"),
            Tree::bin(BinOp::Mul, Tree::var("ar"), Tree::var("br")),
        ),
        Tree::bin(BinOp::Mul, Tree::var("ai"), Tree::var("bi")),
    )
}

const STATEMENT_LIMITS: [usize; 4] = [1, 8, 32, 128];

fn assert_streamed_matches_boxed(tree: &Tree, rules: &RuleSet, limit: usize) {
    let boxed = variants(tree, rules, limit);
    let mut pool = TreePool::new();
    let ids = variants_interned(&mut pool, tree, rules, limit);
    assert_eq!(boxed.len(), ids.len(), "limit {limit}: variant count diverged on {tree:?}");
    for (v, &id) in boxed.iter().zip(&ids) {
        assert_eq!(pool.to_tree(id), *v, "variant order or content diverged");
    }
}

#[test]
fn streamed_variants_match_boxed_enumeration_on_generated_trees() {
    for limit in STATEMENT_LIMITS {
        assert_streamed_matches_boxed(&statement_tree(), &RuleSet::all(), limit);
    }
    run_cases(120, |rng| {
        let tree = gen_tree(rng, 3);
        let commute_only = RuleSet { commutativity: true, ..RuleSet::none() };
        let rules = *rng.pick(&[RuleSet::all(), commute_only, RuleSet::none()]);
        let limit = *rng.pick(&[1usize, 4, 16, 64]);
        assert_streamed_matches_boxed(&tree, &rules, limit);
    });
}

#[test]
fn interned_covers_agree_with_boxed_covers_on_generated_trees() {
    let target = record_isa::targets::tic25::target();
    let matcher = Matcher::new(&target);
    let acc = target.nt("acc").unwrap();
    let mut cache = LabelCache::new();
    let mut pool = TreePool::new();
    let mut check = |tree: &Tree| {
        let id = pool.intern(tree);
        let reference = matcher.cover(tree, acc);
        let interned = matcher.cover_interned(&pool, id, &mut cache, acc);
        match (&reference, &interned) {
            (None, None) => {}
            (Some(r), Some(i)) => {
                assert_eq!(r.cost, i.cost, "{tree:?}");
                assert_eq!(r.root, i.root, "{tree:?}");
            }
            _ => panic!("coverability diverged on {tree:?}"),
        }
    };
    for limit in STATEMENT_LIMITS {
        variants(&statement_tree(), &RuleSet::all(), limit).iter().for_each(&mut check);
    }
    run_cases(150, |rng| check(&gen_tree(rng, 3)));
}

/// The tentpole's measurable claim: on real kernels the pool
/// deduplicates nodes and the labeler replays memoized subtrees.
#[test]
fn interning_pays_off_on_real_kernels() {
    let session = Session::new();
    let target = record_isa::targets::tic25::target();
    for name in ["convolution", "fir"] {
        let kernel = record_dspstone::kernel(name).expect("known kernel");
        let (_, timings) = session.compile_source_timed(&target, kernel.source).unwrap();
        assert!(timings.interned_nodes > 0, "{name}: nothing interned");
        assert!(timings.dedup_hits > 0, "{name}: hash-consing never deduplicated");
        assert!(timings.labels_memoized > 0, "{name}: label cache never hit");
        assert!(timings.search_steps > 0, "{name}: variant enumeration charged no search steps");
    }
}

/// Golden byte-equivalence: the interned selector and the boxed
/// reference selector must emit *identical* assembly for every DSPStone
/// kernel on both shipped targets, with optimizations off (`O0`) and
/// fully on (`O2`). DAG covering is held off on both sides — it is a
/// deliberate code *change* (validated semantically in
/// `tests/dag_cover.rs`), while this test pins the per-statement paths
/// against each other byte for byte.
#[test]
fn interned_selection_is_byte_identical_to_the_boxed_reference() {
    let o2_per_statement = select_pass(RuleSet::all(), 32, false);
    let presets = [
        ("O0", PassPlan::o0(), RuleSet::none(), 1),
        ("O2", PassPlan::o2().replacing("select", o2_per_statement), RuleSet::all(), 32),
    ];
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        let compiler = Compiler::for_target(target.clone()).unwrap();
        for (preset, plan, rules, variant_limit) in &presets {
            let reference_plan =
                plan.clone().replacing("select", reference_select_pass(*rules, *variant_limit));
            for kernel in record_dspstone::kernels() {
                let lir = record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap())
                    .unwrap();
                let interned = compiler.compile(&lir, plan).unwrap();
                let boxed = compiler.compile(&lir, &reference_plan).unwrap();
                assert_eq!(
                    interned.render(),
                    boxed.render(),
                    "{}/{}/{preset}: interned selection changed the emitted code",
                    kernel.name,
                    target.name,
                );
            }
        }
    }
}

/// `tests/golden/bench_baseline.json` is the `BENCH_compile.json` of the
/// current compiler, byte for byte: every selection counter, `insns` and
/// `words` of the ten DSPStone kernels on both bundled targets, one row
/// per line. CI runs the same comparison on the release build with
/// `diff`. Regenerate the file (only after an intended change to
/// selection work or code size) with
///
/// ```text
/// cargo run --release --example dspstone_report -- --bench-json tests/golden/bench_baseline.json
/// ```
#[test]
fn bench_baseline_matches_current_deterministic_counters() {
    const BASELINE: &str = "tests/golden/bench_baseline.json";
    let golden = std::fs::read_to_string(BASELINE).expect("committed baseline");
    let rows = record::report::kernel_bench_report(&Session::new()).unwrap();
    let current = record::report::render_kernel_bench_json(&rows);
    for (got, want) in current.lines().zip(golden.lines()) {
        assert_eq!(got, want, "row differs from {BASELINE}");
    }
    assert!(
        current == golden,
        "{BASELINE}: {} lines, golden has {}",
        current.lines().count(),
        golden.lines().count()
    );
}
