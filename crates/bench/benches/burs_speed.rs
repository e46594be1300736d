//! **Section 4.3.3** — "this approach is feasible due to the high speed
//! of iburg-based matchers": measures matcher throughput (trees per
//! second) and the cost of enumerating and matching algebraic variants
//! per statement, which is RECORD's whole selection strategy.

use record_bench::criterion;
use record_bench::{black_box, Criterion};
use record_burg::{LabelCache, Matcher};
use record_ir::transform::{variants, variants_interned, RuleSet, VariantStream};
use record_ir::{BinOp, Tree, TreePool};

fn statement_tree() -> Tree {
    // dr := cr + ar*br - ai*bi — a typical Table 1 statement
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

fn print_stats() {
    let target = record_isa::targets::tic25::target();
    let matcher = Matcher::new(&target);
    let acc = target.nt("acc").unwrap();
    let tree = statement_tree();

    println!("\nvariant enumeration and matching for `cr + ar*br - ai*bi`:");
    for limit in [1usize, 8, 32, 128] {
        let vs = variants(&tree, &RuleSet::all(), limit);
        let best =
            vs.iter().filter_map(|v| matcher.cover(v, acc).map(|c| c.cost.words)).min().unwrap();
        println!("  limit {limit:>4}: {:>4} variants, best cover {best} words", vs.len());
    }

    // raw throughput estimate
    let n = 20_000u32;
    let start = std::time::Instant::now();
    for _ in 0..n {
        black_box(matcher.cover(black_box(&tree), acc));
    }
    let per = start.elapsed() / n;
    println!(
        "matcher throughput: {per:?} per tree (~{:.0}k trees/s) — \"the high speed of iburg-based matchers\"",
        1.0e6 / per.as_micros().max(1) as f64
    );
}

fn bench(c: &mut Criterion) {
    let target = record_isa::targets::tic25::target();
    let matcher = Matcher::new(&target);
    let acc = target.nt("acc").unwrap();
    let tree = statement_tree();

    let mut group = c.benchmark_group("burs_speed");
    group.bench_function("label_and_reduce", |b| {
        b.iter(|| black_box(matcher.cover(black_box(&tree), acc).unwrap()))
    });
    let mut pool = TreePool::new();
    let root = pool.intern(&tree);
    group.bench_function("label_and_reduce_interned", |b| {
        b.iter(|| {
            let mut cache = LabelCache::new();
            black_box(matcher.cover_interned(&pool, root, &mut cache, acc).unwrap())
        })
    });
    let mut warm = LabelCache::new();
    matcher.cover_interned(&pool, root, &mut warm, acc);
    group.bench_function("label_and_reduce_memoized", |b| {
        b.iter(|| black_box(matcher.cover_interned(&pool, root, &mut warm, acc).unwrap()))
    });
    group.bench_function("enumerate_32_variants", |b| {
        b.iter(|| black_box(variants(black_box(&tree), &RuleSet::all(), 32)))
    });
    group.bench_function("enumerate_32_variants_streamed", |b| {
        b.iter(|| black_box(variants_interned(&mut pool, black_box(&tree), &RuleSet::all(), 32)))
    });
    group.bench_function("select_over_32_variants", |b| {
        b.iter(|| {
            let vs = variants(black_box(&tree), &RuleSet::all(), 32);
            vs.iter().filter_map(|v| matcher.cover(v, acc).map(|c| c.cost.weight())).min()
        })
    });
    group.bench_function("select_over_32_variants_interned", |b| {
        b.iter(|| {
            let mut stream = VariantStream::new(&mut pool, black_box(&tree), RuleSet::all(), 32);
            let mut best = None;
            while let Some(id) = stream.next(&mut pool) {
                let w = matcher.cover_interned(&pool, id, &mut warm, acc).map(|c| c.cost.weight());
                best = match (best, w) {
                    (None, w) => w,
                    (Some(b), Some(w)) => Some(if w < b { w } else { b }),
                    (b, None) => b,
                };
            }
            black_box(best)
        })
    });
    group.finish();
}

fn main() {
    print_stats();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
