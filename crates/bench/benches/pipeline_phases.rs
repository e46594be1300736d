//! **Fig. 2** — the global view of RECORD: per-phase latency of the
//! pipeline (parse → lower → treeify → matcher generation → cover →
//! full compile) on the FIR kernel, printed as a phase table and timed.

use record_bench::criterion;
use record_bench::{black_box, Criterion};
use record_burg::Matcher;

fn phase_table() {
    use std::time::Instant;
    let kernel = record_dspstone::kernel("fir").unwrap();
    let target = record_isa::targets::tic25::target();

    let t0 = Instant::now();
    let ast = record_ir::dfl::parse(kernel.source).unwrap();
    let t_parse = t0.elapsed();

    let t0 = Instant::now();
    let lir = record_ir::lower::lower(&ast).unwrap();
    let t_lower = t0.elapsed();

    let t0 = Instant::now();
    let matcher = Matcher::new(&target);
    let t_gen = t0.elapsed();

    // one representative tree: the MAC statement
    let tree = record_ir::Tree::bin(
        record_ir::BinOp::Add,
        record_ir::Tree::var("y"),
        record_ir::Tree::bin(
            record_ir::BinOp::Mul,
            record_ir::Tree::var("c"),
            record_ir::Tree::var("x"),
        ),
    );
    let t0 = Instant::now();
    let cover = matcher.cover(&tree, target.nt("acc").unwrap()).unwrap();
    let t_cover = t0.elapsed();

    let compiler = record::Compiler::for_target(target.clone()).unwrap();
    let t0 = Instant::now();
    let mut recorder = record::SpanRecorder::disabled();
    let (code, timings) =
        compiler.compile_recorded(&lir, &record::PassPlan::o2(), &mut recorder).unwrap();
    let t_compile = t0.elapsed();

    println!("\nFig. 2 pipeline phases on `fir` ({} words out):", code.size_words());
    println!("  parse                {t_parse:>12?}");
    println!("  lower                {t_lower:>12?}");
    println!("  matcher generation   {t_gen:>12?}");
    println!("  label+reduce (1 tree){t_cover:>12?}   ({} words cover)", cover.cost.words);
    println!("  full compile         {t_compile:>12?}");
    println!("  pass trace:");
    for p in &timings.passes {
        println!(
            "    {:<8} {:>10.1}µs   {:>3} -> {:>3} insns",
            p.name,
            p.time.as_secs_f64() * 1e6,
            p.before.insns,
            p.after.insns
        );
    }
}

fn bench(c: &mut Criterion) {
    let kernel = record_dspstone::kernel("fir").unwrap();
    let target = record_isa::targets::tic25::target();
    let ast = record_ir::dfl::parse(kernel.source).unwrap();
    let lir = record_ir::lower::lower(&ast).unwrap();
    let compiler = record::Compiler::for_target(target.clone()).unwrap();
    let plan = record::PassPlan::o2();

    let mut group = c.benchmark_group("pipeline_phases");
    group.bench_function("parse", |b| {
        b.iter(|| black_box(record_ir::dfl::parse(black_box(kernel.source)).unwrap()))
    });
    group.bench_function("lower", |b| {
        b.iter(|| black_box(record_ir::lower::lower(black_box(&ast)).unwrap()))
    });
    group.bench_function("matcher_generation", |b| {
        b.iter(|| black_box(Matcher::new(black_box(&target))))
    });
    group.bench_function("full_compile", |b| {
        b.iter(|| black_box(compiler.compile(black_box(&lir), &plan).unwrap()))
    });
    group.finish();
}

fn main() {
    phase_table();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
