//! Session-cache payoff — quantifies what the [`record::Session`] layer
//! buys: a fresh `Compiler::for_target` regenerates the BURS tables
//! (rule indexing, chain-rule closure) on every construction, while a
//! `Session` builds them once per target fingerprint and shares them via
//! `Arc` across all subsequent compiles, including the parallel batch
//! driver. The headline number is the per-kernel cost of
//! fresh-construct-and-compile vs. cached compile; the acceptance bar
//! is a ≥2× speedup for second-and-later compiles.

use record::{CompileInput, Compiler, PassPlan, Session};
use record_bench::criterion;
use record_bench::{black_box, Criterion};
use record_ir::lir::Lir;
use record_ir::{dfl, lower};

fn kernel_lirs() -> Vec<Lir> {
    record_dspstone::kernels()
        .into_iter()
        .map(|k| lower::lower(&dfl::parse(k.source).unwrap()).unwrap())
        .collect()
}

fn print_stats() {
    let target = record_isa::targets::tic25::target();
    let lirs = kernel_lirs();
    let inputs: Vec<CompileInput> = lirs.iter().map(CompileInput::Lir).collect();
    let o2 = PassPlan::o2();
    let n = 50u32;

    // what the cache amortizes: obtaining a ready compiler. The fresh
    // path clones the description, validates it and regenerates the BURS
    // tables; the session path is a fingerprint + map lookup.
    let m = 5_000u32;
    let start = std::time::Instant::now();
    for _ in 0..m {
        black_box(Compiler::for_target(black_box(target.clone())).unwrap());
    }
    let construct = start.elapsed() / m;
    let session = Session::new();
    session.compiler_for(&target).unwrap(); // warm the cache
    let start = std::time::Instant::now();
    for _ in 0..m {
        black_box(session.compiler_for(black_box(&target)).unwrap());
    }
    let lookup = start.elapsed() / m;
    let speedup = construct.as_nanos() as f64 / lookup.as_nanos().max(1) as f64;
    println!("\nready-compiler acquisition on tic25 (second-and-later compiles):");
    println!("  fresh  (Compiler::for_target, tables rebuilt): {construct:?}");
    println!("  cached (Session::compiler_for, tables shared): {lookup:?}");
    println!("  speedup: {speedup:.2}x (acceptance bar: >= 2x)");

    // end-to-end per-kernel compile, fresh vs. cached
    let start = std::time::Instant::now();
    for _ in 0..n {
        for lir in &lirs {
            let compiler = Compiler::for_target(target.clone()).unwrap();
            black_box(compiler.compile(black_box(lir), &o2).ok());
        }
    }
    let fresh = start.elapsed() / (n * lirs.len() as u32);
    let start = std::time::Instant::now();
    for _ in 0..n {
        for lir in &lirs {
            black_box(session.compile(&target, CompileInput::Lir(black_box(lir)), None, None).ok());
        }
    }
    let cached = start.elapsed() / (n * lirs.len() as u32);
    println!("\nper-kernel compile, {} DSPStone kernels on tic25:", lirs.len());
    println!("  fresh  (Compiler::for_target each time): {fresh:?}");
    println!("  cached (Session, shared BURS tables):    {cached:?}");

    // batch driver vs. a sequential loop over the same session
    let start = std::time::Instant::now();
    for _ in 0..n {
        black_box(session.compile_batch(&target, &inputs, None).unwrap());
    }
    let batch = start.elapsed() / n;
    let start = std::time::Instant::now();
    for _ in 0..n {
        let v: Vec<_> = lirs
            .iter()
            .map(|l| session.compile(&target, CompileInput::Lir(l), None, None))
            .collect();
        black_box(v);
    }
    let seq = start.elapsed() / n;
    println!("full suite: sequential {seq:?}, compile_batch {batch:?}");
}

fn bench(c: &mut Criterion) {
    let target = record_isa::targets::tic25::target();
    let lirs = kernel_lirs();
    let inputs: Vec<CompileInput> = lirs.iter().map(CompileInput::Lir).collect();
    let o2 = PassPlan::o2();
    let session = Session::new();
    session.compiler_for(&target).unwrap();

    let mut group = c.benchmark_group("session_reuse");
    group.bench_function("fresh_compiler_construction", |b| {
        b.iter(|| black_box(Compiler::for_target(black_box(target.clone())).unwrap()))
    });
    group.bench_function("session_cached_lookup", |b| {
        b.iter(|| black_box(session.compiler_for(black_box(&target)).unwrap()))
    });
    group.bench_function("fresh_compiler_per_compile", |b| {
        b.iter(|| {
            let compiler = Compiler::for_target(target.clone()).unwrap();
            black_box(compiler.compile(black_box(&lirs[0]), &o2).ok())
        })
    });
    group.bench_function("session_cached_compile", |b| {
        b.iter(|| {
            black_box(
                session.compile(&target, CompileInput::Lir(black_box(&lirs[0])), None, None).ok(),
            )
        })
    });
    group.bench_function("compile_batch_all_kernels", |b| {
        b.iter(|| black_box(session.compile_batch(&target, black_box(&inputs), None).unwrap()))
    });
    group.finish();
}

fn main() {
    print_stats();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
