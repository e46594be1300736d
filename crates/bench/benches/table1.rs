//! **Table 1** — size of compiled programs in relation to assembly code
//! (%): the paper's headline evaluation, regenerated and printed, plus a
//! timing of the full RECORD compilation per kernel (the paper's remark
//! that longer-than-standard compile times are acceptable is only
//! meaningful if we can show what they are).

use record_bench::criterion;
use record_bench::{black_box, Criterion};

fn print_table() {
    let table = record::report::table1().expect("all kernels compile and validate");
    println!("\n{table}");
}

fn bench(c: &mut Criterion) {
    let compiler = record::Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    let plan = record::PassPlan::o2();
    let mut group = c.benchmark_group("table1_compile");
    for kernel in record_dspstone::kernels() {
        let lir = record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap()).unwrap();
        group.bench_function(kernel.name, |b| {
            b.iter(|| black_box(compiler.compile(black_box(&lir), &plan).unwrap().size_words()))
        });
    }
    group.finish();
}

fn main() {
    print_table();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
