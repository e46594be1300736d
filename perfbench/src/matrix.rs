//! The `dspstone-matrix` workload: all 11 DSPStone kernels × 4 targets ×
//! {O0, O1, O2} through `Session::compile_source`, in-process, one
//! thread, closed loop, each sweep in a seeded order.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use record::CompileError;
use record_isa::Code;
use record_prop::Rng;

use crate::corpus::{self, Engine, Expected, Req};
use crate::daemon::Daemon;
use crate::serve::{self, ClientRec};
use crate::spans::Spans;
use crate::stats::Reservoir;
use crate::{calib, layers, report, stats, Args, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Sweeps of the matrix the traced run replays through the layers.
const PROBE_ROUNDS: usize = 3;

/// Latency samples kept per (kernel, target, plan) row.
const ROW_SAMPLES: usize = 512;

pub fn run(args: &Args, scratch: &Path, out: &mut Outcome) -> Result<(), String> {
    let kernels = corpus::kernels();
    let matrix = corpus::matrix(&kernels);

    // Set-up, several times: one Session per plan preset with the BURS
    // tables of all 4 targets, then one untimed sweep whose outputs are
    // what every timed compile must reproduce.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let engine = Engine::new(false)?;
        let expected: Vec<Result<Code, CompileError>> =
            matrix.iter().map(|r| engine.compile(r)).collect();
        setup.push(calib::Setup::measured(start.elapsed().as_secs_f64(), args.seed));
        built = Some((engine, expected));
    }
    let (engine, expected) = built.expect("at least one set-up");
    let cycles =
        report::simulate_matrix(&expected, &matrix, &kernels, &engine.targets, args.seed, out);
    let words: Vec<Option<u64>> =
        expected.iter().map(|c| c.as_ref().ok().map(|c| u64::from(c.size_words()))).collect();
    let t1 = report::table1(&words, &cycles, &matrix, &kernels);

    let epoch = Instant::now();
    let mut rng = Rng::new(args.seed);
    let mut window = Spans::new(epoch);
    // fixed-size sample stores: the peak RSS this workload reports must
    // not grow with the number of compiles the window fits
    let mut per_row: Vec<Reservoir<f64>> =
        (0..matrix.len()).map(|i| Reservoir::new(ROW_SAMPLES, 0.0, args.seed ^ i as u64)).collect();
    let mut samples = Reservoir::new(report::MAX_SAMPLES, report::Sample::default(), args.seed);
    let mut ok_per_tick = vec![0u64; report::ticks(args.seconds.as_secs_f64())];
    let mut calib_s_per_tick = vec![0.0f64; ok_per_tick.len()];
    let mut calib_runs = Reservoir::new(4096, (0.0, 0.0), args.seed);
    // (untraced, traced) op time totals and counts, for the overhead
    let mut split = [(0.0f64, 0u64); 2];
    let start = Instant::now();
    let end = start + args.seconds;
    let mut sweep = 0u64;
    'timed: loop {
        // the traced run alternates untraced and traced sweeps
        let traced = args.trace && sweep % 2 == 1;
        for i in corpus::shuffled(matrix.len(), &mut rng) {
            let op = out.attempted;
            let t = Instant::now();
            let result = if traced {
                window.open("op", op);
                let r = window.time("session.compile_source", op, || engine.compile(&matrix[i]));
                window.close();
                r
            } else {
                engine.compile(&matrix[i])
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            out.attempted += 1;
            split[usize::from(traced)].0 += us;
            split[usize::from(traced)].1 += 1;
            let ok = matches!((&result, &expected[i]), (Ok(got), Ok(want)) if got == want);
            if ok {
                per_row[i].push(us);
            } else {
                out.fail(format!("{}: output differs from set-up", matrix[i].label(&kernels)));
            }
            let at_s = start.elapsed().as_secs_f64();
            samples.push(report::Sample { at_s, us, ok });
            if ok {
                report::add_at(&mut ok_per_tick, at_s, 1);
            }
            if Instant::now() >= end {
                break 'timed;
            }
        }
        // the machine-speed calibration, once per sweep, between compiles
        let took = calib::task(args.seed ^ sweep);
        let at_s = start.elapsed().as_secs_f64();
        calib_runs.push((at_s, took));
        report::add_at(&mut calib_s_per_tick, at_s, took);
        sweep += 1;
    }
    let window_s = start.elapsed().as_secs_f64();

    check_determinism(&engine, &matrix, args.seed, out);

    if !args.trace {
        out.report.push(format!(
            "{:<44} {:>8} {:>12} {:>7} {:>8} {:>9}",
            "kernel/target/plan", "samples", "raw_p50_us", "words", "cycles", "vs_hand%"
        ));
        for (i, req) in matrix.iter().enumerate() {
            let kernel = kernels[req.kernel.expect("matrix requests are kernels")];
            let vs_hand = match (words[i], record::handasm::hand_code(kernel.name)) {
                (Some(w), Some(hand)) if corpus::TARGETS[req.target] == "tic25" => {
                    format!("{:.1}", w as f64 / f64::from(hand.size_words()) * 100.0)
                }
                _ => "-".into(),
            };
            out.report.push(format!(
                "{:<44} {:>8} {:>12.2} {:>7} {:>8} {:>9}",
                req.label(&kernels),
                per_row[i].seen(),
                stats::median(per_row[i].items()),
                words[i].map_or("-".into(), |w| w.to_string()),
                cycles[i].map_or("-".into(), |c| c.to_string()),
                vs_hand,
            ));
        }
        let rss = report::peak_rss_mb("self");
        let timed = report::Timed {
            run_s: window_s,
            samples: samples.items(),
            n: samples.seen(),
            ok_per_tick: &ok_per_tick,
            calib_s_per_tick: &calib_s_per_tick,
            calib: calib_runs.items(),
        };
        report::end_to_end(out, &setup, &timed, (rss, "the benchmark process"), &t1);
        return Ok(());
    }

    let overhead =
        (split[1].0 / split[1].1.max(1) as f64) / (split[0].0 / split[0].1.max(1) as f64) - 1.0;
    let mut probe = Spans::new(epoch);
    let tables = layers::tables_probe(&engine, &mut probe);
    let order: Vec<Req> = corpus::shuffled(matrix.len(), &mut Rng::new(args.seed ^ 1))
        .into_iter()
        .map(|i| matrix[i].clone())
        .collect();
    let (counts, _) = layers::library_probe(
        &engine,
        &order,
        &kernels,
        args.seed,
        PROBE_ROUNDS,
        scratch,
        &mut probe,
        out,
    );

    // The serve layer on this workload's inputs, configured as recordd
    // configures its plans: in-process, then one sweep over the wire
    // against a fresh recordd, with no warm-up either way.
    let service_lib = Engine::new(true)?;
    let served_answers: Vec<Expected> =
        order.iter().map(|r| Expected::of(&service_lib.compile(r))).collect();
    layers::handle_probe(&order, &served_answers, &[], scratch, &mut probe, out)?;
    let daemon = Daemon::spawn(&args.recordd, &scratch.join("cache-daemon"))?;
    let queue = Mutex::new(
        order.iter().cloned().enumerate().map(|(k, r)| (k as u64, r)).collect::<Vec<_>>(),
    );
    let next = || queue.lock().expect("queue lock").pop();
    let now = Instant::now();
    let (recs, client_spans): (Vec<ClientRec>, Spans) =
        serve::closed_loop(&daemon.addr, &next, now, now + Duration::from_secs(120), false, epoch);
    let answer = |k: u64| served_answers[k as usize].clone();
    serve::check_all(&recs, &answer, "serve probe", out);
    let (join, hit_ratio, rejected_frac) = serve::daemon_layers(&daemon, &recs, (0.0, 0.0))?;
    drop(daemon);

    layers::emit(
        out,
        &layers::Traced {
            probe: &probe,
            probe_ops: probe.count("op"),
            counts: &counts,
            tables: &tables,
            join: &join,
            cache_hit_ratio: hit_ratio,
            rejected_frac,
            overhead_frac: overhead,
        },
    );
    window.merge(client_spans);
    window.merge(probe);
    window
        .write_jsonl(&args.out_dir.join(format!("spans-dspstone-matrix-{}.jsonl", args.seed)))
        .map_err(|e| format!("writing spans: {e}"))
}

/// Code words, simulated cycles and every `select` count of each of the
/// 132 compiles, one line. Two processes with the same seed must print
/// the same line.
fn digest(engine: &Engine, matrix: &[Req], seed: u64) -> String {
    let kernels = corpus::kernels();
    let mut parts = Vec::with_capacity(matrix.len());
    for req in matrix {
        let target = &engine.targets[req.target];
        let part = match engine.sessions[req.plan].compile_source_timed(target, &req.program) {
            Ok((code, t)) => {
                let kernel = &kernels[req.kernel.expect("matrix requests are kernels")];
                let cycles = record_sim::run_program(&code, target, &kernel.inputs(seed))
                    .map_or(0, |(_, run)| run.cycles);
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{}",
                    code.size_words(),
                    cycles,
                    t.variants,
                    t.covered,
                    t.search_steps,
                    t.labels_computed,
                    t.labels_memoized,
                    t.interned_nodes,
                    t.dedup_hits,
                    t.shared_subtrees,
                    t.shares_taken
                )
            }
            Err(e) => format!("error:{e}"),
        };
        parts.push(part);
    }
    parts.join(";")
}

/// Runs this binary again as a separate process and compares digests:
/// HashMap-order bugs only show across processes.
fn check_determinism(engine: &Engine, matrix: &[Req], seed: u64, out: &mut Outcome) {
    let mine = digest(engine, matrix, seed);
    let theirs = std::env::current_exe()
        .map_err(|e| e.to_string())
        .and_then(|exe| {
            Command::new(exe)
                .args(["--determinism-probe", &seed.to_string()])
                .output()
                .map_err(|e| e.to_string())
        })
        .and_then(|o| {
            if o.status.success() {
                Ok(String::from_utf8_lossy(&o.stdout).trim().to_string())
            } else {
                Err(format!("probe exited {}", o.status))
            }
        });
    match theirs {
        Ok(theirs) if theirs == mine => {}
        Ok(_) => out.fail(
            "determinism: code words, cycles or select counts differ between two processes".into(),
        ),
        Err(e) => out.fail(format!("determinism probe: {e}")),
    }
}

/// Entry point of the second process of the determinism check.
pub fn determinism_probe_main(argv: &[String]) -> ExitCode {
    let Some(seed) = argv.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("perfbench: --determinism-probe takes a seed");
        return ExitCode::from(2);
    };
    match Engine::new(false) {
        Ok(engine) => {
            println!("{}", digest(&engine, &corpus::matrix(&corpus::kernels()), seed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
