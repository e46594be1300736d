//! Checks and metrics every workload shares: the simulator check of the
//! 132 DSPStone compiles, the Table 1 figures, and the end-to-end
//! metric set.

use record::CompileError;
use record_dspstone::Kernel;
use record_ir::Symbol;
use record_isa::{Code, TargetDesc};

use crate::corpus::{Req, PLANS, TARGETS};
use crate::{calib, stats, Outcome};

/// Runs every successful compile of the matrix on `record-sim` with
/// seeded inputs and compares each output variable with the kernel's
/// reference. Returns the simulated cycles per triple.
pub fn simulate_matrix(
    codes: &[Result<Code, CompileError>],
    matrix: &[Req],
    kernels: &[Kernel],
    targets: &[TargetDesc],
    seed: u64,
    out: &mut Outcome,
) -> Vec<Option<u64>> {
    let mut cycles = Vec::with_capacity(codes.len());
    for (req, code) in matrix.iter().zip(codes) {
        let label = req.label(kernels);
        let code = match code {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("{label}: does not compile: {e}"));
                cycles.push(None);
                continue;
            }
        };
        let kernel = &kernels[req.kernel.expect("matrix requests are kernels")];
        let inputs = kernel.inputs(seed);
        match record_sim::run_program(code, &targets[req.target], &inputs) {
            Ok((got, run)) => {
                let want = kernel.reference(&inputs);
                for (name, _) in kernel.outputs() {
                    let sym = Symbol::new(*name);
                    if got.get(&sym) != want.get(&sym) {
                        out.fail(format!("{label}: `{name}` differs from the reference"));
                    }
                }
                cycles.push(Some(run.cycles));
            }
            Err(e) => {
                out.fail(format!("{label}: simulation failed: {e}"));
                cycles.push(None);
            }
        }
    }
    cycles
}

/// Code size and cycles over the 132 compiles, and the Table 1 column.
pub struct Table1 {
    pub code_words: f64,
    pub sim_cycles: f64,
    pub words_vs_hand: f64,
}

pub fn table1(
    words: &[Option<u64>],
    cycles: &[Option<u64>],
    matrix: &[Req],
    kernels: &[Kernel],
) -> Table1 {
    let mut ratios = Vec::new();
    for (req, w) in matrix.iter().zip(words) {
        let kernel = kernels[req.kernel.expect("matrix requests are kernels")];
        if TARGETS[req.target] != "tic25" || PLANS[req.plan] != "o2" {
            continue;
        }
        if let (Some(w), Some(hand)) = (w, record::handasm::hand_code(kernel.name)) {
            ratios.push(*w as f64 / f64::from(hand.size_words()) * 100.0);
        }
    }
    Table1 {
        code_words: words.iter().flatten().sum::<u64>() as f64,
        sim_cycles: cycles.iter().flatten().sum::<u64>() as f64,
        words_vs_hand: stats::geomean(&ratios),
    }
}

/// One timed operation: when it completed (seconds into the timed
/// run), how long it took, and whether its output passed the checks.
#[derive(Clone, Copy, Default)]
pub struct Sample {
    pub at_s: f64,
    pub us: f64,
    pub ok: bool,
}

/// Operations per window at least: enough for a p99 with ten samples
/// beyond it.
const MIN_WINDOW_SAMPLES: u64 = 1000;

/// Latency samples kept for the percentiles; beyond this many
/// operations they are a uniform sample of all of them.
pub const MAX_SAMPLES: usize = 100_000;

/// Correct operations are counted in ticks of this many seconds.
const TICK_S: f64 = 0.1;

pub fn ticks(run_s: f64) -> usize {
    (run_s / TICK_S).ceil() as usize + 1
}

/// Adds `v` to the tick holding time `at_s` (the last tick takes
/// anything later).
pub fn add_at<T: std::ops::AddAssign>(ticks: &mut [T], at_s: f64, v: T) {
    let last = ticks.len() - 1;
    ticks[((at_s / TICK_S) as usize).min(last)] += v;
}

/// What the timed run recorded.
#[derive(Clone, Copy)]
pub struct Timed<'a> {
    pub run_s: f64,
    /// All `n` operations, or a uniform sample of them.
    pub samples: &'a [Sample],
    pub n: u64,
    /// Every correct operation, counted per tick of [`TICK_S`].
    pub ok_per_tick: &'a [u64],
    /// Seconds per tick the benchmark spent on its own calibration task,
    /// which throughput leaves out.
    pub calib_s_per_tick: &'a [f64],
    /// Calibration task runs, as (completion time, seconds): each
    /// window's timings are divided by the machine-speed factor they
    /// give for that window (see `calib`). Empty for workloads that
    /// report raw wall time.
    pub calib: &'a [(f64, f64)],
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
///
/// The timed run is cut into equal windows of at least a second and at
/// least [`MIN_WINDOW_SAMPLES`] operations; throughput and each latency
/// percentile are the median over windows of the per-window figure.
/// The machine's speed drifts in bursts of a few seconds, and the median
/// over windows keeps a burst that covers a minority of them out of the
/// result. With too few operations for two windows, the whole run is
/// one window.
pub fn end_to_end(
    out: &mut Outcome,
    setup: &[calib::Setup],
    timed: &Timed<'_>,
    peak_rss: (f64, &str),
    t1: &Table1,
) {
    let Timed { run_s, samples, n, ok_per_tick, calib_s_per_tick, calib } = *timed;
    let (peak_rss_mb, rss_of) = peak_rss;
    let windows = ((n / MIN_WINDOW_SAMPLES) as usize).min(run_s.floor() as usize).max(1);
    let width = run_s / windows as f64;
    let window_of = |at_s: f64| ((at_s / width) as usize).min(windows - 1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for s in samples.iter().filter(|s| s.ok) {
        per_window[window_of(s.at_s)].push(s.us);
    }
    let mut ok_per_window = vec![0u64; windows];
    for (t, count) in ok_per_tick.iter().enumerate() {
        ok_per_window[window_of((t as f64 + 0.5) * TICK_S)] += count;
    }
    let mut busy_per_window = vec![width; windows];
    for (t, calib_s) in calib_s_per_tick.iter().enumerate() {
        busy_per_window[window_of((t as f64 + 0.5) * TICK_S)] -= calib_s;
    }
    let mut calib_per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at_s, took) in calib {
        calib_per_window[window_of(at_s)].push(took);
    }
    let run_speed = if calib.is_empty() {
        1.0
    } else {
        stats::median(&calib.iter().map(|c| c.1).collect::<Vec<_>>()) / calib::NOMINAL_S
    };
    let speed: Vec<f64> = calib_per_window
        .iter()
        .map(|c| if c.is_empty() { run_speed } else { stats::median(c) / calib::NOMINAL_S })
        .collect();
    let rates: Vec<f64> =
        ok_per_window.iter().zip(&busy_per_window).map(|(&c, &busy)| c as f64 / busy).collect();
    let summaries: Vec<stats::Summary> = per_window.iter().map(|w| stats::summarize(w)).collect();
    let p50s: Vec<f64> = summaries.iter().map(|s| s.median).collect();
    let p99s: Vec<f64> = summaries.iter().map(|s| s.p99).collect();
    let scale = |v: &[f64], by: fn(f64, f64) -> f64| {
        stats::median(&v.iter().zip(&speed).map(|(&x, &f)| by(x, f)).collect::<Vec<_>>())
    };
    let times = |x: f64, f: f64| x * f;
    let per = |x: f64, f: f64| x / f;
    let tail_pct = summaries.iter().map(|s| s.tail_pct).fold(f64::INFINITY, f64::min);
    let correct: u64 = ok_per_tick.iter().sum();
    let attempted = out.attempted.max(1);
    let scaled = if calib.is_empty() {
        "wall time".to_string()
    } else {
        format!("wall time / each window's machine speed factor (run median {run_speed:.4})")
    };
    let detail = format!("{scaled}; median over {windows} windows of {width:.2} s; {n} samples");
    let scaled_setup: Vec<f64> = setup.iter().map(|s| s.raw_s / s.factor).collect();
    let raw_setup: Vec<f64> = setup.iter().map(|s| s.raw_s).collect();
    out.metric(
        "setup_s",
        stats::median(&scaled_setup),
        "s",
        format!(
            "median of {} set-ups{}; raw {:.6} s",
            setup.len(),
            if setup.iter().all(|s| s.factor == 1.0) {
                ""
            } else {
                ", each / the machine speed factor measured after it"
            },
            stats::median(&raw_setup)
        ),
    );
    out.metric(
        "ops_per_s",
        scale(&rates, times),
        "1/s",
        format!(
            "{detail}; {correct} correct ops in {run_s:.3} s; raw {:.2}/s",
            stats::median(&rates)
        ),
    );
    out.metric(
        "latency_p50_us",
        scale(&p50s, per),
        "us",
        format!("{detail}; raw {:.2} us", stats::median(&p50s)),
    );
    out.metric(
        "latency_p99_us",
        scale(&p99s, per),
        "us",
        format!(
            "{detail}; raw {:.2} us; highest percentile supported in every window: p{tail_pct}{}",
            stats::median(&p99s),
            if tail_pct < 99.0 { " (p99 has fewer than 10 samples beyond it)" } else { "" }
        ),
    );
    out.metric(
        "correct_frac",
        correct as f64 / attempted as f64,
        "ratio",
        format!(
            "failed_frac = {:.6} ({} of {attempted})",
            out.failed as f64 / attempted as f64,
            out.failed
        ),
    );
    out.metric("peak_rss_mb", peak_rss_mb, "MiB", format!("VmHWM of {rss_of}"));
    out.metric("code_words", t1.code_words, "words", "total over the 132 compiles".into());
    out.metric("sim_cycles", t1.sim_cycles, "cycles", "total over the 132 compiles".into());
    out.metric(
        "words_vs_hand_geomean",
        t1.words_vs_hand,
        "%",
        "geomean of words/handasm x100, tic25 O2, 10 Table 1 rows".into(),
    );
}

/// Peak resident set (VmHWM) of a process, MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
