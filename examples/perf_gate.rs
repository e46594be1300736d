//! CI perf-regression gate over `BENCH_compile.json`.
//!
//! Compares a freshly generated benchmark report (see `dspstone_report
//! --bench-json`) against the committed baseline
//! (`tests/golden/bench_baseline.json`) and fails — exit code 1 — when
//! any *deterministic* counter regresses by more than the tolerance.
//!
//! Counters gate in the direction that means "the compiler did worse":
//!
//! * every selection counter in [`record::COUNTERS`] gates in its
//!   declared [`Direction`]: a **work** counter regresses by *increasing*
//!   (the selector enumerated, labelled or recomputed more than it used
//!   to), a **savings** counter by *decreasing* (hash-consing or
//!   memoization stopped paying off, the block DAG builder stopped
//!   finding shareable values, or the emitter stopped taking shares it
//!   used to take);
//! * the code-size counters `insns` and `words` regress by increasing.
//!
//! Wall-clock time (`wall_us`) is printed for context but **never
//! gated**: it varies with the runner, while every gated counter is a
//! pure function of the source tree, so a >5 % move is an algorithmic
//! change, not scheduler noise.
//!
//! With `--cache-current PATH` the gate additionally diffs a
//! `record-cache/v1` counter document (from `cache_stats --json`)
//! against the baseline's top-level `"cache"` object: misses, evictions
//! and corruptions must not rise; hits and table loads must not fall.
//! The compile sequence the `cache_stats` example runs is fixed, so
//! these counters are just as deterministic as the selection work.
//!
//! With `--soak-latency PATH` the gate reads a `load_gen --json` report
//! and checks its `p50_us`/`p99_us` compile-latency quantiles against
//! the **absolute** bounds in the baseline's top-level `"latency"`
//! object (`p50_bound_us`, `p99_bound_us`). Unlike the counters these
//! are wall-clock, so the bounds are deliberately generous and this
//! mode only runs in the serve-soak CI job — the deterministic counter
//! gate stays the primary regression tripwire. `--latency-only` skips
//! the counter/cache gates entirely for that job.
//!
//! ```sh
//! cargo run --example perf_gate -- \
//!     --current BENCH_compile.json \
//!     --baseline tests/golden/bench_baseline.json \
//!     --cache-current cache_stats.json
//! cargo run --example perf_gate -- \
//!     --latency-only --soak-latency load_gen_report.json \
//!     --baseline tests/golden/bench_baseline.json
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use record::{Direction, COUNTERS};
use record_trace::json::{parse, Value};

/// Code-size counters of every row; they regress by increasing.
const SIZE: [&str; 2] = ["insns", "words"];

/// Compile-cache counters (`record-cache/v1`) that regress by increasing:
/// more misses, evictions or corrupt entries for the same compile
/// sequence means the cache stopped answering.
const CACHE_WORK: [&str; 3] = ["code_misses", "code_evictions", "code_corruptions"];

/// Compile-cache counters that regress by decreasing: fewer hits or
/// table loads means compiles that used to be cached no longer are.
const CACHE_SAVINGS: [&str; 2] = ["code_hits", "tables_loaded"];

fn load(path: &str) -> Result<BTreeMap<(String, String), Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("kernels")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: no \"kernels\" array"))?;
    let mut out = BTreeMap::new();
    for row in rows {
        let kernel = row.get("kernel").and_then(Value::as_str).ok_or("row without kernel")?;
        let target = row.get("target").and_then(Value::as_str).ok_or("row without target")?;
        out.insert((kernel.to_string(), target.to_string()), row.clone());
    }
    Ok(out)
}

fn counter(row: &Value, name: &str) -> f64 {
    row.get(name).and_then(Value::as_f64).unwrap_or(0.0)
}

fn load_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Gates the compile-cache counters of a `record-cache/v1` document
/// (produced by `cache_stats --json`) against the `"cache"` object of
/// the committed baseline. Only runs when `--cache-current` is passed,
/// so baselines predating the compile cache keep gating cleanly.
fn gate_cache(
    cache_current_path: &str,
    baseline_path: &str,
    tolerance: f64,
) -> Result<bool, String> {
    let current = load_doc(cache_current_path)?;
    if current.get("schema").and_then(Value::as_str) != Some("record-cache/v1") {
        return Err(format!("{cache_current_path}: not a record-cache/v1 document"));
    }
    let baseline = load_doc(baseline_path)?;
    let base = baseline
        .get("cache")
        .ok_or(format!("{baseline_path}: no \"cache\" object to gate against"))?;

    let mut ok = true;
    for name in CACHE_WORK {
        let (c, b) = (counter(&current, name), counter(base, name));
        if c > b * (1.0 + tolerance) {
            println!("FAIL cache: {name} rose {b} -> {c} (> {:.0}%)", tolerance * 100.0);
            ok = false;
        }
    }
    for name in CACHE_SAVINGS {
        let (c, b) = (counter(&current, name), counter(base, name));
        if c < b * (1.0 - tolerance) {
            println!("FAIL cache: {name} fell {b} -> {c}");
            ok = false;
        }
    }
    println!(
        "cache gate: {} hits / {} misses over {} compiles vs baseline — {}",
        counter(&current, "code_hits"),
        counter(&current, "code_misses"),
        counter(&current, "compiles"),
        if ok { "OK" } else { "REGRESSED" }
    );
    Ok(ok)
}

/// Gates a `load_gen --json` report's compile-latency quantiles against
/// the **absolute** bounds in the baseline's top-level `"latency"`
/// object. Wall-clock, so the bounds are generous by design; only the
/// soak CI job runs this.
fn gate_latency(soak_path: &str, baseline_path: &str) -> Result<bool, String> {
    let report = load_doc(soak_path)?;
    let baseline = load_doc(baseline_path)?;
    let bounds = baseline
        .get("latency")
        .ok_or(format!("{baseline_path}: no \"latency\" object to gate against"))?;
    let samples = counter(&report, "samples");
    if samples == 0.0 {
        println!("FAIL latency: soak report has zero latency samples");
        return Ok(false);
    }
    let mut ok = true;
    for (name, bound_name) in [("p50_us", "p50_bound_us"), ("p99_us", "p99_bound_us")] {
        let got = counter(&report, name);
        let bound = counter(bounds, bound_name);
        if bound <= 0.0 {
            return Err(format!("{baseline_path}: latency.{bound_name} missing or zero"));
        }
        if got > bound {
            println!("FAIL latency: {name} {got:.0}µs exceeds absolute bound {bound:.0}µs");
            ok = false;
        }
    }
    println!(
        "latency gate: p50 {:.0}µs / p99 {:.0}µs over {samples:.0} samples — {}",
        counter(&report, "p50_us"),
        counter(&report, "p99_us"),
        if ok { "OK" } else { "REGRESSED" }
    );
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let mut current_path = String::from("BENCH_compile.json");
    let mut baseline_path = String::from("tests/golden/bench_baseline.json");
    let mut cache_current_path: Option<String> = None;
    let mut soak_latency_path: Option<String> = None;
    let mut latency_only = false;
    let mut tolerance = 0.05f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--current" => current_path = value()?,
            "--baseline" => baseline_path = value()?,
            "--cache-current" => cache_current_path = Some(value()?),
            "--soak-latency" => soak_latency_path = Some(value()?),
            "--latency-only" => latency_only = true,
            "--tolerance" => {
                tolerance = value()?.parse().map_err(|e| format!("bad tolerance: {e}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    if latency_only {
        let path = soak_latency_path
            .ok_or("--latency-only needs --soak-latency PATH to gate".to_string())?;
        return gate_latency(&path, &baseline_path);
    }

    let current = load(&current_path)?;
    let baseline = load(&baseline_path)?;

    let mut ok = true;
    for key in baseline.keys() {
        if !current.contains_key(key) {
            println!("FAIL {}/{}: kernel missing from current report", key.0, key.1);
            ok = false;
        }
    }
    let mut wall_cur = 0.0;
    let mut wall_base = 0.0;
    for ((kernel, target), cur) in &current {
        let Some(base) = baseline.get(&(kernel.clone(), target.clone())) else {
            println!("note {kernel}/{target}: new kernel, no baseline (not gated)");
            continue;
        };
        wall_cur += counter(cur, "wall_us");
        wall_base += counter(base, "wall_us");
        let selection = COUNTERS.iter().map(|c| (c.name, c.direction));
        for (name, direction) in selection.chain(SIZE.map(|name| (name, Direction::Work))) {
            let (c, b) = (counter(cur, name), counter(base, name));
            match direction {
                Direction::Work if c > b * (1.0 + tolerance) => {
                    println!(
                        "FAIL {kernel}/{target}: {name} rose {b} -> {c} (> {:.0}%)",
                        tolerance * 100.0
                    );
                    ok = false;
                }
                Direction::Savings if c < b * (1.0 - tolerance) => {
                    println!("FAIL {kernel}/{target}: {name} fell {b} -> {c}");
                    ok = false;
                }
                _ => {}
            }
        }
    }
    println!(
        "wall time (informational, never gated): {:.0} µs now vs {:.0} µs at baseline",
        wall_cur, wall_base
    );
    if let Some(path) = &cache_current_path {
        ok &= gate_cache(path, &baseline_path, tolerance)?;
    }
    if let Some(path) = &soak_latency_path {
        ok &= gate_latency(path, &baseline_path)?;
    }
    println!(
        "perf gate: {} rows checked against {baseline_path}, tolerance {:.0}% — {}",
        current.len(),
        tolerance * 100.0,
        if ok { "OK" } else { "REGRESSED" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
