//! The repository's benchmark: one command per workload that drives the
//! compiler only through its public entry points, checks every output,
//! and prints each end-to-end metric (tracing off) or each per-layer
//! metric (`--trace 1`, a separate run that times every layer from
//! outside). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload dspstone-matrix|serve-hot|serve-fresh --seed N \
//!     --seconds S --trace 0|1 --recordd PATH --out-dir DIR
//! ```
//!
//! `perfbench/run.py` builds this package and `recordd` from source and
//! supplies `--recordd` and `--out-dir`.

mod calib;
mod corpus;
mod daemon;
mod layers;
mod matrix;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Matrix,
    ServeHot,
    ServeFresh,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub recordd: PathBuf,
    pub out_dir: PathBuf,
}

/// One reported metric, with the sample count and tail behind it for
/// the human-readable lines.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub detail: String,
}

/// What a run measured and how many operations failed its checks.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub report: Vec<String>,
}

impl Outcome {
    /// Counts one failed check; the first few are printed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, detail: String) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, detail });
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut recordd = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "dspstone-matrix" => Workload::Matrix,
                    "serve-hot" => Workload::ServeHot,
                    "serve-fresh" => Workload::ServeFresh,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--recordd" => recordd = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        recordd: recordd.ok_or("--recordd is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--determinism-probe") {
        return matrix::determinism_probe_main(&argv[2..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut out = Outcome::default();
    let result = match args.workload {
        Workload::Matrix => matrix::run(&args, &scratch, &mut out),
        Workload::ServeHot | Workload::ServeFresh => serve::run(&args, &scratch, &mut out),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    for line in &out.report {
        println!("{line}");
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.detail);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
