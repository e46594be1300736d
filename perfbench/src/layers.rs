//! The traced run's layer probes. Each calls one layer's public
//! functions on the workload's inputs inside a span, so the layer's
//! time and counts are taken from outside the program.

use std::collections::HashMap;
use std::path::Path;

use record::{CacheKey, CodeStats, CompilationUnit, CompileCache, Compiler};
use record_dspstone::Kernel;
use record_ir::Symbol;
use record_serve::{ServerConfig, Service};
use record_trace::json;

use crate::corpus::{self, Engine, Expected, Req};
use crate::spans::Spans;
use crate::{stats, Outcome};

/// The passes the O0/O1/O2 presets run, by span name.
const PASSES: [(&str, &str); 10] = [
    ("treeify", "pass.treeify"),
    ("select", "pass.select"),
    ("layout", "pass.layout"),
    ("offset", "pass.offset"),
    ("banks", "pass.banks"),
    ("address", "pass.address"),
    ("compact", "pass.compact"),
    ("hoist", "pass.hoist"),
    ("modes", "pass.modes"),
    ("rpt", "pass.rpt"),
];

/// Counts the library probe takes once per input (not per round).
#[derive(Default)]
pub struct Counts {
    pub words_added: i64,
    pub insns_removed: i64,
    pub variants: u64,
    pub covered: u64,
    pub search_steps: u64,
    pub labels_computed: u64,
    pub labels_memoized: u64,
    pub interned_nodes: u64,
    pub dedup_hits: u64,
    pub shared_subtrees: u64,
    pub shares_taken: u64,
}

/// Drives every library layer on `reqs`, `rounds` times: the whole
/// compile through `Session::compile_source`, then parse, lower and each
/// pass of the plan one at a time on a `CompilationUnit`, the compile
/// cache as `recordd` configures it, and the simulator. The one-pass
/// path must render byte-identically to the session's output. Returns
/// the counts and the library's answer for each request.
#[allow(clippy::too_many_arguments)]
pub fn library_probe(
    engine: &Engine,
    reqs: &[Req],
    kernels: &[Kernel],
    seed: u64,
    rounds: usize,
    scratch: &Path,
    spans: &mut Spans,
    out: &mut Outcome,
) -> (Counts, Vec<Expected>) {
    let mut counts = Counts::default();
    let mut answers = Vec::with_capacity(reqs.len());
    for round in 0..rounds {
        let mut cache =
            CompileCache::new(256).with_dir(scratch.join(format!("cache-probe-{round}")));
        for (i, req) in reqs.iter().enumerate() {
            let op = (round * reqs.len() + i) as u64;
            let target = &engine.targets[req.target];
            let plan = &engine.plans[req.plan];
            let compiler: std::sync::Arc<Compiler> =
                engine.sessions[req.plan].compiler_for(target).expect("tables built in set-up");
            spans.open("op", op);
            // alternate which path runs first, so neither always pays
            // for cold caches
            let session_first = round % 2 == 0;
            let mut whole = session_first
                .then(|| spans.time("session.compile_source", op, || engine.compile(req)));
            let ast = spans.time("ir.parse", op, || record_ir::dfl::parse(&req.program));
            let lir =
                ast.and_then(|ast| spans.time("ir.lower", op, || record_ir::lower::lower(&ast)));
            let lir = match lir {
                Ok(lir) => lir,
                Err(e) => {
                    let whole = whole.unwrap_or_else(|| {
                        spans.time("session.compile_source", op, || engine.compile(req))
                    });
                    spans.close();
                    if whole.is_ok() {
                        out.fail(format!(
                            "{}: frontend error only outside the session: {e}",
                            req.label(kernels)
                        ));
                    }
                    if round == 0 {
                        answers.push(Expected::of(&whole));
                    }
                    continue;
                }
            };
            let mut unit = CompilationUnit::new(compiler.target(), compiler.tables(), &lir);
            unit.budgets = *plan.budgets();
            let mut passes = Ok(());
            for pass in plan.passes() {
                let span =
                    PASSES.iter().find(|(n, _)| *n == pass.name()).map_or("pass.other", |p| p.1);
                let before = CodeStats::of(&unit.code);
                passes = spans.time(span, op, || pass.run(&mut unit));
                let after = CodeStats::of(&unit.code);
                if round == 0 {
                    match pass.name() {
                        "address" => {
                            counts.words_added += i64::from(after.words) - i64::from(before.words)
                        }
                        "compact" => {
                            counts.insns_removed += before.insns as i64 - after.insns as i64
                        }
                        _ => {}
                    }
                }
                if passes.is_err() {
                    break;
                }
            }
            if round == 0 {
                counts.variants += unit.variants as u64;
                counts.covered += unit.covered as u64;
                counts.search_steps += unit.search_steps;
                counts.labels_computed += unit.labels_computed;
                counts.labels_memoized += unit.labels_memoized;
                counts.interned_nodes += unit.interned_nodes;
                counts.dedup_hits += unit.dedup_hits;
                counts.shared_subtrees += unit.shared_subtrees;
                counts.shares_taken += unit.shares_taken;
            }
            let whole = whole.take().unwrap_or_else(|| {
                spans.time("session.compile_source", op, || engine.compile(req))
            });
            match (&whole, &passes) {
                (Ok(code), Ok(())) if code.render() == unit.code.render() => {}
                (Err(a), Err(b)) if record_serve::error_code(a) == record_serve::error_code(b) => {}
                _ => out.fail(format!(
                    "{}: the one-pass-at-a-time output differs from Session::compile_source",
                    req.label(kernels)
                )),
            }
            let key = spans.time("cache.key", op, || CacheKey {
                program: record_ir::fingerprint::program_fingerprint(&lir),
                target: compiler.stable_fingerprint(),
                plan: plan.fingerprint(),
            });
            let name = &target.name;
            let found = spans.time("cache.lookup", op, || cache.lookup(&key, &lir, name));
            if let Ok(code) = &whole {
                let found = match found {
                    Some(hit) => Some(hit),
                    None => {
                        spans.time("cache.insert", op, || cache.insert(key, &lir, name, code));
                        spans.time("cache.lookup", op, || cache.lookup(&key, &lir, name))
                    }
                };
                if found.as_ref() != Some(code) {
                    out.fail(format!(
                        "{}: the compile cache returned other code",
                        req.label(kernels)
                    ));
                }
                let inputs = match req.kernel {
                    Some(k) => kernels[k].inputs(seed),
                    None => generated_inputs(&lir, seed),
                };
                let _ =
                    spans.time("sim.run", op, || record_sim::run_program(code, target, &inputs));
            }
            spans.close();
            if round == 0 {
                answers.push(Expected::of(&whole));
            }
        }
    }
    (counts, answers)
}

/// Replays `reqs` through an in-process `Service::handle_line`
/// configured as the workload's `recordd` (two workers, a disk cache),
/// after the same warm-up the daemon got.
pub fn handle_probe(
    reqs: &[Req],
    answers: &[Expected],
    warmup: &[Req],
    scratch: &Path,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let config = ServerConfig {
        workers: 2,
        cache_dir: Some(scratch.join("cache-service")),
        ..ServerConfig::default()
    };
    let service = Service::new(&config).map_err(|e| e.to_string())?;
    for (i, req) in warmup.iter().enumerate() {
        service.handle_line(req.line(i as u64).trim_end());
    }
    for (i, (req, want)) in reqs.iter().zip(answers).enumerate() {
        let line = req.line(i as u64);
        let resp = spans.time("serve.handle", i as u64, || service.handle_line(line.trim_end()));
        let verdict = corpus::parse_response(&resp)
            .ok_or_else(|| "unparseable response".to_string())
            .and_then(|r| corpus::check_response(&r, want));
        if let Err(e) = verdict {
            out.fail(format!("in-process Service::handle_line, request {i}: {e}"));
        }
    }
    Ok(())
}

/// BURS table generation per target (`Compiler::for_target`), median of
/// three, microseconds.
pub fn tables_probe(engine: &Engine, spans: &mut Spans) -> Vec<(String, f64)> {
    engine
        .targets
        .iter()
        .enumerate()
        .map(|(t, target)| {
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    spans.open("burg.tables", t as u64);
                    let start = std::time::Instant::now();
                    let compiler =
                        Compiler::for_target(target.clone()).expect("bundled targets are valid");
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    spans.close();
                    drop(compiler);
                    us
                })
                .collect();
            (format!("burg.tables_us.{}", corpus::TARGETS[t]), stats::median(&samples))
        })
        .collect()
}

/// A client's view of one served request.
pub struct Served {
    pub rid: String,
    pub client_us: f64,
}

/// Server-side accounts joined by `rid` to what the client measured.
pub struct Join {
    pub joined: usize,
    pub queue_us: f64,
    pub read_us: f64,
    pub compile_us: f64,
    pub serialize_us: f64,
    pub server_us: f64,
    pub unattributed_us: f64,
    pub unattributed_frac: f64,
    pub median_client_us: f64,
    pub median_server_us: f64,
    pub median_unattributed_us: f64,
}

/// Joins `GET /requests` lines to client records. Unattributed time is
/// client latency minus the server's end − start for the request.
pub fn join(served: &[Served], requests_jsonl: &str) -> Join {
    let mut by_rid: HashMap<String, json::Value> = HashMap::new();
    for line in requests_jsonl.lines() {
        if let Ok(v) = json::parse(line) {
            if let Some(rid) = v.get("rid").and_then(|r| r.as_str()) {
                by_rid.insert(rid.to_string(), v);
            }
        }
    }
    let num = |v: &json::Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let mut cols: [Vec<f64>; 7] = Default::default();
    for s in served {
        if let Some(v) = by_rid.get(&s.rid) {
            let server = num(v, "dur_us");
            let row = [
                num(v, "queue_us"),
                num(v, "read_us"),
                num(v, "compile_us"),
                num(v, "serialize_us"),
                server,
                s.client_us - server,
                s.client_us,
            ];
            for (col, x) in cols.iter_mut().zip(row) {
                col.push(x);
            }
        }
    }
    let client_total: f64 = cols[6].iter().sum();
    Join {
        joined: cols[0].len(),
        queue_us: stats::mean(&cols[0]),
        read_us: stats::mean(&cols[1]),
        compile_us: stats::mean(&cols[2]),
        serialize_us: stats::mean(&cols[3]),
        server_us: stats::mean(&cols[4]),
        unattributed_us: stats::mean(&cols[5]),
        unattributed_frac: if client_total > 0.0 {
            cols[5].iter().sum::<f64>() / client_total
        } else {
            0.0
        },
        median_client_us: stats::median(&cols[6]),
        median_server_us: stats::median(&cols[4]),
        median_unattributed_us: stats::median(&cols[5]),
    }
}

/// Code-cache (hits, misses) summed over every plan session, from
/// `GET /stats`.
pub fn code_cache_counts(stats_json: &str) -> (f64, f64) {
    let Ok(v) = json::parse(stats_json) else { return (0.0, 0.0) };
    let (mut hits, mut misses) = (0.0, 0.0);
    for s in v.get("sessions").and_then(|s| s.as_array()).unwrap_or(&[]) {
        hits += s.get("code_hits").and_then(|x| x.as_f64()).unwrap_or(0.0);
        misses += s.get("code_misses").and_then(|x| x.as_f64()).unwrap_or(0.0);
    }
    (hits, misses)
}

/// Everything a traced run measured, emitted as the per-layer metrics.
pub struct Traced<'a> {
    pub probe: &'a Spans,
    pub probe_ops: usize,
    pub counts: &'a Counts,
    pub tables: &'a [(String, f64)],
    pub join: &'a Join,
    pub cache_hit_ratio: f64,
    pub rejected_frac: f64,
    pub overhead_frac: f64,
}

pub fn emit(out: &mut Outcome, t: &Traced<'_>) {
    let self_us = t.probe.self_time_us();
    let total = |name: &str| self_us.get(name).copied().unwrap_or(0.0);
    let per_op = |name: &str| total(name) / t.probe_ops.max(1) as f64;
    let per_call = |name: &str| total(name) / t.probe.count(name).max(1) as f64;
    let ops = format!("mean self time per compile over {} probe compiles", t.probe_ops);
    out.metric("ir.parse_us", per_op("ir.parse"), "us", ops.clone());
    out.metric("ir.lower_us", per_op("ir.lower"), "us", ops.clone());
    let mut passes_total = 0.0;
    for (_, span) in PASSES {
        passes_total += total(span);
        out.metric(&format!("{span}_us"), per_op(span), "us", ops.clone());
    }
    let c = t.counts;
    out.metric(
        "pass.address.words_added",
        c.words_added as f64,
        "count",
        "total over the probe set".into(),
    );
    out.metric(
        "pass.compact.insns_removed",
        c.insns_removed as f64,
        "count",
        "total over the probe set".into(),
    );
    for (name, v) in [
        ("select.variants", c.variants),
        ("select.covered", c.covered),
        ("select.search_steps", c.search_steps),
        ("select.labels_computed", c.labels_computed),
        ("select.labels_memoized", c.labels_memoized),
        ("select.interned_nodes", c.interned_nodes),
        ("select.dedup_hits", c.dedup_hits),
        ("select.shared_subtrees", c.shared_subtrees),
        ("select.shares_taken", c.shares_taken),
    ] {
        out.metric(name, v as f64, "count", "total over the probe set".into());
    }
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    out.metric(
        "select.cover_ratio",
        ratio(c.covered, c.variants),
        "ratio",
        "covered / variants".into(),
    );
    out.metric(
        "select.label_memo_ratio",
        ratio(c.labels_memoized, c.labels_memoized + c.labels_computed),
        "ratio",
        "memoized / (memoized + computed)".into(),
    );
    out.metric(
        "select.share_accept_ratio",
        ratio(c.shares_taken, c.shared_subtrees),
        "ratio",
        format!("{} taken of {} shared subtrees", c.shares_taken, c.shared_subtrees),
    );
    out.metric(
        "pipeline.unattributed_us",
        (total("session.compile_source") - total("ir.parse") - total("ir.lower") - passes_total)
            / t.probe_ops.max(1) as f64,
        "us",
        "Session::compile_source minus parse, lower and every pass, mean per compile".into(),
    );
    for (name, us) in t.tables {
        out.metric(name, *us, "us", "Compiler::for_target, median of 3".into());
    }
    out.metric("cache.key_us", per_call("cache.key"), "us", "mean per key".into());
    out.metric(
        "cache.lookup_us",
        per_call("cache.lookup"),
        "us",
        "mean per lookup (misses, then hits after insert)".into(),
    );
    out.metric(
        "cache.insert_us",
        per_call("cache.insert"),
        "us",
        "mean per insert, disk write included".into(),
    );
    out.metric(
        "cache.hit_ratio",
        t.cache_hit_ratio,
        "ratio",
        "recordd /stats code hits / lookups during the timed requests".into(),
    );
    out.metric(
        "serve.handle_us",
        per_call("serve.handle"),
        "us",
        "in-process Service::handle_line, mean".into(),
    );
    let j = t.join;
    let joined = format!("mean over {} requests joined by rid", j.joined);
    out.metric("serve.queue_us", j.queue_us, "us", joined.clone());
    out.metric(
        "serve.read_us",
        j.read_us,
        "us",
        format!("{joined}; includes the client's turnaround"),
    );
    out.metric("serve.compile_us", j.compile_us, "us", joined.clone());
    out.metric("serve.serialize_us", j.serialize_us, "us", joined.clone());
    out.metric("serve.server_us", j.server_us, "us", format!("{joined}; server end - start"));
    out.metric(
        "serve.unattributed_us",
        j.unattributed_us,
        "us",
        format!("{joined}; client latency - server end - start"),
    );
    out.metric(
        "serve.unattributed_frac",
        j.unattributed_frac,
        "ratio",
        "unattributed / client latency".into(),
    );
    out.metric(
        "serve.rejected_frac",
        t.rejected_frac,
        "ratio",
        "error responses / responses".into(),
    );
    out.metric(
        "sim.run_us",
        per_call("sim.run"),
        "us",
        "record_sim::run_program, mean per run".into(),
    );
    out.metric(
        "trace.overhead_frac",
        t.overhead_frac,
        "ratio",
        "traced / untraced time per op - 1".into(),
    );
}

/// Seeded inputs for a generated program: every `in` variable.
fn generated_inputs(lir: &record_ir::Lir, seed: u64) -> HashMap<Symbol, Vec<i64>> {
    let mut rng = record_prop::Rng::new(seed);
    lir.vars
        .iter()
        .filter(|v| v.kind == record_ir::lir::StorageKind::In)
        .map(|v| (v.name.clone(), (0..v.len.max(1)).map(|_| rng.i64_in(-64, 64)).collect()))
        .collect()
}
