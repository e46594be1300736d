//! The `serve-hot` and `serve-fresh` workloads: the release `recordd`
//! as a child process, two persistent connections, each a closed loop.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use record_dspstone::Kernel;

use crate::corpus::{self, Engine, Expected, Req, Response, Stream};
use crate::daemon::{Conn, Daemon};
use crate::layers::{self, Served};
use crate::spans::Spans;
use crate::{calib, report, stats, Args, Outcome, Workload};

/// Client connections, each a closed loop, all from this one process.
pub const CONNECTIONS: usize = 2;

/// Set-ups per run; `setup_s` is their median. Each takes about 3 s
/// while every response waits on the delayed-ACK timer.
const SETUP_REPS: usize = 3;

/// Requests the traced run replays through the library layers: a
/// seeded prefix of the workload's stream, independent of throughput.
const PROBE_HOT: usize = 264;
const PROBE_FRESH: usize = 128;

/// One request as the client saw it.
pub struct ClientRec {
    pub k: u64,
    pub latency_us: f64,
    /// Completion time, seconds since `start`.
    pub done_s: f64,
    pub traced: bool,
    pub response: Result<Response, String>,
}

/// Runs `CONNECTIONS` closed-loop clients from `start` until `next`
/// runs dry or `end` passes. With `traced`, every odd request is wrapped in a
/// `client.request` span; the others time the same path without one.
pub fn closed_loop(
    addr: &str,
    next: &(dyn Fn() -> Option<(u64, Req)> + Sync),
    start: Instant,
    end: Instant,
    traced: bool,
    epoch: Instant,
) -> (Vec<ClientRec>, Spans) {
    let per_client: Vec<(Vec<ClientRec>, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(move || {
                    let mut recs = Vec::new();
                    let mut spans = Spans::new(epoch);
                    let mut conn: Option<Conn> = None;
                    while Instant::now() < end {
                        let Some((k, req)) = next() else { break };
                        let line = req.line(k);
                        let traced = traced && k % 2 == 1;
                        if conn.is_none() {
                            conn = Conn::connect(addr).ok();
                        }
                        if traced {
                            spans.open("client.request", k);
                        }
                        let sent = Instant::now();
                        let reply = match conn.as_mut() {
                            Some(c) => c.roundtrip(&line),
                            None => Err("cannot connect".to_string()),
                        };
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        if traced {
                            spans.close();
                        }
                        if reply.is_err() {
                            conn = None;
                        }
                        let response = reply.and_then(|text| {
                            corpus::parse_response(&text)
                                .ok_or_else(|| "unparseable response".to_string())
                        });
                        let done_s = start.elapsed().as_secs_f64();
                        recs.push(ClientRec { k, latency_us, done_s, traced, response });
                    }
                    (recs, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut recs = Vec::new();
    let mut spans = Spans::new(epoch);
    for (r, s) in per_client {
        recs.extend(r);
        spans.merge(s);
    }
    recs.sort_by_key(|r| r.k);
    (recs, spans)
}

/// Checks each client record against the library's answer for its
/// request; returns which passed.
pub fn check_all(
    recs: &[ClientRec],
    answer: &(dyn Fn(u64) -> Expected + Sync),
    what: &str,
    out: &mut Outcome,
) -> Vec<bool> {
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|s| {
        let chunk = recs.len().div_ceil(CONNECTIONS).max(1);
        let handles: Vec<_> = recs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|r| {
                            r.response
                                .as_ref()
                                .map_err(Clone::clone)
                                .and_then(|resp| corpus::check_response(resp, &answer(r.k)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("check thread")).collect()
    });
    recs.iter()
        .zip(verdicts)
        .map(|(r, v)| match v {
            Ok(()) => true,
            Err(e) => {
                out.fail(format!("{what} request {}: {e}", r.k));
                false
            }
        })
        .collect()
}

/// The daemon-side per-layer figures for a finished client run;
/// `cache_before` is the daemon's code-cache (hits, misses) when the run
/// started.
pub fn daemon_layers(
    daemon: &Daemon,
    recs: &[ClientRec],
    cache_before: (f64, f64),
) -> Result<(layers::Join, f64, f64), String> {
    let served: Vec<Served> = recs
        .iter()
        .filter_map(|r| {
            let rid = r.response.as_ref().ok()?.rid.clone()?;
            Some(Served { rid, client_us: r.latency_us })
        })
        .collect();
    let join = layers::join(&served, &daemon.http_get("/requests")?);
    let (hits, misses) = layers::code_cache_counts(&daemon.http_get("/stats")?);
    let (hits, misses) = (hits - cache_before.0, misses - cache_before.1);
    let hit_ratio = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    let rejected = recs
        .iter()
        .filter(|r| r.response.as_ref().map_or(true, |resp| resp.status != "ok"))
        .count();
    Ok((join, hit_ratio, rejected as f64 / recs.len().max(1) as f64))
}

pub fn run(args: &Args, scratch: &Path, out: &mut Outcome) -> Result<(), String> {
    let hot = args.workload == Workload::ServeHot;
    let kernels: Vec<Kernel> = corpus::kernels();
    let matrix = corpus::matrix(&kernels);
    let lib = Engine::new(true)?;
    let lib_codes: Vec<_> = matrix.iter().map(|r| lib.compile(r)).collect();
    let warm_answers: Vec<Expected> = lib_codes.iter().map(Expected::of).collect();
    let cycles =
        report::simulate_matrix(&lib_codes, &matrix, &kernels, &lib.targets, args.seed, out);

    // Set-up, several times: spawn until a ping is answered, then serve
    // every matrix triple once through the same closed-loop clients the
    // timed run uses, which builds every table and fills the code cache.
    // The last daemon stays up for the timed run.
    let epoch = Instant::now();
    let mut setup = Vec::new();
    let mut daemon = None;
    let mut warm = Vec::new();
    let mut warm_ok = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(daemon.take());
        let start = Instant::now();
        let d = Daemon::spawn(&args.recordd, &scratch.join(format!("cache-{rep}")))?;
        let queue = Mutex::new((0..matrix.len() as u64).rev().collect::<Vec<_>>());
        let next =
            || queue.lock().expect("queue lock").pop().map(|k| (k, matrix[k as usize].clone()));
        let far = start + Duration::from_secs(120);
        warm = closed_loop(&d.addr, &next, start, far, false, epoch).0;
        setup.push(calib::Setup::unscaled(start.elapsed().as_secs_f64()));
        warm_ok = check_all(&warm, &|k| warm_answers[k as usize].clone(), "warm-up", out);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let served_words: Vec<Option<u64>> = warm
        .iter()
        .zip(&warm_ok)
        .map(|(r, ok)| {
            r.response.as_ref().ok().filter(|r| *ok && r.status == "ok").map(|r| r.words)
        })
        .collect();
    let t1 = report::table1(&served_words, &cycles, &matrix, &kernels);

    let stream = Mutex::new(Stream::new(args.seed, hot.then(|| matrix.clone())));
    let next = || Some(stream.lock().expect("stream lock").next());
    let cache_before = if args.trace {
        layers::code_cache_counts(&daemon.http_get("/stats")?)
    } else {
        (0.0, 0.0)
    };
    let start = Instant::now();
    let (recs, client_spans) =
        closed_loop(&daemon.addr, &next, start, start + args.seconds, args.trace, epoch);
    let window_s = start.elapsed().as_secs_f64();
    let rss = report::peak_rss_mb(&daemon.pid());
    let daemon_side =
        if args.trace { Some(daemon_layers(&daemon, &recs, cache_before)?) } else { None };
    drop(daemon);
    let issued = stream.into_inner().expect("stream lock").issued;

    out.attempted = recs.len() as u64;
    let answer = |k: u64| -> Expected {
        let req = &issued[k as usize];
        match req.kernel {
            Some(kix) => warm_answers
                [(kix * corpus::TARGETS.len() + req.target) * corpus::PLANS.len() + req.plan]
                .clone(),
            None => Expected::of(&lib.compile(req)),
        }
    };
    let verdicts = check_all(&recs, &answer, "timed", out);

    if !args.trace {
        let samples: Vec<report::Sample> = recs
            .iter()
            .zip(&verdicts)
            .map(|(r, ok)| report::Sample { at_s: r.done_s, us: r.latency_us, ok: *ok })
            .collect();
        let mut ok_per_tick = vec![0u64; report::ticks(window_s)];
        for s in samples.iter().filter(|s| s.ok) {
            report::add_at(&mut ok_per_tick, s.at_s, 1);
        }
        let timed = report::Timed {
            run_s: window_s,
            samples: &samples,
            n: samples.len() as u64,
            ok_per_tick: &ok_per_tick,
            calib_s_per_tick: &[],
            calib: &[],
        };
        report::end_to_end(out, &setup, &timed, (rss, "recordd"), &t1);
        return Ok(());
    }

    let (join, hit_ratio, rejected_frac) = daemon_side.expect("traced run");
    let mean_of = |traced: bool| {
        stats::mean(
            &recs.iter().filter(|r| r.traced == traced).map(|r| r.latency_us).collect::<Vec<_>>(),
        )
    };
    let overhead = mean_of(true) / mean_of(false) - 1.0;
    let share = join.median_unattributed_us / join.median_client_us.max(1e-9);
    out.report.push(format!(
        "wire: median client latency {:.1} us, median server end-start {:.1} us, median unattributed {:.1} us ({:.1}% of client p50) over {} joined requests",
        join.median_client_us,
        join.median_server_us,
        join.median_unattributed_us,
        100.0 * share,
        join.joined
    ));
    if hot {
        let visible = share > 0.5 && join.median_server_us < 1000.0;
        out.report.push(format!(
            "wire stall {}: unattributed time {} the dominant share of client p50 while the server's own total is {} 1 ms",
            if visible { "visible" } else { "not visible" },
            if share > 0.5 { "is" } else { "is not" },
            if join.median_server_us < 1000.0 { "under" } else { "over" },
        ));
    }

    let probe_reqs = Stream::prefix(
        args.seed,
        hot.then(|| matrix.clone()),
        if hot { PROBE_HOT } else { PROBE_FRESH },
    );
    let mut probe = Spans::new(epoch);
    let tables = layers::tables_probe(&lib, &mut probe);
    let (counts, answers) =
        layers::library_probe(&lib, &probe_reqs, &kernels, args.seed, 2, scratch, &mut probe, out);
    layers::handle_probe(&probe_reqs, &answers, &matrix, scratch, &mut probe, out)?;
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
    let mut all = client_spans;
    all.merge(probe);
    let name = if hot { "serve-hot" } else { "serve-fresh" };
    all.write_jsonl(&args.out_dir.join(format!("spans-{name}-{}.jsonl", args.seed)))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(())
}
