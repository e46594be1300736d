//! Hostile load generator for `recordd` — the soak half of the serve
//! robustness gate.
//!
//! Spawns many concurrent client threads throwing mixed traffic at a
//! running daemon: real DSPStone kernels across targets and plan
//! presets, seeded random DFL programs, and (with `--hostile on`) a
//! steady stream of abuse — malformed JSON, non-UTF-8 bytes, oversized
//! payloads, unknown targets/plans, zero-length programs, zero
//! deadlines, slow-loris stalls, and abrupt disconnects. Every client
//! is seeded from `--seed` (splitmix64), so a failing run replays.
//!
//! At the end it verifies the robustness contract and exits nonzero on
//! any violation:
//!
//! * the daemon is still alive (`ping` + `GET /healthz` both answer),
//! * zero `internal` error codes were observed (injected faults report
//!   `injected`, which is allowed),
//! * client-observed `overloaded` responses never exceed the server's
//!   `recordd_shed_total` counter,
//! * the p50 and p99 latency of successful compiles stay under
//!   [`P50_BOUND_US`] and [`P99_BOUND_US`].
//!
//! ```text
//! cargo run --release --example load_gen -- \
//!     --addr 127.0.0.1:7425 --clients 100 --duration-s 60 \
//!     --seed 0xDAC97 --hostile on --json report.json
//! ```

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use record_prop::{dfl, Rng};
use record_trace::json;
use record_trace::metrics::Histogram;

const TARGETS: &[&str] = &["tic25", "dsp56k", "risc8"];

/// Absolute bound on the p50 compile latency (µs). Wall-clock, so it is
/// generous: it catches a stalled or serialised daemon, not a slowdown,
/// which the `perfbench` benchmark measures.
const P50_BOUND_US: f64 = 2_000_000.0;

/// Absolute bound on the p99 compile latency (µs), generous like
/// [`P50_BOUND_US`].
const P99_BOUND_US: f64 = 5_000_000.0;

/// Latency histogram bounds (µs) for the quantile estimates. The top
/// finite bound sits well above [`P99_BOUND_US`], because the estimator
/// reports the *last finite bound* for samples in the +Inf bucket —
/// bounds that stopped at the gate would silently pass it.
const LATENCY_BOUNDS_US: &[f64] = &[
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    2_500_000.0,
    5_000_000.0,
    10_000_000.0,
    30_000_000.0,
    60_000_000.0,
];
const PLANS: &[&str] = &["default", "o0", "o1", "o2"];

/// Per-thread tallies, merged under one mutex at the end.
#[derive(Default)]
struct Tally {
    /// Response codes → counts (ok, pong, deadline, overloaded, …).
    codes: BTreeMap<String, u64>,
    /// Latencies (µs) of successful compile responses.
    latencies_us: Vec<u64>,
    /// Connections that ended in an I/O error (resets, timeouts —
    /// expected for loris/disconnect traffic).
    io_errors: u64,
    /// Connect attempts that failed outright.
    connect_failures: u64,
    /// Abrupt disconnects and slow-loris probes we initiated.
    hostile_closes: u64,
}

impl Tally {
    fn bump(&mut self, code: &str) {
        *self.codes.entry(code.to_string()).or_insert(0) += 1;
    }
    fn merge(&mut self, other: Tally) {
        for (code, n) in other.codes {
            *self.codes.entry(code).or_insert(0) += n;
        }
        self.latencies_us.extend(other.latencies_us);
        self.io_errors += other.io_errors;
        self.connect_failures += other.connect_failures;
        self.hostile_closes += other.hostile_closes;
    }
}

struct Opts {
    addr: String,
    clients: usize,
    duration: Duration,
    seed: u64,
    hostile: bool,
    loris_ms: u64,
    json_path: Option<String>,
}

fn parse_u64(s: &str) -> u64 {
    let (digits, radix) = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        (hex, 16)
    } else {
        (s, 10)
    };
    u64::from_str_radix(digits, radix).unwrap_or_else(|e| {
        eprintln!("bad number `{s}`: {e}");
        std::process::exit(2);
    })
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: "127.0.0.1:7425".into(),
        clients: 100,
        duration: Duration::from_secs(10),
        seed: 0xDAC97,
        hostile: true,
        loris_ms: 1_500,
        json_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => opts.addr = value(),
            "--clients" => opts.clients = parse_u64(&value()).max(1) as usize,
            "--duration-s" => opts.duration = Duration::from_secs(parse_u64(&value()).max(1)),
            "--seed" => opts.seed = parse_u64(&value()),
            "--hostile" | "--faults" => opts.hostile = value() != "off",
            "--loris-ms" => opts.loris_ms = parse_u64(&value()),
            "--json" => opts.json_path = Some(value()),
            other => {
                eprintln!("unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Reads one response line (closed connections and timeouts are `None`).
fn read_line(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end().to_string()),
        Err(_) => None,
    }
}

fn response_code(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("code").and_then(|c| c.as_str().map(str::to_string)))
        .unwrap_or_else(|| "unparseable".to_string())
}

fn compile_request(rng: &mut Rng, id: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"id\":\"q{id}\",\"op\":\"compile\",\"target\":"));
    // 3:1 real kernels over random programs: random ones mostly die in
    // the frontend, and we want backend traffic dominating the soak
    let (program, deadline_ms) = if rng.usize(4) > 0 {
        let kernels = record_dspstone_sources();
        (kernels[rng.usize(kernels.len())].to_string(), 500 + rng.usize(1_500) as u64)
    } else {
        (dfl::gen_program(rng), 100 + rng.usize(700) as u64)
    };
    json::push_str_lit(&mut out, TARGETS[rng.usize(TARGETS.len())]);
    out.push_str(",\"plan\":");
    json::push_str_lit(&mut out, PLANS[rng.usize(PLANS.len())]);
    out.push_str(&format!(",\"deadline_ms\":{deadline_ms},\"program\":"));
    json::push_str_lit(&mut out, &program);
    out.push('}');
    out
}

/// DSPStone kernel sources, via the workspace crate.
fn record_dspstone_sources() -> Vec<&'static str> {
    record_dspstone::kernels().into_iter().map(|k| k.source).collect()
}

/// One client: short-lived connections, a few requests each, until the
/// shared clock runs out.
#[allow(clippy::too_many_lines)]
fn client_loop(opts: &Opts, thread_ix: usize, end: Instant, sink: &Mutex<Tally>) {
    let mut rng = Rng::new(opts.seed ^ (thread_ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut tally = Tally::default();
    let mut next_id: u64 = 0;
    while Instant::now() < end {
        let Ok(stream) = connect(&opts.addr) else {
            tally.connect_failures += 1;
            std::thread::sleep(Duration::from_millis(20 + rng.usize(60) as u64));
            continue;
        };
        let Ok(read_half) = stream.try_clone() else { continue };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let requests = 1 + rng.usize(6);
        'conn: for _ in 0..requests {
            if Instant::now() >= end {
                break;
            }
            next_id += 1;
            // hostile traffic is 1 draw in 4 when enabled; draw 12+ are
            // the benign kinds so the mix stays mostly real compiles
            let kind = if opts.hostile { rng.usize(16) } else { 12 + rng.usize(4) };
            match kind {
                0 => {
                    // malformed JSON
                    let garbage = rng.wild_string(200).replace('\n', " ");
                    if writer.write_all(format!("{{{garbage}\n").as_bytes()).is_err() {
                        tally.io_errors += 1;
                        break 'conn;
                    }
                    match read_line(&mut reader) {
                        Some(line) => tally.bump(&response_code(&line)),
                        None => {
                            tally.io_errors += 1;
                            break 'conn;
                        }
                    }
                }
                1 => {
                    // raw non-UTF-8 bytes
                    let mut bytes = vec![0xFF, 0xFE, 0x80, b'{', 0xC3, 0x28];
                    bytes.extend(std::iter::repeat(0x92).take(rng.usize(64)));
                    bytes.push(b'\n');
                    if writer.write_all(&bytes).is_err() {
                        tally.io_errors += 1;
                        break 'conn;
                    }
                    match read_line(&mut reader) {
                        Some(line) => tally.bump(&response_code(&line)),
                        None => {
                            tally.io_errors += 1;
                            break 'conn;
                        }
                    }
                }
                2 => {
                    // oversized line: the server must reply too-large and
                    // close without buffering the whole thing
                    let chunk = [b'a'; 8192];
                    let mut sent = 0usize;
                    let mut write_err = false;
                    while sent < (1 << 20) + 65_536 {
                        if writer.write_all(&chunk).is_err() {
                            write_err = true; // server already gave up: fine
                            break;
                        }
                        sent += chunk.len();
                    }
                    if !write_err {
                        let _ = writer.write_all(b"\n");
                    }
                    match read_line(&mut reader) {
                        Some(line) => tally.bump(&response_code(&line)),
                        None => tally.io_errors += 1,
                    }
                    break 'conn; // server closes after too-large
                }
                3 => {
                    // unknown target / unknown plan / empty program / zero deadline
                    let line = match rng.usize(4) {
                        0 => format!(
                            "{{\"id\":\"q{next_id}\",\"target\":\"vliw-x{}\",\"program\":\"p\"}}",
                            rng.usize(100)
                        ),
                        1 => format!(
                            "{{\"id\":\"q{next_id}\",\"plan\":\"o{}\",\"program\":\"p\"}}",
                            3 + rng.usize(7)
                        ),
                        2 => format!("{{\"id\":\"q{next_id}\",\"program\":\"  \"}}"),
                        _ => format!(
                            "{{\"id\":\"q{next_id}\",\"deadline_ms\":0,\"program\":\"program p; out y: fix; begin y := 1; end\"}}"
                        ),
                    };
                    if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                        tally.io_errors += 1;
                        break 'conn;
                    }
                    match read_line(&mut reader) {
                        Some(line) => tally.bump(&response_code(&line)),
                        None => {
                            tally.io_errors += 1;
                            break 'conn;
                        }
                    }
                }
                4 => {
                    // slow loris: half a request, then stall past the
                    // server's read timeout; it must close, not wait
                    let _ = writer.write_all(b"{\"op\":\"compile\",\"progr");
                    let _ = writer.flush();
                    std::thread::sleep(Duration::from_millis(opts.loris_ms));
                    let _ = writer.write_all(b"am\":\"x\"}\n");
                    tally.hostile_closes += 1;
                    break 'conn;
                }
                5 => {
                    // abrupt disconnect mid-request
                    let _ = writer.write_all(b"{\"op\":\"compile\",\"program\":\"pro");
                    let _ = writer.flush();
                    tally.hostile_closes += 1;
                    break 'conn;
                }
                6 => {
                    // metrics scrape mixed into the load
                    let _ = writer.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                    let mut body = String::new();
                    let mut line = String::new();
                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                        body.push_str(&line);
                        line.clear();
                    }
                    tally.bump(if body.contains("recordd_requests_total") {
                        "metrics-scrape"
                    } else {
                        "metrics-scrape-bad"
                    });
                    break 'conn; // HTTP closes the connection
                }
                7 => {
                    // ping
                    if writer
                        .write_all(
                            format!("{{\"op\":\"ping\",\"id\":\"q{next_id}\"}}\n").as_bytes(),
                        )
                        .is_err()
                    {
                        tally.io_errors += 1;
                        break 'conn;
                    }
                    match read_line(&mut reader) {
                        Some(line) => tally.bump(&response_code(&line)),
                        None => {
                            tally.io_errors += 1;
                            break 'conn;
                        }
                    }
                }
                _ => {
                    // the bread and butter: a real compile
                    let line = compile_request(&mut rng, next_id);
                    let started = Instant::now();
                    if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                        tally.io_errors += 1;
                        break 'conn;
                    }
                    match read_line(&mut reader) {
                        Some(response) => {
                            let code = response_code(&response);
                            if code == "ok" {
                                tally.latencies_us.push(started.elapsed().as_micros() as u64);
                            }
                            tally.bump(&code);
                        }
                        None => {
                            tally.io_errors += 1;
                            break 'conn;
                        }
                    }
                }
            }
        }
    }
    sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner).merge(tally);
}

/// Scrapes `recordd_shed_total` from the live daemon.
fn scrape_shed_total(addr: &str) -> Option<u64> {
    let mut stream = connect(addr).ok()?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut body = String::new();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
        body.push_str(&line);
        line.clear();
    }
    body.lines()
        .find(|l| l.starts_with("recordd_shed_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
}

fn daemon_alive(addr: &str) -> bool {
    let Ok(mut stream) = connect(addr) else { return false };
    if stream.write_all(b"{\"op\":\"ping\",\"id\":\"final\"}\n").is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    read_line(&mut reader).is_some_and(|l| response_code(&l) == "pong")
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let opts = parse_opts();
    if !daemon_alive(&opts.addr) {
        eprintln!("load_gen: no daemon answering at {}", opts.addr);
        return ExitCode::from(2);
    }
    let sink = Mutex::new(Tally::default());
    let end = Instant::now() + opts.duration;
    std::thread::scope(|scope| {
        for ix in 0..opts.clients {
            let sink = &sink;
            let opts = &opts;
            scope.spawn(move || client_loop(opts, ix, end, sink));
        }
    });
    let tally = sink.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);

    let alive = daemon_alive(&opts.addr);
    let shed_total = scrape_shed_total(&opts.addr);
    let internal = tally.codes.get("internal").copied().unwrap_or(0);
    let overloaded = tally.codes.get("overloaded").copied().unwrap_or(0);
    let ok = tally.codes.get("ok").copied().unwrap_or(0);
    // the same deterministic bucket-interpolation estimator the daemon
    // itself uses for /stats and the drain summary
    let mut latency = Histogram::new(LATENCY_BOUNDS_US);
    for &us in &tally.latencies_us {
        latency.observe(us as f64);
    }
    let p50 = latency.quantile(0.50);
    let p90 = latency.quantile(0.90);
    let p99 = latency.quantile(0.99);

    println!("load_gen: {} clients x {:?} against {}", opts.clients, opts.duration, opts.addr);
    for (code, n) in &tally.codes {
        println!("  {code:<20} {n}");
    }
    println!("  io-errors            {}", tally.io_errors);
    println!("  connect-failures     {}", tally.connect_failures);
    println!("  hostile-closes       {}", tally.hostile_closes);
    println!(
        "compile latency: p50 {p50:.0}us  p90 {p90:.0}us  p99 {p99:.0}us  ({} samples)",
        tally.latencies_us.len()
    );
    println!(
        "daemon alive: {alive}; server shed_total: {}",
        shed_total.map_or("unscraped".into(), |v| v.to_string())
    );

    let mut failures: Vec<String> = Vec::new();
    if !alive {
        failures.push("daemon died (or stopped answering pings)".into());
    }
    if internal > 0 {
        failures.push(format!("{internal} `internal` errors — a real pass panic escaped"));
    }
    if ok == 0 {
        failures.push("zero successful compiles — the soak exercised nothing".into());
    }
    match shed_total {
        Some(shed) if overloaded > shed => {
            failures.push(format!(
                "shed accounting: clients saw {overloaded} overloaded but server counted {shed}"
            ));
        }
        None => failures.push("could not scrape /metrics for shed accounting".into()),
        _ => {}
    }
    for (name, got, bound) in [("p50", p50, P50_BOUND_US), ("p99", p99, P99_BOUND_US)] {
        if got > bound {
            failures.push(format!("{name} {got:.0}us exceeds bound {bound:.0}us"));
        }
    }

    if let Some(path) = &opts.json_path {
        let mut out = String::from("{\"codes\":{");
        for (i, (code, n)) in tally.codes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_lit(&mut out, code);
            out.push_str(&format!(":{n}"));
        }
        out.push_str(&format!(
            "}},\"io_errors\":{},\"connect_failures\":{},\"hostile_closes\":{},\
             \"p50_us\":{p50},\"p90_us\":{p90},\"p99_us\":{p99},\"samples\":{},\"alive\":{alive},\
             \"server_shed_total\":{},\"failures\":{}}}\n",
            tally.io_errors,
            tally.connect_failures,
            tally.hostile_closes,
            tally.latencies_us.len(),
            shed_total.map_or("null".into(), |v| v.to_string()),
            failures.len(),
        ));
        debug_assert!(json::validate(out.trim_end()).is_ok());
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("load_gen: {path}: {e}");
        }
    }

    if failures.is_empty() {
        println!("load_gen: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("load_gen: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
