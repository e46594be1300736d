//! The inputs every workload draws from: the DSPStone kernel × target ×
//! plan matrix and the seeded streams of requests built from it or from
//! generated programs, plus the in-process library that gives the
//! expected answer for each.

use std::collections::HashSet;

use record::{Budgets, CompileError, PassPlan, Session};
use record_dspstone::Kernel;
use record_isa::{Code, TargetDesc};
use record_prop::{dfl, Rng};
use record_trace::json;

pub const TARGETS: [&str; 4] = ["tic25", "dsp56k", "risc8", "asip-dsp"];
pub const PLANS: [&str; 3] = ["o0", "o1", "o2"];

/// The 10 Table 1 kernels plus `lms`.
pub fn kernels() -> Vec<Kernel> {
    let mut all = record_dspstone::kernels();
    all.extend(record_dspstone::extension_kernels());
    all
}

/// One compile request: a program, a target and a plan preset.
#[derive(Clone, Debug)]
pub struct Req {
    pub program: String,
    pub target: usize,
    pub plan: usize,
    /// Index into [`kernels`] when the program is a DSPStone kernel.
    pub kernel: Option<usize>,
}

impl Req {
    /// The wire request, newline included, with correlation id `k<id>`.
    pub fn line(&self, id: u64) -> String {
        let mut out = String::with_capacity(self.program.len() + 96);
        out.push_str(&format!("{{\"id\":\"k{id}\",\"op\":\"compile\",\"target\":\""));
        out.push_str(TARGETS[self.target]);
        out.push_str("\",\"plan\":\"");
        out.push_str(PLANS[self.plan]);
        out.push_str("\",\"program\":");
        json::push_str_lit(&mut out, &self.program);
        out.push_str("}\n");
        out
    }

    pub fn label(&self, kernels: &[Kernel]) -> String {
        let name = self.kernel.map_or("generated", |k| kernels[k].name);
        format!("{name}/{}/{}", TARGETS[self.target], PLANS[self.plan])
    }
}

/// The 132 (kernel, target, plan) triples in canonical order.
pub fn matrix(kernels: &[Kernel]) -> Vec<Req> {
    let mut out = Vec::new();
    for (k, kernel) in kernels.iter().enumerate() {
        for target in 0..TARGETS.len() {
            for plan in 0..PLANS.len() {
                out.push(Req { program: kernel.source.to_string(), target, plan, kernel: Some(k) });
            }
        }
    }
    out
}

/// Fisher–Yates shuffle of `0..n` driven by `rng`.
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize(i + 1));
    }
    order
}

/// One `Session` per plan preset with the BURS tables of every target
/// built. `service` configures the plans exactly as `recordd` does.
pub struct Engine {
    pub targets: Vec<TargetDesc>,
    pub plans: Vec<PassPlan>,
    pub sessions: Vec<Session>,
}

impl Engine {
    pub fn new(service: bool) -> Result<Engine, String> {
        let targets: Vec<TargetDesc> =
            TARGETS.iter().map(|t| record_serve::resolve_target(t)).collect::<Result<_, _>>()?;
        let plans: Vec<PassPlan> = [PassPlan::o0(), PassPlan::o1(), PassPlan::o2()]
            .into_iter()
            .map(|p| if service { p.with_budgets(Budgets::service()).strict(false) } else { p })
            .collect();
        let mut sessions = Vec::new();
        for plan in &plans {
            let session = Session::new().with_plan(plan.clone());
            for target in &targets {
                session.compiler_for(target).map_err(|e| e.to_string())?;
            }
            sessions.push(session);
        }
        Ok(Engine { targets, plans, sessions })
    }

    pub fn compile(&self, req: &Req) -> Result<Code, CompileError> {
        self.sessions[req.plan].compile_source(&self.targets[req.target], &req.program)
    }
}

/// Answers a served response must match.
#[derive(Clone, Debug)]
pub enum Expected {
    Asm(String),
    Rejected(&'static str),
}

impl Expected {
    pub fn of(result: &Result<Code, CompileError>) -> Expected {
        match result {
            Ok(code) => Expected::Asm(code.render()),
            Err(e) => Expected::Rejected(record_serve::error_code(e)),
        }
    }

    /// Whether the library's own answer is one the workload may never
    /// produce (a crash, a broken invariant, or a blown budget).
    pub fn is_failure(&self) -> bool {
        matches!(self, Expected::Rejected(code) if FAILURE_CODES.contains(code))
    }
}

/// Response codes that count as failed operations.
pub const FAILURE_CODES: [&str; 5] = ["internal", "verify", "deadline", "overloaded", "budget"];

/// The fields of one response line the checks read.
pub struct Response {
    pub rid: Option<String>,
    pub status: String,
    pub code: String,
    pub asm_hash: u64,
    pub words: u64,
}

pub fn parse_response(line: &str) -> Option<Response> {
    let v = json::parse(line).ok()?;
    let text = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
    Some(Response {
        rid: text("rid").filter(|r| !r.is_empty()),
        status: text("status")?,
        code: text("code")?,
        asm_hash: text("asm").map_or(0, |a| fnv(a.as_bytes())),
        words: v.get("words").and_then(|w| w.as_f64()).unwrap_or(0.0) as u64,
    })
}

/// Checks a served response against the library's answer; `Err` says why
/// it counts as failed.
pub fn check_response(resp: &Response, expected: &Expected) -> Result<(), String> {
    if resp.rid.is_none() {
        return Err("response without a rid".into());
    }
    if FAILURE_CODES.contains(&resp.code.as_str()) {
        return Err(format!("served code `{}`", resp.code));
    }
    match expected {
        _ if expected.is_failure() => Err("the library itself fails this request".into()),
        Expected::Asm(asm) if resp.status == "ok" && resp.asm_hash == fnv(asm.as_bytes()) => Ok(()),
        Expected::Asm(_) => Err(format!("served `{}`, asm differs from the library", resp.code)),
        Expected::Rejected(code) if resp.status == "error" && resp.code == *code => Ok(()),
        Expected::Rejected(code) => Err(format!("served `{}`, library says `{code}`", resp.code)),
    }
}

/// FNV-1a, for comparing served asm without keeping it.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A seeded, deterministic request stream. `hot` draws from the matrix;
/// otherwise every request is a generated program whose (lowered
/// program, target, plan) cache key has not appeared before.
pub struct Stream {
    rng: Rng,
    matrix: Option<Vec<Req>>,
    seen: HashSet<(u64, usize, usize)>,
    pub issued: Vec<Req>,
}

impl Stream {
    pub fn new(seed: u64, matrix: Option<Vec<Req>>) -> Stream {
        Stream {
            rng: Rng::new(seed ^ 0x5EED_57EA),
            matrix,
            seen: HashSet::new(),
            issued: Vec::new(),
        }
    }

    /// The next request and its index in the stream.
    pub fn next(&mut self) -> (u64, Req) {
        let req = match &self.matrix {
            Some(m) => m[self.rng.usize(m.len())].clone(),
            None => loop {
                let program = dfl::gen_program(&mut self.rng);
                let target = self.rng.usize(TARGETS.len());
                let plan = self.rng.usize(PLANS.len());
                let key = match record_ir::dfl::parse(&program)
                    .and_then(|ast| record_ir::lower::lower(&ast))
                {
                    Ok(lir) => record_ir::fingerprint::program_fingerprint(&lir),
                    Err(_) => fnv(program.as_bytes()),
                };
                if self.seen.insert((key, target, plan)) {
                    break Req { program, target, plan, kernel: None };
                }
            },
        };
        self.issued.push(req.clone());
        ((self.issued.len() - 1) as u64, req)
    }

    /// The first `n` requests of a fresh stream with this seed.
    pub fn prefix(seed: u64, matrix: Option<Vec<Req>>, n: usize) -> Vec<Req> {
        let mut s = Stream::new(seed, matrix);
        (0..n).map(|_| s.next().1).collect()
    }
}
