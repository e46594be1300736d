//! A register-transfer-level simulator for RECORD target models.
//!
//! The paper's evaluation measures code size and cycle counts on real
//! silicon; this reproduction replaces the silicon with a deterministic
//! simulator. Because every instruction carries its own semantics (a
//! [`record_isa::SemExpr`] over concrete locations), the simulator is
//! target-independent: it executes whatever the selector bound, including
//! address-register post-modification, hardware repeat, structured loops,
//! saturation modes and parallel (simultaneous-read) operation bundles.
//!
//! Its two jobs:
//!
//! * **validation** — every compiled kernel is checked bit-exactly against
//!   its reference Rust implementation,
//! * **measurement** — cycle counts feed the Section 3.1 overhead bench;
//!   code size comes from [`record_isa::Code::size_words`].

use std::collections::HashMap;
use std::fmt;

use record_ir::{Bank, Symbol};
use record_isa::{AddrMode, Code, Insn, InsnKind, Loc, MemLoc, RegId, StructureError, TargetDesc};

/// An error raised during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A memory operand referenced a symbol missing from the layout.
    UnplacedSymbol(String),
    /// A resolved address fell outside the bank.
    AddressOutOfRange {
        /// The bank accessed.
        bank: Bank,
        /// The offending address.
        addr: i64,
    },
    /// A loop-variant operand's counter is not active.
    UnknownCounter(String),
    /// The step budget was exhausted (runaway loop guard).
    StepLimit,
    /// Structural problem (unbalanced loops, repeat without target).
    Structure(StructureError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnplacedSymbol(s) => write!(f, "symbol `{s}` not placed in data layout"),
            SimError::AddressOutOfRange { bank, addr } => {
                write!(f, "address {addr} outside bank {bank}")
            }
            SimError::UnknownCounter(s) => write!(f, "loop counter `{s}` not active"),
            SimError::StepLimit => f.write_str("step limit exceeded"),
            SimError::Structure(s) => write!(f, "bad code structure: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Dynamic execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Machine cycles consumed.
    pub cycles: u64,
    /// Instructions executed (bundles count once; repeats count each
    /// execution).
    pub insns: u64,
}

/// A simulated processor instance.
///
/// # Example
///
/// ```
/// use record_isa::{Code, Insn, Loc, MemLoc};
/// use record_sim::Machine;
///
/// let target = record_isa::targets::tic25::target();
/// let mut code = Code::default();
/// code.layout.place(record_ir::Symbol::new("x"), 0, 1, record_ir::Bank::X);
/// code.layout.place(record_ir::Symbol::new("y"), 1, 1, record_ir::Bank::X);
/// code.insns.push(Insn::mov(
///     Loc::Mem(MemLoc::scalar("y")),
///     Loc::Mem(MemLoc::scalar("x")),
///     "MOV y,x", 1, 1,
/// ));
/// let mut m = Machine::new(&target);
/// m.poke(&record_ir::Symbol::new("x"), 0, 42, &code)?;
/// m.run(&code)?;
/// assert_eq!(m.peek(&record_ir::Symbol::new("y"), 0, &code), Some(42));
/// # Ok::<(), record_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Machine<'t> {
    target: &'t TargetDesc,
    regs: HashMap<RegId, i64>,
    ars: Vec<i64>,
    /// Each bank's words up to the highest one written; every word past
    /// a bank's end (and below `words_per_bank`) reads as zero.
    mem: [Vec<i64>; 2],
    modes: Vec<bool>,
    max_steps: u64,
    trace: Option<Vec<String>>,
}

/// The default runaway-loop guard of [`Machine::new`] (in executed
/// steps); override it per machine with [`Machine::with_max_steps`] or
/// per run with [`run_program_with_steps`].
pub const DEFAULT_MAX_STEPS: u64 = 10_000_000;

impl<'t> Machine<'t> {
    /// Creates a machine with zeroed storage and default mode states.
    pub fn new(target: &'t TargetDesc) -> Self {
        let n_ars = target.agu.as_ref().map(|a| a.n_ars as usize).unwrap_or(0);
        Machine {
            target,
            regs: HashMap::new(),
            ars: vec![0; n_ars],
            mem: [Vec::new(), Vec::new()],
            modes: target.modes.iter().map(|m| m.default_on).collect(),
            max_steps: DEFAULT_MAX_STEPS,
            trace: None,
        }
    }

    /// Overrides the runaway-loop step budget.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// Enables instruction tracing: every executed instruction is logged
    /// with its text; retrieve the log with [`Machine::take_trace`].
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Takes the accumulated trace (empty if tracing is off).
    pub fn take_trace(&mut self) -> Vec<String> {
        self.trace.take().unwrap_or_default()
    }

    /// Returns the machine to the state [`Machine::new`] creates: zeroed
    /// registers, address registers and memory, and default mode states.
    /// The step budget and whether tracing is on are kept; a trace log
    /// is emptied. The cost grows with the highest memory word written,
    /// not with the bank size.
    pub fn reset(&mut self) {
        self.regs.clear();
        self.ars.fill(0);
        for bank in &mut self.mem {
            bank.clear();
        }
        for (slot, m) in self.modes.iter_mut().zip(&self.target.modes) {
            *slot = m.default_on;
        }
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
    }

    /// Writes a value into a variable's element through the code's layout.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnplacedSymbol`] for unknown symbols.
    pub fn poke(
        &mut self,
        sym: &Symbol,
        index: u32,
        value: i64,
        code: &Code,
    ) -> Result<(), SimError> {
        let (bank, addr) = code
            .layout
            .addr_of(sym, index as i64)
            .ok_or_else(|| SimError::UnplacedSymbol(sym.to_string()))?;
        self.write_mem(bank, addr as i64, value)
    }

    /// Reads a variable's element through the code's layout.
    pub fn peek(&self, sym: &Symbol, index: u32, code: &Code) -> Option<i64> {
        let (bank, addr) = code.layout.addr_of(sym, index as i64)?;
        self.load(bank, addr as usize)
    }

    /// Reads a register (mainly for tests and the self-test generator).
    pub fn reg(&self, r: RegId) -> i64 {
        *self.regs.get(&r).unwrap_or(&0)
    }

    /// The current state of mode `m`; `false` for modes the target does
    /// not declare (rather than panicking on a bad index).
    pub fn mode(&self, m: usize) -> bool {
        self.modes.get(m).copied().unwrap_or(false)
    }

    /// Executes a program to completion.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; the machine state is left as-at-failure.
    pub fn run(&mut self, code: &Code) -> Result<RunResult, SimError> {
        code.verify().map_err(SimError::Structure)?;
        let mut result = RunResult::default();
        let mut pc = 0usize;
        // (loop-start pc, trip count, counter symbol, iteration)
        let mut loops: Vec<(usize, u32, Symbol, u32)> = Vec::new();
        let mut counters: HashMap<Symbol, i64> = HashMap::new();
        let mut steps = 0u64;

        while pc < code.insns.len() {
            steps += 1;
            if steps > self.max_steps {
                return Err(SimError::StepLimit);
            }
            let insn = &code.insns[pc];
            if let Some(trace) = &mut self.trace {
                trace.push(format!("{pc:04}: {insn}"));
            }
            match &insn.kind {
                InsnKind::LoopStart { var, count } => {
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    if *count == 0 {
                        pc = matching_end(code, pc)? + 1;
                        continue;
                    }
                    loops.push((pc, *count, var.clone(), 0));
                    counters.insert(var.clone(), 0);
                    pc += 1;
                }
                InsnKind::LoopEnd => {
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    let (start, count, var, iter) =
                        loops.pop().ok_or(SimError::Structure(StructureError::StrayLoopEnd))?;
                    let next_iter = iter + 1;
                    if next_iter < count {
                        counters.insert(var.clone(), next_iter as i64);
                        loops.push((start, count, var, next_iter));
                        pc = start + 1;
                    } else {
                        counters.remove(&var);
                        pc += 1;
                    }
                }
                InsnKind::Rpt { count } => {
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    let body = code
                        .insns
                        .get(pc + 1)
                        .ok_or(SimError::Structure(StructureError::RptAtEnd))?;
                    for _ in 0..*count {
                        steps += 1;
                        if steps > self.max_steps {
                            return Err(SimError::StepLimit);
                        }
                        self.exec_repeatable(body, code, &counters)?;
                        result.cycles += body.cycles as u64;
                        result.insns += 1;
                    }
                    pc += 2;
                }
                InsnKind::SetMode { mode, on } => {
                    let slot = self
                        .modes
                        .get_mut(*mode)
                        .ok_or(SimError::Structure(StructureError::UnknownMode { mode: *mode }))?;
                    *slot = *on;
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::ArLoad { ar, base, disp } => {
                    let (_, addr) = code
                        .layout
                        .addr_of(base, *disp)
                        .ok_or_else(|| SimError::UnplacedSymbol(base.to_string()))?;
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] = addr as i64;
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::ArAdd { ar, delta } => {
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] += delta;
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::ArLoadIndexed { ar, base, disp, index, down } => {
                    let (ibank, iaddr) = code
                        .layout
                        .addr_of(index, 0)
                        .ok_or_else(|| SimError::UnplacedSymbol(index.to_string()))?;
                    let ivalue = self.read_mem(ibank, iaddr as i64)?;
                    let (_, addr) = code
                        .layout
                        .addr_of(base, *disp)
                        .ok_or_else(|| SimError::UnplacedSymbol(base.to_string()))?;
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] =
                        if *down { addr as i64 - ivalue } else { addr as i64 + ivalue };
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::ArLoadMem { ar, cell } => {
                    let (bank, addr) = code
                        .layout
                        .addr_of(cell, 0)
                        .ok_or_else(|| SimError::UnplacedSymbol(cell.to_string()))?;
                    let v = self.read_mem(bank, addr as i64)?;
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] = v;
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::ArStore { ar, cell } => {
                    self.ar_slot(*ar)?;
                    let v = self.ars[*ar as usize];
                    let (bank, addr) = code
                        .layout
                        .addr_of(cell, 0)
                        .ok_or_else(|| SimError::UnplacedSymbol(cell.to_string()))?;
                    self.write_mem(bank, addr as i64, v)?;
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::PtrInit { cell, base, disp } => {
                    let (_, target_addr) = code
                        .layout
                        .addr_of(base, *disp)
                        .ok_or_else(|| SimError::UnplacedSymbol(base.to_string()))?;
                    let (bank, addr) = code
                        .layout
                        .addr_of(cell, 0)
                        .ok_or_else(|| SimError::UnplacedSymbol(cell.to_string()))?;
                    self.write_mem(bank, addr as i64, target_addr as i64)?;
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::Nop => {
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
                InsnKind::Compute { .. } => {
                    self.exec_bundle(insn, code, &counters)?;
                    result.cycles += insn.cycles as u64;
                    result.insns += 1;
                    pc += 1;
                }
            }
        }
        Ok(result)
    }

    fn exec_repeatable(
        &mut self,
        insn: &Insn,
        code: &Code,
        counters: &HashMap<Symbol, i64>,
    ) -> Result<(), SimError> {
        match &insn.kind {
            InsnKind::Compute { .. } => self.exec_bundle(insn, code, counters),
            InsnKind::ArAdd { ar, delta } => {
                self.ar_slot(*ar)?;
                self.ars[*ar as usize] += delta;
                Ok(())
            }
            other => {
                Err(SimError::Structure(StructureError::RptOver { kind: format!("{other:?}") }))
            }
        }
    }

    fn ar_slot(&self, ar: u16) -> Result<(), SimError> {
        if (ar as usize) < self.ars.len() {
            Ok(())
        } else {
            Err(SimError::Structure(StructureError::NoSuchAddressRegister {
                ar,
                target: self.target.name.to_string(),
            }))
        }
    }

    /// Executes a bundle: all reads happen before all writes; address-
    /// register post-modifications apply afterwards, in operand order.
    fn exec_bundle(
        &mut self,
        insn: &Insn,
        code: &Code,
        counters: &HashMap<Symbol, i64>,
    ) -> Result<(), SimError> {
        let mut writes: Vec<(Loc, i64)> = Vec::new();
        let mut posts: Vec<(u16, i8)> = Vec::new();
        self.eval_insn(insn, code, counters, &mut writes, &mut posts)?;
        for (dst, value) in writes {
            self.write_loc(&dst, value, code, counters)?;
        }
        for (ar, post) in posts {
            self.ar_slot(ar)?;
            self.ars[ar as usize] += post as i64;
        }
        Ok(())
    }

    fn eval_insn(
        &self,
        insn: &Insn,
        code: &Code,
        counters: &HashMap<Symbol, i64>,
        writes: &mut Vec<(Loc, i64)>,
        posts: &mut Vec<(u16, i8)>,
    ) -> Result<(), SimError> {
        if let InsnKind::Compute { dst, expr } = &insn.kind {
            let saturating = insn.mode_sensitive
                && self.target.sat_mode().and_then(|m| self.modes.get(m).copied()).unwrap_or(false);
            let mut err: Option<SimError> = None;
            let value = expr.eval(self.target.word_width, saturating, &mut |loc| match self
                .read_loc(loc, code, counters, posts)
            {
                Ok(v) => v,
                Err(e) => {
                    err.get_or_insert(e);
                    0
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            // destination post-modification registers too
            if let Loc::Mem(m) = dst {
                if let AddrMode::Indirect { ar, post } = m.mode {
                    if post != 0 {
                        posts.push((ar, post));
                    }
                }
            }
            writes.push((dst.clone(), value));
        }
        for p in &insn.parallel {
            self.eval_insn(p, code, counters, writes, posts)?;
        }
        Ok(())
    }

    fn resolve(
        &self,
        m: &MemLoc,
        code: &Code,
        counters: &HashMap<Symbol, i64>,
    ) -> Result<(Bank, i64), SimError> {
        match m.mode {
            AddrMode::Direct(a) => Ok((m.bank, a as i64)),
            AddrMode::Indirect { ar, .. } => {
                self.ar_slot(ar)?;
                Ok((m.bank, self.ars[ar as usize]))
            }
            AddrMode::Unresolved => {
                let index = match &m.index {
                    None => 0,
                    Some(var) => {
                        let i = *counters
                            .get(var)
                            .ok_or_else(|| SimError::UnknownCounter(var.to_string()))?;
                        if m.down {
                            -i
                        } else {
                            i
                        }
                    }
                };
                let (bank, addr) = code
                    .layout
                    .addr_of(&m.base, m.disp + index)
                    .ok_or_else(|| SimError::UnplacedSymbol(m.base.to_string()))?;
                Ok((bank, addr as i64))
            }
        }
    }

    fn read_loc(
        &self,
        loc: &Loc,
        code: &Code,
        counters: &HashMap<Symbol, i64>,
        posts: &mut Vec<(u16, i8)>,
    ) -> Result<i64, SimError> {
        match loc {
            Loc::Imm(v) => Ok(record_ir::ops::wrap_to_width(*v, self.target.word_width)),
            Loc::Reg(r) => Ok(self.reg(*r)),
            Loc::Mem(m) => {
                let (bank, addr) = self.resolve(m, code, counters)?;
                if let AddrMode::Indirect { ar, post } = m.mode {
                    if post != 0 {
                        posts.push((ar, post));
                    }
                }
                self.read_mem(bank, addr)
            }
        }
    }

    fn write_loc(
        &mut self,
        loc: &Loc,
        value: i64,
        code: &Code,
        counters: &HashMap<Symbol, i64>,
    ) -> Result<(), SimError> {
        match loc {
            Loc::Imm(_) => Err(SimError::Structure(StructureError::ImmediateDestination)),
            Loc::Reg(r) => {
                self.regs.insert(*r, value);
                Ok(())
            }
            Loc::Mem(m) => {
                let (bank, addr) = self.resolve(m, code, counters)?;
                self.write_mem(bank, addr, value)
            }
        }
    }

    /// The word at `ix` of `bank`, `None` past the end of the bank.
    fn load(&self, bank: Bank, ix: usize) -> Option<i64> {
        (ix < self.target.memory.words_per_bank as usize)
            .then(|| self.mem[bank as usize].get(ix).copied().unwrap_or(0))
    }

    fn read_mem(&self, bank: Bank, addr: i64) -> Result<i64, SimError> {
        usize::try_from(addr)
            .ok()
            .and_then(|ix| self.load(bank, ix))
            .ok_or(SimError::AddressOutOfRange { bank, addr })
    }

    fn write_mem(&mut self, bank: Bank, addr: i64, value: i64) -> Result<(), SimError> {
        let ix = usize::try_from(addr)
            .ok()
            .filter(|&ix| ix < self.target.memory.words_per_bank as usize)
            .ok_or(SimError::AddressOutOfRange { bank, addr })?;
        let words = &mut self.mem[bank as usize];
        if ix >= words.len() {
            words.resize(ix + 1, 0);
        }
        words[ix] = record_ir::ops::wrap_to_width(value, self.target.word_width);
        Ok(())
    }
}

/// Convenience: loads inputs, runs, and returns the final value of every
/// placed symbol.
///
/// # Errors
///
/// Propagates any [`SimError`]; unknown input symbols are an error, as is
/// a layout entry whose storage cannot be read back (a malformed layout
/// must not be silently reported as zeros).
pub fn run_program(
    code: &Code,
    target: &TargetDesc,
    inputs: &HashMap<Symbol, Vec<i64>>,
) -> Result<(HashMap<Symbol, Vec<i64>>, RunResult), SimError> {
    run_program_with_steps(code, target, inputs, DEFAULT_MAX_STEPS)
}

/// [`run_program`] with an explicit step budget instead of
/// [`DEFAULT_MAX_STEPS`] — validation harnesses pick a budget matched
/// to the program under test so a miscompiled infinite loop fails fast.
///
/// # Errors
///
/// See [`run_program`]; additionally [`SimError::StepLimit`] once
/// `max_steps` is exhausted.
pub fn run_program_with_steps(
    code: &Code,
    target: &TargetDesc,
    inputs: &HashMap<Symbol, Vec<i64>>,
    max_steps: u64,
) -> Result<(HashMap<Symbol, Vec<i64>>, RunResult), SimError> {
    let mut machine = Machine::new(target).with_max_steps(max_steps);
    for (sym, values) in inputs {
        for (i, v) in values.iter().enumerate() {
            machine.poke(sym, i as u32, *v, code)?;
        }
    }
    let result = machine.run(code)?;
    let mut outputs = HashMap::new();
    for entry in code.layout.entries() {
        let mut values = Vec::with_capacity(entry.len as usize);
        for i in 0..entry.len {
            let v = machine
                .peek(&entry.sym, i, code)
                .ok_or_else(|| SimError::UnplacedSymbol(format!("{}[{i}]", entry.sym)))?;
            values.push(v);
        }
        outputs.insert(entry.sym.clone(), values);
    }
    Ok((outputs, result))
}

fn matching_end(code: &Code, start: usize) -> Result<usize, SimError> {
    let mut depth = 0i32;
    for (i, insn) in code.insns.iter().enumerate().skip(start) {
        match insn.kind {
            InsnKind::LoopStart { .. } => depth += 1,
            InsnKind::LoopEnd => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i);
                }
            }
            _ => {}
        }
    }
    Err(SimError::Structure(StructureError::NoMatchingLoopEnd { index: start }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::BinOp;
    use record_isa::SemExpr;

    fn t() -> TargetDesc {
        record_isa::targets::tic25::target()
    }

    fn mem(name: &str) -> Loc {
        Loc::Mem(MemLoc::scalar(name))
    }

    fn code_with_layout(syms: &[(&str, u32)]) -> Code {
        let mut code = Code::default();
        let mut addr = 0u16;
        for (s, len) in syms {
            code.layout.place(Symbol::new(*s), addr, *len, Bank::X);
            addr += *len as u16;
        }
        code
    }

    #[test]
    fn computes_and_counts_cycles() {
        let target = t();
        let mut code = code_with_layout(&[("x", 1), ("y", 1), ("z", 1)]);
        code.insns.push(Insn::compute(
            mem("z"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("x")), SemExpr::loc(mem("y"))),
            "ADDM",
            1,
            2,
        ));
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("x"), vec![20]), (Symbol::new("y"), vec![22])].into_iter().collect();
        let (out, result) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("z")], vec![42]);
        assert_eq!(result.cycles, 2);
        assert_eq!(result.insns, 1);
    }

    #[test]
    fn loops_iterate_with_counter_resolution() {
        let target = t();
        let mut code = code_with_layout(&[("a", 4), ("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP 4",
            2,
            2,
        ));
        let a_i = MemLoc {
            base: Symbol::new("a"),
            disp: 0,
            index: Some(Symbol::new("i")),
            down: false,
            bank: Bank::X,
            mode: AddrMode::Unresolved,
        };
        code.insns.push(Insn::compute(
            mem("y"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("y")), SemExpr::loc(Loc::Mem(a_i))),
            "ACCUM",
            1,
            1,
        ));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![1, 2, 3, 4])].into_iter().collect();
        let (out, result) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![10]);
        // 2 (init) + 4*(1+3) = 18 cycles
        assert_eq!(result.cycles, 18);
    }

    #[test]
    fn indirect_post_increment_walks_memory() {
        let target = t();
        let mut code = code_with_layout(&[("a", 3), ("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::ArLoad { ar: 0, base: Symbol::new("a"), disp: 0 },
            "LRLK AR0,#a",
            2,
            2,
        ));
        let walk = MemLoc {
            base: Symbol::new("a"),
            disp: 0,
            index: None,
            down: false,
            bank: Bank::X,
            mode: AddrMode::Indirect { ar: 0, post: 1 },
        };
        code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 3 }, "RPTK 3", 1, 1));
        code.insns.push(Insn::compute(
            mem("y"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("y")), SemExpr::loc(Loc::Mem(walk))),
            "ADD *+",
            1,
            1,
        ));
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![5, 6, 7])].into_iter().collect();
        let (out, result) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![18]);
        assert_eq!(result.cycles, 2 + 1 + 3);
    }

    #[test]
    fn parallel_bundle_reads_before_writes() {
        // swap x and y in one bundle: only correct with read-before-write
        let target = t();
        let mut code = code_with_layout(&[("x", 1), ("y", 1)]);
        let mut main = Insn::mov(mem("x"), mem("y"), "MOV x,y", 1, 1);
        main.parallel.push(Insn::mov(mem("y"), mem("x"), "MOV y,x", 0, 0));
        code.insns.push(main);
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("x"), vec![1]), (Symbol::new("y"), vec![2])].into_iter().collect();
        let (out, _) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("x")], vec![2]);
        assert_eq!(out[&Symbol::new("y")], vec![1]);
    }

    #[test]
    fn saturation_mode_affects_mode_sensitive_insns() {
        let target = t();
        let mut code = code_with_layout(&[("x", 1), ("y", 1), ("z", 1)]);
        code.insns.push(Insn::ctrl(InsnKind::SetMode { mode: 0, on: true }, "SOVM", 1, 1));
        let mut add = Insn::compute(
            mem("z"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("x")), SemExpr::loc(mem("y"))),
            "ADD",
            1,
            1,
        );
        add.mode_sensitive = true;
        code.insns.push(add.clone());
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("x"), vec![30000]), (Symbol::new("y"), vec![10000])]
                .into_iter()
                .collect();
        let (out, _) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("z")], vec![32767], "saturated");

        // without SOVM the same instruction wraps
        let mut code2 = code_with_layout(&[("x", 1), ("y", 1), ("z", 1)]);
        code2.insns.push(add);
        let (out2, _) = run_program(&code2, &target, &inputs).unwrap();
        assert_eq!(out2[&Symbol::new("z")], vec![record_ir::ops::wrap_to_width(40000, 16)]);
    }

    #[test]
    fn zero_trip_loops_are_skipped() {
        let target = t();
        let mut code = code_with_layout(&[("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 0 },
            "LOOP 0",
            2,
            2,
        ));
        code.insns.push(Insn::mov(mem("y"), Loc::Imm(9), "MOV", 1, 1));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        let (out, _) = run_program(&code, &target, &HashMap::new()).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![0]);
    }

    #[test]
    fn nested_loops_multiply() {
        let target = t();
        let mut code = code_with_layout(&[("y", 1)]);
        for v in ["i", "j"] {
            code.insns.push(Insn::ctrl(
                InsnKind::LoopStart { var: Symbol::new(v), count: 3 },
                "LOOP 3",
                2,
                2,
            ));
        }
        code.insns.push(Insn::compute(
            mem("y"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("y")), SemExpr::loc(Loc::Imm(1))),
            "INC",
            1,
            1,
        ));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        let (out, _) = run_program(&code, &target, &HashMap::new()).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![9]);
    }

    #[test]
    fn step_limit_guards_runaway() {
        let target = t();
        let mut code = code_with_layout(&[("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 1000 },
            "LOOP",
            2,
            2,
        ));
        code.insns.push(Insn::nop());
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        let mut m = Machine::new(&target).with_max_steps(100);
        assert_eq!(m.run(&code), Err(SimError::StepLimit));
    }

    #[test]
    fn unplaced_symbol_reported() {
        let target = t();
        let mut code = Code::default();
        code.insns.push(Insn::mov(mem("y"), Loc::Imm(1), "MOV", 1, 1));
        let mut m = Machine::new(&target);
        assert!(matches!(m.run(&code), Err(SimError::UnplacedSymbol(_))));
    }

    #[test]
    fn setmode_on_undeclared_mode_is_an_error_not_a_panic() {
        // a target with no modes at all
        let target = record_isa::targets::simple_risc::target(8);
        assert!(target.modes.is_empty());
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(InsnKind::SetMode { mode: 0, on: true }, "SOVM", 1, 1));
        let mut m = Machine::new(&target);
        assert!(matches!(m.run(&code), Err(SimError::Structure(_))));
        // out-of-range mode index on a target that does have modes
        let target2 = t();
        let mut code2 = Code::default();
        code2.insns.push(Insn::ctrl(
            InsnKind::SetMode { mode: target2.modes.len(), on: true },
            "S??",
            1,
            1,
        ));
        let mut m2 = Machine::new(&target2);
        assert!(matches!(m2.run(&code2), Err(SimError::Structure(_))));
    }

    #[test]
    fn mode_accessor_tolerates_bad_index() {
        let target = record_isa::targets::simple_risc::target(8);
        let m = Machine::new(&target);
        assert!(!m.mode(7));
    }

    #[test]
    fn unreadable_outputs_are_an_error_not_zeros() {
        let target = t();
        let mut code = Code::default();
        // placed beyond the end of bank memory: nothing can read it back
        let far = target.memory.words_per_bank;
        code.layout.place(Symbol::new("ghost"), far + 100, 1, Bank::X);
        let err = run_program(&code, &target, &HashMap::new()).unwrap_err();
        assert!(matches!(err, SimError::UnplacedSymbol(ref s) if s.contains("ghost")), "{err:?}");
    }

    #[test]
    fn register_reads_default_to_zero() {
        let target = t();
        let m = Machine::new(&target);
        let acc = record_isa::RegId::singleton(target.reg_class("acc").unwrap());
        assert_eq!(m.reg(acc), 0);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let target = t();
        let words = target.memory.words_per_bank;
        let high = words - 1;
        let mut code = code_with_layout(&[("x", 1), ("y", 1)]);
        code.layout.place(Symbol::new("hx"), high, 1, Bank::X);
        code.layout.place(Symbol::new("hy"), high, 1, Bank::Y);
        for (c, class) in target.reg_classes.iter().enumerate() {
            for ix in 0..class.count {
                let r = RegId::new(record_isa::RegClassId(c as u16), ix);
                code.insns.push(Insn::mov(Loc::Reg(r), mem("x"), "LD", 1, 1));
            }
        }
        code.insns.push(Insn::ctrl(
            InsnKind::ArLoad { ar: 1, base: Symbol::new("hx"), disp: 0 },
            "LRLK",
            2,
            2,
        ));
        let flipped = !target.modes[0].default_on;
        code.insns.push(Insn::ctrl(InsnKind::SetMode { mode: 0, on: flipped }, "SOVM", 1, 1));
        code.insns.push(Insn::mov(mem("y"), mem("x"), "MOV y,x", 1, 1));

        let mut m = Machine::new(&target);
        for (sym, v) in [("x", 5), ("hx", 6), ("hy", 7)] {
            m.poke(&Symbol::new(sym), 0, v, &code).unwrap();
        }
        m.run(&code).unwrap();
        // the program really dirtied every kind of state
        assert_eq!(m.peek(&Symbol::new("y"), 0, &code), Some(5));
        assert_eq!(m.peek(&Symbol::new("hy"), 0, &code), Some(7));
        assert_eq!(m.ars[1], high as i64);
        assert_eq!(m.mode(0), flipped);

        m.reset();
        let fresh = Machine::new(&target);
        for (c, class) in target.reg_classes.iter().enumerate() {
            for ix in 0..class.count {
                let r = RegId::new(record_isa::RegClassId(c as u16), ix);
                assert_eq!(m.reg(r), fresh.reg(r), "{r:?}");
            }
        }
        assert_eq!(m.ars, fresh.ars);
        for mode in 0..target.modes.len() {
            assert_eq!(m.mode(mode), fresh.mode(mode), "mode {mode}");
        }
        let mut whole = Code::default();
        whole.layout.place(Symbol::new("bx"), 0, words.into(), Bank::X);
        whole.layout.place(Symbol::new("by"), 0, words.into(), Bank::Y);
        for bank in ["bx", "by"] {
            let sym = Symbol::new(bank);
            for ix in 0..u32::from(words) {
                assert_eq!(m.peek(&sym, ix, &whole), fresh.peek(&sym, ix, &whole), "{bank}[{ix}]");
            }
        }
    }

    #[test]
    fn rpt_over_ar_add_advances() {
        let target = t();
        let mut code = code_with_layout(&[("a", 4)]);
        code.insns.push(Insn::ctrl(
            InsnKind::ArLoad { ar: 1, base: Symbol::new("a"), disp: 0 },
            "LRLK",
            2,
            2,
        ));
        code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 3 }, "RPTK 3", 1, 1));
        code.insns.push(Insn::ctrl(InsnKind::ArAdd { ar: 1, delta: 2 }, "ADRK", 1, 1));
        let mut m = Machine::new(&target);
        m.run(&code).unwrap();
        assert_eq!(m.ars[1], 6);
    }
}
