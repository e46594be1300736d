//! Instruction selection: from covers to concrete instructions.
//!
//! The [`Emitter`] owns the generated matcher and turns each assignment
//! into machine instructions:
//!
//! 1. enumerate algebraic variants of the right-hand-side tree
//!    ([`record_ir::transform`]),
//! 2. match every variant against every store candidate and keep the
//!    cheapest total cover — "the tree requiring the smallest number of
//!    covering patterns is then selected",
//! 3. walk the winning cover bottom-up, allocating registers for
//!    multi-member classes and scratch memory words for spill chains, and
//!    emit instructions in each rule's operand evaluation order.
//!
//! Register allocation here is the *tree-parsing* style for heterogeneous
//! register sets: the BURS nonterminals already decided which class each
//! value lives in; the emitter only picks member indices.

use std::sync::Arc;

use record_burg::{CoverNode, CutSet, LabelCache, Matcher, Operand, Tables, SHARED_RULE};
use record_ir::transform::{variants, RuleSet, VariantStream};
use record_ir::{AssignStmt, BlockDag, Symbol, Tree, TreePool};
use record_isa::{
    Cost, Insn, InsnKind, Loc, MemLoc, NonTermId, NonTermKind, PatNode, RegId, Rhs, SemExpr,
    TargetDesc,
};

use crate::timing::{counter_struct, select_counters, SelectCounters};
use crate::CompileError;

select_counters!(counter_struct! {
    /// Selection statistics of a statement, a block or a whole pass
    /// (summed with [`SelectCounters::add_counters`]). Every counter is
    /// exact and platform-independent; `tests/golden/bench_baseline.json`
    /// pins them per DSPStone kernel.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SelectStats {}
});

/// The resource caps selection checks once per statement (see
/// [`Emitter::emit_statements`]). The default checks nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelectBudget<'b> {
    /// Charged with each statement's variant count (at least one step),
    /// so its wall-clock deadline is polled between statements.
    pub search: Option<&'b record_opt::SearchBudget>,
    /// Cap on the variants enumerated across the whole pass (resource
    /// `"variants"`). The statement that crosses it is the last one
    /// selected, and it enumerates at most one variant past the cap.
    pub max_variants: Option<usize>,
}

impl SelectBudget<'_> {
    /// The variant limit for the next statement when `spent` variants
    /// were enumerated before it: stop enumerating one past the cap,
    /// where the check after the statement fires anyway.
    fn limit(&self, variant_limit: usize, spent: u64) -> usize {
        match self.max_variants {
            Some(cap) => variant_limit.min(cap.saturating_sub(spent as usize) + 1),
            None => variant_limit,
        }
    }

    /// Charges one selected statement that enumerated `variants`, with
    /// `spent` variants enumerated in the pass so far (this statement's
    /// included).
    fn charge(&self, variants: u64, spent: u64) -> Result<(), CompileError> {
        let exceeded = |resource: &str| CompileError::Budget {
            pass: "select".into(),
            resource: resource.to_string(),
        };
        if let Some(search) = self.search {
            search.charge(variants.max(1)).map_err(|e| exceeded(e.resource))?;
        }
        if self.max_variants.is_some_and(|cap| spent > cap as u64) {
            return Err(exceeded("variants"));
        }
        Ok(())
    }
}

/// The instruction selector for one target.
pub struct Emitter<'t> {
    target: &'t TargetDesc,
    matcher: Matcher<'t>,
    /// Hash-consing arena the variant stream enumerates into; persists
    /// across statements so shared subtrees dedup program-wide.
    pool: TreePool,
    /// Memoized label states keyed by interned tree id (one grammar, one
    /// pool — both fixed for this emitter's lifetime).
    label_cache: LabelCache,
    /// Store candidates, hoisted out of the per-statement loop: the
    /// target's store rules are immutable for the emitter's lifetime.
    candidates: Vec<(NonTermId, Cost)>,
    /// Use the boxed (non-interned) selection path. Slower but
    /// independent of the interning machinery; the golden byte-
    /// equivalence test pins the two paths against each other.
    reference: bool,
    /// Graceful cap on cumulative enumeration work (candidate rewrites
    /// generated): when exceeded, statements stop enumerating further
    /// variants instead of failing — selection is mandatory.
    step_cap: Option<u64>,
    steps_used: u64,
    /// Scratch memory words allocated for spill chains, reused across
    /// statements.
    scratch_pool: Vec<Symbol>,
    scratch_free: Vec<Symbol>,
    /// Per-class register occupancy (multi-member classes only).
    reg_used: Vec<Vec<bool>>,
    /// Per-class rotating allocation cursor. Round-robin allocation
    /// spreads consecutive values across class members, which gives the
    /// parallel-move scheduler independent registers to bundle.
    reg_cursor: Vec<u16>,
    /// Registers holding block-shared (DAG-cut) values: marked used for
    /// the rest of the block and exempt from per-statement release.
    held: Vec<Loc>,
    /// Location of each shared value, indexed by cut slot.
    shared_locs: Vec<Option<Loc>>,
}

impl<'t> Emitter<'t> {
    /// Generates the matcher and prepares the allocators.
    pub fn new(target: &'t TargetDesc) -> Self {
        Self::with_tables(target, Arc::new(Tables::build(target)))
    }

    /// Like [`Emitter::new`] but reuses already-generated matcher tables
    /// (see [`record_burg::Tables`]) instead of regenerating them.
    pub fn with_tables(target: &'t TargetDesc, tables: Arc<Tables>) -> Self {
        let reg_used = target.reg_classes.iter().map(|c| vec![false; c.count as usize]).collect();
        let reg_cursor = vec![0u16; target.reg_classes.len()];
        Emitter {
            target,
            matcher: Matcher::with_tables(target, tables),
            pool: TreePool::new(),
            label_cache: LabelCache::new(),
            candidates: target.stores.iter().map(|s| (s.nt, s.cost)).collect(),
            reference: false,
            step_cap: None,
            steps_used: 0,
            scratch_pool: Vec::new(),
            scratch_free: Vec::new(),
            reg_used,
            reg_cursor,
            held: Vec::new(),
            shared_locs: Vec::new(),
        }
    }

    /// Switches to the boxed (pre-interning) selection path. Used by the
    /// reference pass and the byte-equivalence tests.
    pub fn set_reference(&mut self, on: bool) {
        self.reference = on;
    }

    /// Caps cumulative enumeration work (candidate rewrites generated
    /// across statements). Exceeding the cap degrades gracefully: later
    /// statements consider fewer variants but still compile.
    pub fn set_search_cap(&mut self, cap: Option<u64>) {
        self.step_cap = cap;
    }

    /// The hash-consing pool (diagnostics and benches).
    pub fn pool(&self) -> &TreePool {
        &self.pool
    }

    /// The label memo cache (diagnostics and benches).
    pub fn label_cache(&self) -> &LabelCache {
        &self.label_cache
    }

    /// The scratch symbols allocated so far (each one data word); the
    /// pipeline adds them to the layout.
    pub fn scratch_symbols(&self) -> &[Symbol] {
        &self.scratch_pool
    }

    /// The matcher (for diagnostics and benches).
    pub fn matcher(&self) -> &Matcher<'t> {
        &self.matcher
    }

    /// Selects and emits one assignment.
    ///
    /// `rules`/`variant_limit` control the algebraic enumeration.
    ///
    /// # Errors
    ///
    /// [`CompileError::Uncoverable`] when no variant derives to any store
    /// candidate; [`CompileError::OutOfRegisters`] when a class runs dry.
    pub fn emit_assign(
        &mut self,
        stmt: &AssignStmt,
        rules: &RuleSet,
        variant_limit: usize,
    ) -> Result<(Vec<Insn>, SelectStats), CompileError> {
        let mut total_stats = SelectStats::default();
        let mut out = Vec::new();
        // Worklist of statements; a statement whose emitted code fails
        // verification is split at an operand boundary and re-tried.
        let mut work: Vec<AssignStmt> = vec![stmt.clone()];
        while let Some(cur) = work.pop() {
            let (insns, stats) = self.emit_one(&cur, rules, variant_limit)?;
            total_stats.add_counters(&stats);
            if self.verify_statement(&cur, &insns) {
                out.extend(insns);
                continue;
            }
            // Clobber hazard: the cover routed two values through the same
            // special register in a conflicting order. Split one non-leaf
            // operand into an explicit memory temporary and retry — each
            // split strictly shrinks the tree, so this terminates.
            let Some((first, second)) = self.split_statement(&cur) else {
                return Err(CompileError::Target(crate::TargetError::Unsplittable {
                    stmt: cur.to_string(),
                }));
            };
            // process `first` next, then re-attempt `second` (LIFO order)
            work.push(second);
            work.push(first);
        }
        self.scratch_free = self.scratch_pool.clone();
        Ok((out, total_stats))
    }

    /// Selects and emits each statement of a block on its own, adding the
    /// selection counters into `stats` and checking `budget` after every
    /// statement. Returns one instruction run per statement.
    ///
    /// # Errors
    ///
    /// As [`emit_assign`](Self::emit_assign), plus
    /// [`CompileError::Budget`] once `budget` is exhausted.
    pub fn emit_statements(
        &mut self,
        stmts: &[AssignStmt],
        rules: &RuleSet,
        variant_limit: usize,
        budget: &SelectBudget<'_>,
        stats: &mut SelectStats,
    ) -> Result<Vec<Vec<Insn>>, CompileError> {
        let mut runs = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            let limit = budget.limit(variant_limit, stats.variants);
            let (insns, one) = self.emit_assign(stmt, rules, limit)?;
            stats.add_counters(&one);
            budget.charge(one.variants, stats.variants)?;
            runs.push(insns);
        }
        Ok(runs)
    }

    /// Selects and emits a whole basic block as a DAG: soundly repeated
    /// subtrees (see [`BlockDag`]) may be computed once into a parked
    /// register and referenced by every consumer statement.
    ///
    /// The method is a strict refinement of per-statement selection:
    ///
    /// 1. **Baseline** — every statement is first emitted through
    ///    [`emit_statements`](Self::emit_statements) (verified,
    ///    variant-optimized, `budget` checked per statement).
    /// 2. **Analysis** — [`BlockDag::build`] reports the multi-use values
    ///    that are sound to share (no intervening store to memory they
    ///    read).
    /// 3. **Costing** — per candidate and per eligible register
    ///    nonterminal, `cost(share) = select_once + copies` is compared
    ///    against `cost(recompute) × uses`: the candidate is accepted only
    ///    when computing it once and covering each consumer with the
    ///    parked register (a [`SHARED_RULE`] cut) beats the consumers'
    ///    current best weights by more than the definition costs.
    /// 4. **Emission** — definitions are placed immediately before their
    ///    first consumer; each consumer takes the cut cover only when it
    ///    is strictly cheaper than its baseline and the combined code
    ///    passes simulator verification. Any failure (verification,
    ///    register pressure) falls back to the baseline for the whole
    ///    block, so DAG covering never produces worse or unverified code.
    ///
    /// Only multi-member register classes are eligible parking spots: a
    /// singleton class (accumulator-style machines) cannot hold a value
    /// across statements without being clobbered. The selection counters
    /// are added into `stats`.
    ///
    /// # Errors
    ///
    /// As [`emit_statements`](Self::emit_statements).
    pub fn emit_block(
        &mut self,
        stmts: &[AssignStmt],
        rules: &RuleSet,
        variant_limit: usize,
        budget: &SelectBudget<'_>,
        stats: &mut SelectStats,
    ) -> Result<Vec<Insn>, CompileError> {
        // Stage A: verified per-statement baseline (also the fallback).
        let baseline = self.emit_statements(stmts, rules, variant_limit, budget, stats)?;
        let flatten =
            |b: &[Vec<Insn>]| b.iter().flat_map(|v| v.iter().cloned()).collect::<Vec<Insn>>();

        // Stage B: DAG analysis.
        let pool_len0 = self.pool.len() as u64;
        let dedup0 = self.pool.dedup_hits();
        let dag = BlockDag::build(&mut self.pool, stmts);
        stats.interned_nodes += self.pool.len() as u64 - pool_len0;
        stats.dedup_hits += self.pool.dedup_hits() - dedup0;
        stats.shared_subtrees += dag.shared.len() as u64;
        if dag.shared.is_empty() {
            return Ok(flatten(&baseline));
        }

        // Eligible parking spots: multi-member register classes.
        let park_nts: Vec<(NonTermId, u16)> = self
            .target
            .nonterms
            .iter()
            .enumerate()
            .filter_map(|(ix, nt)| match nt.kind {
                NonTermKind::Reg(class) if !self.target.class(class).is_singleton() => {
                    Some((NonTermId(ix as u16), self.target.class(class).count))
                }
                _ => None,
            })
            .collect();
        if park_nts.is_empty() {
            stats.recomputes_chosen += dag.shared.len() as u64;
            return Ok(flatten(&baseline));
        }

        // Stage C: greedy cut acceptance under the share-vs-recompute
        // cost model. `current[s]` is the statement's best known weight.
        let mut current: Vec<u64> = baseline.iter().map(|b| insns_weight(b)).collect();
        let mut accepted: Vec<(usize, NonTermId)> = Vec::new(); // (candidate ix, parked nt)
        for (cand_ix, cand) in dag.shared.iter().enumerate() {
            // best parking choice: (gain, nonterminal, per-use new weights)
            type ParkChoice = (i128, NonTermId, Vec<(usize, u64)>);
            let mut best: Option<ParkChoice> = None;
            for &(nt, class_count) in &park_nts {
                // leave at least one class member free for per-statement
                // temporaries; fallback still guards the hard limit
                let parked_here = accepted.iter().filter(|(_, n)| *n == nt).count();
                if parked_here + 1 >= class_count as usize {
                    continue;
                }
                // computing the value once into `nt` (plain labels, so the
                // persistent memo cache is sound here)
                let hits0 = self.label_cache.hits();
                let misses0 = self.label_cache.misses();
                let def_cost = self
                    .matcher
                    .label_interned(&self.pool, cand.id, &mut self.label_cache)
                    .cost(nt);
                stats.labels_memoized += self.label_cache.hits() - hits0;
                stats.labels_computed += self.label_cache.misses() - misses0;
                let Some(def_cost) = def_cost else { continue };
                let mut gain: i128 = -i128::from(def_cost.weight());
                let mut improved: Vec<(usize, u64)> = Vec::new();
                for &s in &cand.uses {
                    // trial cut set: this candidate plus every accepted cut
                    // that is sound in statement `s`
                    let mut trial = cuts_for_stmt(&dag, &accepted, s);
                    trial.insert(cand.id, (accepted.len(), nt));
                    let mut tcache = LabelCache::new();
                    let w = self
                        .matcher
                        .best_cover_interned_cut(
                            &self.pool,
                            dag.roots[s],
                            &mut tcache,
                            &self.candidates,
                            &trial,
                        )
                        .map(|(store_nt, cover)| {
                            cover.cost.add(self.store_cost(store_nt)).weight()
                        });
                    stats.labels_computed += tcache.misses();
                    stats.labels_memoized += tcache.hits();
                    if let Some(w) = w {
                        if w < current[s] {
                            gain += i128::from(current[s] - w);
                            improved.push((s, w));
                        }
                    }
                }
                let better = match &best {
                    None => gain > 0,
                    Some((g, ..)) => gain > *g,
                };
                if better {
                    best = Some((gain, nt, improved));
                }
            }
            match best {
                Some((_, nt, improved)) => {
                    for (s, w) in improved {
                        current[s] = current[s].min(w);
                    }
                    accepted.push((cand_ix, nt));
                }
                None => stats.recomputes_chosen += 1,
            }
        }
        if accepted.is_empty() {
            return Ok(flatten(&baseline));
        }

        // Stage D: emit with cuts, falling back to the verified baseline
        // on any failure (allocator state is snapshotted around the try).
        let snap_used = self.reg_used.clone();
        let snap_cursor = self.reg_cursor.clone();
        let snap_pool = self.scratch_pool.clone();
        let snap_free = self.scratch_free.clone();
        let attempt =
            self.emit_block_cuts(stmts, &dag, &accepted, &baseline, rules, variant_limit, stats);
        self.release_held();
        match attempt {
            Ok(Some(out)) => {
                stats.shares_taken += accepted.len() as u64;
                Ok(out)
            }
            Ok(None) | Err(_) => {
                self.reg_used = snap_used;
                self.reg_cursor = snap_cursor;
                self.scratch_pool = snap_pool;
                self.scratch_free = snap_free;
                stats.recomputes_chosen += accepted.len() as u64;
                Ok(flatten(&baseline))
            }
        }
    }

    /// The emission half of [`emit_block`](Self::emit_block): walks the
    /// block once, placing each accepted definition immediately before
    /// its first consumer and choosing per statement between the cut
    /// cover and a plain re-emission. Returns `Ok(None)` when a cut
    /// statement fails simulator verification (caller falls back).
    #[allow(clippy::too_many_arguments)]
    fn emit_block_cuts(
        &mut self,
        stmts: &[AssignStmt],
        dag: &BlockDag,
        accepted: &[(usize, NonTermId)],
        baseline: &[Vec<Insn>],
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Result<Option<Vec<Insn>>, CompileError> {
        self.shared_locs = vec![None; accepted.len()];
        self.held.clear();
        let mut out: Vec<Insn> = Vec::new();
        // every definition emitted so far: prepended to verification
        // probes so cut statements run with their inputs parked
        let mut def_insns: Vec<Insn> = Vec::new();
        for (s, stmt) in stmts.iter().enumerate() {
            // definitions whose first consumer is this statement
            for (slot, &(cand_ix, nt)) in accepted.iter().enumerate() {
                let cand = &dag.shared[cand_ix];
                if cand.first_use() != s {
                    continue;
                }
                let hits0 = self.label_cache.hits();
                let misses0 = self.label_cache.misses();
                let cover =
                    self.matcher.cover_interned(&self.pool, cand.id, &mut self.label_cache, nt);
                stats.labels_memoized += self.label_cache.hits() - hits0;
                stats.labels_computed += self.label_cache.misses() - misses0;
                let Some(cover) = cover else { return Ok(None) };
                let mut insns = Vec::new();
                let loc = self.emit_cover(&cover.root, &mut insns, &format!("$dag{slot}"))?;
                self.held.push(loc.clone());
                self.shared_locs[slot] = Some(loc);
                def_insns.extend(insns.iter().cloned());
                out.extend(insns);
            }

            // cut cover vs plain re-emission for the statement itself
            let cuts = cuts_for_stmt(dag, accepted, s);
            let mut chosen: Option<Vec<Insn>> = None;
            if !cuts.is_empty() {
                let mut tcache = LabelCache::new();
                let best = self.matcher.best_cover_interned_cut(
                    &self.pool,
                    dag.roots[s],
                    &mut tcache,
                    &self.candidates,
                    &cuts,
                );
                stats.labels_computed += tcache.misses();
                stats.labels_memoized += tcache.hits();
                if let Some((store_nt, cover)) = best {
                    let total = cover.cost.add(self.store_cost(store_nt)).weight();
                    if total < insns_weight(&baseline[s]) {
                        let store_ix = self
                            .target
                            .stores
                            .iter()
                            .position(|st| st.nt == store_nt)
                            .expect("candidate came from stores");
                        let mut insns = Vec::new();
                        let value = self.emit_cover(&cover.root, &mut insns, &stmt.to_string())?;
                        let store = &self.target.stores[store_ix];
                        let dst = MemLoc::from_mem_ref(&stmt.dst);
                        let text = store
                            .asm
                            .replace("{d}", &dst.to_string())
                            .replace("{0}", &self.loc_text(&value));
                        let mut insn = Insn::compute(
                            Loc::Mem(dst),
                            SemExpr::Loc(value.clone()),
                            text,
                            store.cost.words,
                            store.cost.cycles,
                        );
                        insn.units = store.units;
                        insns.push(insn);
                        self.release(&value);
                        // the probe must include the definitions: the cut
                        // statement reads registers they populate
                        let mut probe = def_insns.clone();
                        probe.extend(insns.iter().cloned());
                        if !self.verify_statement(stmt, &probe) {
                            return Ok(None);
                        }
                        chosen = Some(insns);
                    }
                }
            }
            match chosen {
                Some(insns) => out.extend(insns),
                None if self.held.is_empty() => {
                    // no definition emitted yet: the baseline's register
                    // choices are still valid verbatim
                    out.extend(baseline[s].iter().cloned());
                }
                None => {
                    // re-emit from scratch: the baseline may have used a
                    // register that now holds a parked value
                    let (insns, st) = self.emit_assign(stmt, rules, variant_limit)?;
                    stats.add_counters(&st);
                    out.extend(insns);
                }
            }
            self.scratch_free = self.scratch_pool.clone();
        }
        Ok(Some(out))
    }

    /// The store cost for a candidate nonterminal (candidates always come
    /// from the target's store table).
    fn store_cost(&self, nt: NonTermId) -> Cost {
        self.target
            .stores
            .iter()
            .find(|s| s.nt == nt)
            .map(|s| s.cost)
            .expect("candidate came from stores")
    }

    /// Splits `dst := f(..., subtree, ...)` into
    /// `$sN := subtree; dst := f(..., Temp($sN), ...)`, choosing the first
    /// non-leaf operand of the root.
    fn split_statement(&mut self, stmt: &AssignStmt) -> Option<(AssignStmt, AssignStmt)> {
        enum Shape {
            Bin(record_ir::BinOp),
            Un(record_ir::UnOp),
        }
        let (op_trees, shape): (Vec<Tree>, Shape) = match &stmt.src {
            Tree::Bin(op, a, b) => (vec![(**a).clone(), (**b).clone()], Shape::Bin(*op)),
            Tree::Un(op, a) => (vec![(**a).clone()], Shape::Un(*op)),
            _ => return None,
        };
        // prefer a computed operand; a constant leaf can also clobber
        // (it may route through the accumulator on its way to memory),
        // while memory leaves are always safe to read in place
        let split_ix = op_trees
            .iter()
            .position(|t| !t.is_leaf())
            .or_else(|| op_trees.iter().position(|t| matches!(t, Tree::Const(_))))?;
        // a dedicated, never-recycled cell (it lives across two statements)
        let name = Symbol::new(format!("$s{}", self.scratch_pool.len()));
        self.scratch_pool.push(name.clone());
        let first = AssignStmt {
            dst: record_ir::MemRef::Scalar(name.clone()),
            src: op_trees[split_ix].clone(),
        };
        let mut kids = op_trees;
        kids[split_ix] = Tree::Temp(name);
        let src = match shape {
            Shape::Bin(op) => Tree::bin(op, kids[0].clone(), kids[1].clone()),
            Shape::Un(op) => Tree::un(op, kids[0].clone()),
        };
        let second = AssignStmt { dst: stmt.dst.clone(), src };
        Some((first, second))
    }

    /// Executes the emitted instructions on the simulator with
    /// pseudo-random operand values and compares the destination against
    /// the tree's reference evaluation. Returns `true` when they agree on
    /// every probe.
    fn verify_statement(&self, stmt: &AssignStmt, insns: &[Insn]) -> bool {
        use std::collections::HashMap;
        // Collect every symbol the statement and its code touch.
        let mut lens: HashMap<Symbol, i64> = HashMap::new();
        let mut index_vars: Vec<Symbol> = Vec::new();
        {
            let mut note = |base: &Symbol, disp: i64| {
                let e = lens.entry(base.clone()).or_insert(1);
                *e = (*e).max(disp.abs() + 1);
            };
            for insn in insns {
                if let InsnKind::Compute { dst, expr } = &insn.kind {
                    for l in expr.reads().into_iter().chain(std::iter::once(dst)) {
                        if let Loc::Mem(m) = l {
                            note(&m.base, m.disp);
                            if let Some(v) = &m.index {
                                if !index_vars.contains(v) {
                                    index_vars.push(v.clone());
                                }
                            }
                        }
                    }
                }
            }
            let dst_loc = MemLoc::from_mem_ref(&stmt.dst);
            note(&dst_loc.base, dst_loc.disp);
        }
        let dst_loc = MemLoc::from_mem_ref(&stmt.dst);

        for seed in [0x5EED_u64, 0xBEEF, 0x1234_5678, 0xFEED_F00D] {
            // deterministic, bit-rich per-symbol-element values: full-width
            // patterns make value coincidences (a clobbered computation
            // accidentally matching the reference) vanishingly unlikely
            let width = self.target.word_width;
            let value_of = move |sym: &Symbol, ix: i64| -> i64 {
                let mut h = seed;
                for b in sym.as_str().bytes() {
                    h = h.wrapping_mul(1099511628211).wrapping_add(b as u64);
                }
                h = h.wrapping_mul(1099511628211).wrapping_add(ix as u64);
                // splitmix64 finalizer: every input bit reaches every
                // output bit, so distinct symbols get unrelated values
                h ^= h >> 30;
                h = h.wrapping_mul(0xbf58476d1ce4e5b9);
                h ^= h >> 27;
                h = h.wrapping_mul(0x94d049bb133111eb);
                h ^= h >> 31;
                record_ir::ops::wrap_to_width(h as i64, width)
            };

            // reference evaluation (index vars are 0 under the probe loop)
            let mut read_mem = |r: &record_ir::MemRef| {
                let m = MemLoc::from_mem_ref(r);
                value_of(&m.base, m.disp)
            };
            let mut read_temp = |s: &Symbol| value_of(s, 0);
            let expect = stmt.src.eval(self.target.word_width, &mut read_mem, &mut read_temp);

            // build the probe program
            let mut code = record_isa::Code {
                insns: Vec::new(),
                layout: Default::default(),
                target: self.target.name.clone(),
                name: "verify".into(),
            };
            let mut addr = 0u16;
            let mut placed: Vec<(&Symbol, i64)> = lens.iter().map(|(k, v)| (k, *v)).collect();
            placed.sort();
            for (sym, len) in &placed {
                code.layout.place((*sym).clone(), addr, *len as u32, record_ir::Bank::X);
                addr += *len as u16;
            }
            for v in &index_vars {
                code.insns.push(Insn::ctrl(
                    InsnKind::LoopStart { var: v.clone(), count: 1 },
                    "probe-loop",
                    0,
                    0,
                ));
            }
            code.insns.extend(insns.iter().cloned());
            for _ in &index_vars {
                code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "probe-end", 0, 0));
            }
            record_opt::insert_mode_changes(&mut code, self.target, record_opt::ModeStrategy::Lazy);

            let mut machine = record_sim::Machine::new(self.target);
            for (sym, len) in &placed {
                for ix in 0..*len {
                    if machine.poke(sym, ix as u32, value_of(sym, ix), &code).is_err() {
                        return true; // unplaceable probe: skip verification
                    }
                }
            }
            if machine.run(&code).is_err() {
                return false;
            }
            let got = machine.peek(&dst_loc.base, dst_loc.disp.max(0) as u32, &code);
            if got != Some(record_ir::ops::wrap_to_width(expect, self.target.word_width)) {
                return false;
            }
        }
        true
    }

    /// Emits one statement without the verification/split loop.
    fn emit_one(
        &mut self,
        stmt: &AssignStmt,
        rules: &RuleSet,
        variant_limit: usize,
    ) -> Result<(Vec<Insn>, SelectStats), CompileError> {
        let mut stats = SelectStats::default();
        if self.candidates.is_empty() {
            return Err(CompileError::Target(crate::TargetError::NoStoreRules {
                target: self.target.name.to_string(),
            }));
        }

        let best = if self.reference {
            self.find_best_reference(&stmt.src, rules, variant_limit, &mut stats)
        } else {
            self.find_best_interned(&stmt.src, rules, variant_limit, &mut stats)
        };
        let Some((store_ix, cover)) = best else {
            return Err(CompileError::Uncoverable {
                stmt: stmt.to_string(),
                target: self.target.name.clone(),
            });
        };

        let mut insns = Vec::new();
        let value = self.emit_cover(&cover.root, &mut insns, &stmt.to_string())?;

        // the store
        let store = &self.target.stores[store_ix];
        let dst = MemLoc::from_mem_ref(&stmt.dst);
        let text =
            store.asm.replace("{d}", &dst.to_string()).replace("{0}", &self.loc_text(&value));
        let mut insn = Insn::compute(
            Loc::Mem(dst),
            SemExpr::Loc(value.clone()),
            text,
            store.cost.words,
            store.cost.cycles,
        );
        insn.units = store.units;
        insns.push(insn);
        self.release(&value);
        debug_assert!(
            self.reg_used.iter().enumerate().all(|(class, c)| {
                c.iter().enumerate().all(|(ix, u)| {
                    !u || self.held.iter().any(|h| {
                        matches!(h, Loc::Reg(r)
                            if r.class.0 as usize == class && r.index as usize == ix)
                    })
                })
            }),
            "register leak after statement"
        );
        Ok((insns, stats))
    }

    /// The boxed reference selection loop: materializes every variant up
    /// front and matches each one. Kept verbatim as the semantic anchor
    /// the interned path is pinned against.
    fn find_best_reference(
        &mut self,
        base: &Tree,
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Option<(usize, record_burg::Cover)> {
        let mut best: Option<(Cost, usize, record_burg::Cover)> = None;
        let all = variants(base, rules, variant_limit);
        stats.variants += all.len() as u64;
        for tree in all {
            if let Some((nt, cover)) = self.matcher.best_cover(&tree, &self.candidates) {
                stats.covered += 1;
                let store_ix = self
                    .target
                    .stores
                    .iter()
                    .position(|s| s.nt == nt)
                    .expect("candidate came from stores");
                let total = cover.cost.add(self.target.stores[store_ix].cost);
                let better = match &best {
                    None => true,
                    Some((bc, ..)) => total.weight() < bc.weight(),
                };
                if better {
                    best = Some((total, store_ix, cover));
                }
            }
        }
        best.map(|(_, store_ix, cover)| (store_ix, cover))
    }

    /// The interned selection loop: streams variants lazily out of the
    /// hash-consing pool, memoizes label states per subtree, and stops as
    /// soon as the incumbent cover can no longer be beaten.
    ///
    /// Picks the same cover as [`find_best_reference`](Self::find_best_reference):
    /// the stream yields the identical variant sequence, the interned
    /// matcher mirrors the boxed one, and the early exit fires only when
    /// `best.weight() <= floor` — every unseen variant's total is at
    /// least `floor` (cover cost is non-negative and each total includes
    /// one store), and the strict `<` selection would never replace the
    /// incumbent with an equal-weight cover.
    fn find_best_interned(
        &mut self,
        base: &Tree,
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Option<(usize, record_burg::Cover)> {
        let pool_len0 = self.pool.len() as u64;
        let dedup0 = self.pool.dedup_hits();
        let hits0 = self.label_cache.hits();
        let misses0 = self.label_cache.misses();
        let floor = self.candidates.iter().map(|(_, c)| c.weight()).min()?;

        let mut stream = VariantStream::new(&mut self.pool, base, *rules, variant_limit);
        let mut best: Option<(Cost, usize, record_burg::Cover)> = None;
        while let Some(id) = stream.next(&mut self.pool) {
            stats.variants += 1;
            if let Some((nt, cover)) = self.matcher.best_cover_interned(
                &self.pool,
                id,
                &mut self.label_cache,
                &self.candidates,
            ) {
                stats.covered += 1;
                let store_ix = self
                    .target
                    .stores
                    .iter()
                    .position(|s| s.nt == nt)
                    .expect("candidate came from stores");
                let total = cover.cost.add(self.target.stores[store_ix].cost);
                let better = match &best {
                    None => true,
                    Some((bc, ..)) => total.weight() < bc.weight(),
                };
                if better {
                    best = Some((total, store_ix, cover));
                }
                if best.as_ref().is_some_and(|(bc, ..)| bc.weight() <= floor) {
                    stats.variants_pruned += stream.pending() as u64;
                    break;
                }
            }
            if self.step_cap.is_some_and(|cap| self.steps_used + stream.steps() >= cap) {
                stats.variants_pruned += stream.pending() as u64;
                break;
            }
        }
        self.steps_used += stream.steps();
        stats.search_steps += stream.steps();
        stats.interned_nodes += self.pool.len() as u64 - pool_len0;
        stats.dedup_hits += self.pool.dedup_hits() - dedup0;
        stats.labels_memoized += self.label_cache.hits() - hits0;
        stats.labels_computed += self.label_cache.misses() - misses0;
        best.map(|(_, store_ix, cover)| (store_ix, cover))
    }

    /// Emits the instructions of a cover node; returns the location of
    /// its value.
    fn emit_cover(
        &mut self,
        node: &CoverNode,
        out: &mut Vec<Insn>,
        stmt_text: &str,
    ) -> Result<Loc, CompileError> {
        // A shared-value reference emits nothing: the value already sits
        // in the register the block parked it in.
        if node.rule == SHARED_RULE {
            return Ok(self.operand_loc(&node.operands[0]));
        }
        let rule = self.target.rule(node.rule).clone();

        // Identity (base) rules: a leaf pattern with zero cost just
        // forwards its binding.
        if rule.cost.weight() == 0 {
            if let Rhs::Pat(PatNode::Op(op, _)) = &rule.rhs {
                if op.is_leaf() {
                    return Ok(self.operand_loc(&node.operands[0]));
                }
            }
        }

        // evaluate operands in the rule's order
        let n = node.operands.len();
        let order: Vec<usize> = rule
            .eval_order
            .clone()
            .map(|o| o.iter().map(|i| *i as usize).collect())
            .unwrap_or_else(|| (0..n).collect());
        let mut locs: Vec<Option<Loc>> = vec![None; n];
        for &i in &order {
            let loc = match &node.operands[i] {
                Operand::Derived(child) => self.emit_cover(child, out, stmt_text)?,
                other => self.operand_loc(other),
            };
            locs[i] = Some(loc);
        }
        let locs: Vec<Loc> = locs.into_iter().map(|l| l.expect("all operands visited")).collect();

        // destination for the produced value
        let dst = self.lhs_loc(&rule, stmt_text)?;

        // semantics from the pattern shape
        let expr = match &rule.rhs {
            Rhs::Chain(_) | Rhs::Pat(PatNode::Nt(_)) => SemExpr::Loc(locs[0].clone()),
            Rhs::Pat(pat) => {
                let mut next = 0usize;
                sem_from_pattern(pat, &locs, &mut next)
            }
        };

        // render assembly text
        let mut text = rule.asm.clone();
        text = text.replace("{d}", &self.loc_text(&dst));
        for (i, loc) in locs.iter().enumerate() {
            text = text.replace(&format!("{{{i}}}"), &self.loc_text(loc));
        }

        let mut insn = Insn::compute(dst.clone(), expr, text, rule.cost.words, rule.cost.cycles);
        insn.rule = Some(rule.id);
        insn.units = rule.units;
        insn.mode_sensitive = rule.mode_sensitive;
        insn.mode_req = rule.mode.or_else(|| {
            if rule.mode_sensitive {
                self.target.sat_mode().map(|m| (m, false))
            } else {
                None
            }
        });
        out.push(insn);

        // operands are dead now
        for loc in &locs {
            self.release(loc);
        }
        Ok(dst)
    }

    /// The location a rule's lhs value materializes in.
    fn lhs_loc(&mut self, rule: &record_isa::Rule, stmt_text: &str) -> Result<Loc, CompileError> {
        match self.target.nonterm(rule.lhs).kind {
            NonTermKind::Reg(class) => {
                let decl = self.target.class(class);
                if decl.is_singleton() {
                    return Ok(Loc::Reg(RegId::singleton(class)));
                }
                let count = decl.count;
                let cursor = &mut self.reg_cursor[class.0 as usize];
                let used = &mut self.reg_used[class.0 as usize];
                let mut pick = None;
                for k in 0..count {
                    let ix = ((*cursor + k) % count) as usize;
                    if !used[ix] {
                        pick = Some(ix);
                        break;
                    }
                }
                match pick {
                    Some(ix) => {
                        used[ix] = true;
                        *cursor = (ix as u16 + 1) % count;
                        Ok(Loc::Reg(RegId::new(class, ix as u16)))
                    }
                    None => Err(CompileError::OutOfRegisters {
                        class: decl.name.clone(),
                        stmt: stmt_text.to_string(),
                    }),
                }
            }
            NonTermKind::Mem => {
                // spill chain: allocate a scratch word
                let sym = match self.scratch_free.pop() {
                    Some(s) => s,
                    None => {
                        let s = Symbol::new(format!("$s{}", self.scratch_pool.len()));
                        self.scratch_pool.push(s.clone());
                        s
                    }
                };
                Ok(Loc::Mem(MemLoc::scalar(sym)))
            }
            NonTermKind::Imm { .. } => {
                Err(CompileError::Target(crate::TargetError::RuleProducesImmediate {
                    rule: rule.id.to_string(),
                }))
            }
        }
    }

    fn operand_loc(&self, op: &Operand) -> Loc {
        match op {
            Operand::Const(v) => Loc::Imm(*v),
            Operand::Mem(m) => Loc::Mem(MemLoc::from_mem_ref(m)),
            Operand::Temp(t) => Loc::Mem(MemLoc::scalar(t.clone())),
            Operand::Shared { slot, .. } => {
                self.shared_locs[*slot].clone().expect("shared value emitted before use")
            }
            Operand::Derived(_) => unreachable!("derived operands are emitted"),
        }
    }

    /// Releases a multi-member register (singletons and memory are
    /// unaffected; scratch reuse is per-statement). Registers holding
    /// block-shared values stay parked until [`release_held`]
    /// (Self::release_held) at the end of the block.
    fn release(&mut self, loc: &Loc) {
        if let Loc::Reg(r) = loc {
            if self.held.contains(loc) {
                return;
            }
            let class = &self.target.reg_classes[r.class.0 as usize];
            if !class.is_singleton() {
                self.reg_used[r.class.0 as usize][r.index as usize] = false;
            }
        }
    }

    /// Frees every register parked for a block-shared value; called once
    /// at the end of the block (successful or not).
    fn release_held(&mut self) {
        let held = std::mem::take(&mut self.held);
        for loc in held {
            if let Loc::Reg(r) = loc {
                let class = &self.target.reg_classes[r.class.0 as usize];
                if !class.is_singleton() {
                    self.reg_used[r.class.0 as usize][r.index as usize] = false;
                }
            }
        }
        self.shared_locs.clear();
    }

    fn loc_text(&self, loc: &Loc) -> String {
        match loc {
            Loc::Reg(r) => self.target.class(r.class).member_name(r.index),
            Loc::Mem(m) => m.to_string(),
            Loc::Imm(v) => format!("{v}"),
        }
    }
}

/// Total BURS weight of an emitted instruction sequence — the unit the
/// share-vs-recompute comparison is carried out in.
fn insns_weight(insns: &[Insn]) -> u64 {
    insns.iter().map(|i| Cost::new(i.words, i.cycles).weight()).sum()
}

/// The cuts applicable to statement `s`: accepted candidates that list
/// `s` among their sound uses. The same subtree occurring elsewhere in
/// the block may denote a *different* value (a store intervened), so a
/// cut set is always built per statement.
fn cuts_for_stmt(dag: &BlockDag, accepted: &[(usize, NonTermId)], s: usize) -> CutSet {
    let mut cuts = CutSet::new();
    for (slot, &(cand_ix, nt)) in accepted.iter().enumerate() {
        let cand = &dag.shared[cand_ix];
        if cand.uses.contains(&s) {
            cuts.insert(cand.id, (slot, nt));
        }
    }
    cuts
}

fn sem_from_pattern(pat: &PatNode, locs: &[Loc], next: &mut usize) -> SemExpr {
    match pat {
        PatNode::Nt(_) => {
            let l = locs[*next].clone();
            *next += 1;
            SemExpr::Loc(l)
        }
        PatNode::Op(op, children) => {
            if op.is_leaf() {
                let l = locs[*next].clone();
                *next += 1;
                return SemExpr::Loc(l);
            }
            match op {
                record_ir::Op::Bin(b) => {
                    let a = sem_from_pattern(&children[0], locs, next);
                    let c = sem_from_pattern(&children[1], locs, next);
                    SemExpr::bin(*b, a, c)
                }
                record_ir::Op::Un(u) => {
                    let a = sem_from_pattern(&children[0], locs, next);
                    SemExpr::un(*u, a)
                }
                _ => unreachable!("leaf ops handled above"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::{BinOp, MemRef};

    fn assign(dst: &str, src: Tree) -> AssignStmt {
        AssignStmt { dst: MemRef::scalar(dst), src }
    }

    fn texts(insns: &[Insn]) -> Vec<String> {
        insns.iter().map(|i| i.text.clone()).collect()
    }

    #[test]
    fn emits_mac_sequence_on_tic25() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // y := y + c * x
        let stmt = assign(
            "y",
            Tree::bin(
                BinOp::Add,
                Tree::var("y"),
                Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("x")),
            ),
        );
        let (insns, stats) = e.emit_assign(&stmt, &RuleSet::none(), 1).expect("coverable");
        assert_eq!(texts(&insns), vec!["LAC y", "LT c", "MPY x", "APAC", "SACL y"],);
        assert_eq!(stats.variants, 1);
    }

    #[test]
    fn variant_selection_improves_covers() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // y := 2 * x — as written, the constant must take the scenic
        // route through the accumulator and a scratch word to reach the
        // multiplier input (6 words); the mul-to-shift variant covers the
        // whole thing with one load-with-shift (2 words).
        let stmt = assign("y", Tree::bin(BinOp::Mul, Tree::constant(2), Tree::var("x")));
        let (no_variants, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        let words = |v: &[Insn]| v.iter().map(|i| i.words).sum::<u32>();
        assert_eq!(words(&no_variants), 6, "{:?}", texts(&no_variants));
        let (with_variants, stats) = e.emit_assign(&stmt, &RuleSet::all(), 32).unwrap();
        assert!(stats.variants > 1);
        assert_eq!(texts(&with_variants), vec!["LAC x,1", "SACL y"]);
    }

    #[test]
    fn spills_route_through_scratch_memory() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // (a+b) * (c+d) forces one factor through memory
        let stmt = assign(
            "y",
            Tree::bin(
                BinOp::Mul,
                Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
                Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
            ),
        );
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        assert!(texts(&insns).iter().any(|t| t.starts_with("SACL $s")), "{:?}", texts(&insns));
        assert!(!e.scratch_symbols().is_empty());
    }

    #[test]
    fn scratch_is_reused_across_statements() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let spilly = |dst: &str| {
            assign(
                dst,
                Tree::bin(
                    BinOp::Mul,
                    Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
                    Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
                ),
            )
        };
        e.emit_assign(&spilly("y"), &RuleSet::none(), 1).unwrap();
        let n1 = e.scratch_symbols().len();
        e.emit_assign(&spilly("z"), &RuleSet::none(), 1).unwrap();
        assert_eq!(e.scratch_symbols().len(), n1, "pool reused");
    }

    #[test]
    fn multi_register_allocation_on_risc() {
        let t = record_isa::targets::simple_risc::target(8);
        let mut e = Emitter::new(&t);
        let stmt = assign(
            "y",
            Tree::bin(
                BinOp::Add,
                Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b")),
                Tree::bin(BinOp::Sub, Tree::var("c"), Tree::var("d")),
            ),
        );
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        // loads into distinct registers, computes, stores
        let t0 = texts(&insns);
        assert!(t0.iter().any(|s| s.starts_with("LW r0,")), "{t0:?}");
        assert!(t0.iter().any(|s| s.starts_with("LW r1,")), "{t0:?}");
        assert!(t0.last().unwrap().starts_with("SW "));
    }

    #[test]
    fn out_of_registers_is_reported() {
        // a 2-register RISC cannot hold three concurrently live values
        // (the right-leaning tree keeps r0 live while the inner product
        // needs two more registers)
        let t = record_isa::targets::simple_risc::target(2);
        let mut e = Emitter::new(&t);
        let stmt = assign(
            "y",
            Tree::bin(
                BinOp::Mul,
                Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
                Tree::bin(
                    BinOp::Mul,
                    Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
                    Tree::bin(BinOp::Add, Tree::var("e"), Tree::var("f")),
                ),
            ),
        );
        let err = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap_err();
        assert!(matches!(err, CompileError::OutOfRegisters { .. }), "{err}");
    }

    #[test]
    fn uncoverable_reports_statement() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // the C25 model has no division instruction
        let stmt = assign("y", Tree::bin(BinOp::Div, Tree::var("a"), Tree::var("b")));
        let err = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap_err();
        match err {
            CompileError::Uncoverable { stmt, target } => {
                assert!(stmt.contains("/"));
                assert_eq!(target, "tic25");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn constant_folding_is_optional() {
        let compiler = crate::Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
        let lir = record_ir::lower::lower(
            &record_ir::dfl::parse("program k; out y: fix; begin y := 2 + 3; end").unwrap(),
        )
        .unwrap();
        let unfolded = compiler.compile(&lir, &crate::PassPlan::o2()).unwrap();
        let folded = compiler.compile(&lir, &crate::PassPlan::o2().folding()).unwrap();
        assert!(folded.size_words() <= unfolded.size_words());
        assert!(folded.render().contains("LACK 5"), "{}", folded.render());
    }

    #[test]
    fn saturating_add_requires_ovm() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign("y", Tree::bin(BinOp::SatAdd, Tree::var("y"), Tree::var("x")));
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        let ovm = t.mode("ovm").unwrap();
        assert!(insns.iter().any(|i| i.mode_req == Some((ovm, true))));
    }

    #[test]
    fn plain_add_requires_ovm_clear() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign("y", Tree::bin(BinOp::Add, Tree::var("y"), Tree::var("x")));
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        let ovm = t.mode("ovm").unwrap();
        assert!(insns.iter().any(|i| i.mode_req == Some((ovm, false))));
    }

    #[test]
    fn verifier_rejects_clobbered_covers() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign(
            "v1",
            Tree::bin(
                BinOp::And,
                Tree::un(record_ir::UnOp::Not, Tree::var("v1")),
                Tree::un(record_ir::UnOp::Not, Tree::var("v2")),
            ),
        );
        // raw emission (no verify loop)
        let (insns, _) = e.emit_one(&stmt, &RuleSet::none(), 1).unwrap();
        let ok = e.verify_statement(&stmt, &insns);
        // the naive cover clobbers the accumulator; the verifier must say no
        assert!(!ok, "{:?}", texts(&insns));
        // and the public entry point must produce correct code
        let (fixed, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        assert!(e.verify_statement(&stmt, &fixed), "{:?}", texts(&fixed));
    }

    #[test]
    fn temp_operands_read_their_memory_cell() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign("y", Tree::bin(BinOp::Add, Tree::temp("$t0"), Tree::var("x")));
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        assert_eq!(texts(&insns)[0], "LAC $t0");
    }

    /// The complex-multiply block: every input leaf is read twice.
    fn complex_multiply_block() -> Vec<AssignStmt> {
        let mul = |a: &str, b: &str| Tree::bin(BinOp::Mul, Tree::var(a), Tree::var(b));
        vec![
            assign("cr", Tree::bin(BinOp::Sub, mul("ar", "br"), mul("ai", "bi"))),
            assign("ci", Tree::bin(BinOp::Add, mul("ar", "bi"), mul("ai", "br"))),
        ]
    }

    fn words(insns: &[Insn]) -> u32 {
        insns.iter().map(|i| i.words).sum()
    }

    fn block(
        e: &mut Emitter<'_>,
        stmts: &[AssignStmt],
        rules: &RuleSet,
        limit: usize,
        stats: &mut SelectStats,
    ) -> Vec<Insn> {
        e.emit_block(stmts, rules, limit, &SelectBudget::default(), stats).unwrap()
    }

    #[test]
    fn block_sharing_pays_on_register_operand_machine() {
        // dsp56k reads multiplier inputs from the x/y register files: a
        // leaf loaded once can feed both statements, so DAG covering must
        // take shares and shrink the code.
        let t = record_isa::targets::dsp56k::target();
        let stmts = complex_multiply_block();
        let mut per_stmt = Emitter::new(&t);
        let mut baseline = Vec::new();
        for s in &stmts {
            let (insns, _) = per_stmt.emit_assign(s, &RuleSet::all(), 32).unwrap();
            baseline.extend(insns);
        }
        let mut e = Emitter::new(&t);
        let mut stats = SelectStats::default();
        let insns = block(&mut e, &stmts, &RuleSet::all(), 32, &mut stats);
        assert!(stats.shared_subtrees >= 4, "{stats:?}");
        assert!(stats.shares_taken > 0, "{stats:?}");
        assert!(words(&insns) < words(&baseline), "{:?}", texts(&insns));
        // every register the block still holds must be released
        assert!(e.held.is_empty());
        assert!(e.reg_used.iter().all(|c| c.iter().all(|u| !u)));
    }

    #[test]
    fn block_sharing_is_refused_on_accumulator_machine() {
        // tic25's register classes are all singletons: nothing can stay
        // parked across statements, so every candidate is recomputed and
        // the output is exactly the per-statement baseline.
        let t = record_isa::targets::tic25::target();
        let stmts = complex_multiply_block();
        let mut per_stmt = Emitter::new(&t);
        let mut baseline = Vec::new();
        for s in &stmts {
            let (insns, _) = per_stmt.emit_assign(s, &RuleSet::all(), 32).unwrap();
            baseline.extend(insns);
        }
        let mut e = Emitter::new(&t);
        let mut stats = SelectStats::default();
        let insns = block(&mut e, &stmts, &RuleSet::all(), 32, &mut stats);
        assert!(stats.shared_subtrees >= 4, "{stats:?}");
        assert_eq!(stats.shares_taken, 0, "{stats:?}");
        assert_eq!(stats.recomputes_chosen, stats.shared_subtrees, "{stats:?}");
        assert_eq!(texts(&insns), texts(&baseline));
    }

    #[test]
    fn block_without_repeats_is_the_baseline() {
        let t = record_isa::targets::dsp56k::target();
        let stmts = vec![
            assign("u", Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b"))),
            assign("v", Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("d"))),
        ];
        let mut per_stmt = Emitter::new(&t);
        let mut baseline = Vec::new();
        for s in &stmts {
            let (insns, _) = per_stmt.emit_assign(s, &RuleSet::none(), 1).unwrap();
            baseline.extend(insns);
        }
        let mut e = Emitter::new(&t);
        let mut stats = SelectStats::default();
        let insns = block(&mut e, &stmts, &RuleSet::none(), 1, &mut stats);
        assert_eq!(stats.shares_taken, 0);
        assert_eq!(texts(&insns), texts(&baseline));
    }

    #[test]
    fn block_sharing_respects_intervening_stores() {
        // w is redefined between the two reads of (a + w): the block must
        // not share it, and both statements must verify against their own
        // version of w.
        let t = record_isa::targets::dsp56k::target();
        let stmts = vec![
            assign("y", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("w"))),
            assign("w", Tree::var("u")),
            assign("z", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("w"))),
        ];
        let mut e = Emitter::new(&t);
        let mut stats = SelectStats::default();
        let insns = block(&mut e, &stmts, &RuleSet::all(), 32, &mut stats);
        // `a` may share; `(a + w)` and `w` must not be candidates at all
        assert!(stats.shared_subtrees <= 1, "{stats:?}");
        // the stored-to symbol is still written by the middle statement
        assert!(texts(&insns).iter().any(|s| s.ends_with(",w")), "{:?}", texts(&insns));
    }
}
