//! Two-level content-addressed compile cache.
//!
//! The paper's compiler pays two distinct fixed costs: generating the
//! BURS matcher tables for a target (the step iburg performs offline)
//! and compiling each kernel. This module caches both behind
//! content-derived keys so repeated work becomes a lookup:
//!
//! * **Compiled code** is keyed by [`CacheKey`] — the program's
//!   fingerprint (over its interned [`TreePool`](record_ir::pool::TreePool)
//!   form), the target's fingerprint, and the pass plan's fingerprint.
//!   An in-memory LRU answers warm lookups within a process; an
//!   optional on-disk store answers them across processes.
//! * **BURS tables** are keyed by the target fingerprint alone and
//!   stored on disk, so a later process cold-starts a target with a
//!   file load instead of table generation.
//!
//! Fingerprints are 64-bit, so collisions are improbable but not
//! impossible; every code hit is therefore confirmed by *exact
//! structural equality* of the stored [`Lir`] (and target name) against
//! the request — a collision degrades to a miss, never to wrong code.
//!
//! The disk format is hand-rolled (no serde): each file is a
//! [`codec::seal`]ed container — versioned magic header,
//! length-prefixed records, FNV-1a checksum trailer. **Every** way a
//! file can be wrong — truncation, bit rot, version skew, a record that
//! decodes to an impossible value — surfaces as a [`CodecError`] from
//! the bounds-checked reader, and the cache treats it as a miss: the
//! bad file is evicted, a corruption counter bumped, and the compile
//! proceeds as if the entry never existed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use record_burg::Tables;
use record_ir::lir::{AssignStmt, Lir, LirItem, StorageKind, VarInfo};
use record_ir::{Bank, BinOp, Index, MemRef, Symbol, Tree, UnOp};
use record_isa::code::LayoutEntry;
use record_isa::{
    AddrMode, Code, DataLayout, Insn, InsnKind, Loc, MemLoc, RegClassId, RegId, RuleId, SemExpr,
    TargetDesc,
};
use record_trace::codec::{self, ByteReader, ByteWriter, CodecError};

/// Magic + version framing a cached-code file. The version also moves
/// when the code a plan emits changes under the same plan fingerprint
/// (version 2: plans with a variants budget cover blocks as DAGs), so
/// older entries are evicted as version skew instead of served.
const CODE_MAGIC: &[u8; 8] = b"RECCODE\0";
const CODE_VERSION: u32 = 2;

/// Decode recursion guard: trees, expressions and loop nests deeper
/// than this are rejected as corrupt rather than risking stack
/// exhaustion on hostile bytes. Real kernels nest a handful of levels.
const MAX_DECODE_DEPTH: usize = 512;

/// A stable fingerprint of a target description: FNV-1a over its
/// `Hash` derivation. Names the target's on-disk BURS table file and
/// forms the target component of a [`CacheKey`]. (The `DefaultHasher`
/// is randomly keyed per process — never persist it.)
pub fn target_fingerprint(target: &TargetDesc) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = codec::StableHasher::new();
    target.hash(&mut h);
    h.finish()
}

/// The content-derived identity of one compile:
/// (program, target, pass plan) as stable 64-bit fingerprints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`record_ir::fingerprint::program_fingerprint`] of the LIR.
    pub program: u64,
    /// [`target_fingerprint`] of the target description.
    pub target: u64,
    /// [`PassPlan::fingerprint`](crate::PassPlan::fingerprint).
    pub plan: u64,
}

/// Counter snapshot of a [`CompileCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Code lookups answered from memory or disk.
    pub hits: u64,
    /// Code lookups that found nothing usable.
    pub misses: u64,
    /// In-memory entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// On-disk entries rejected (truncated, checksum-failing,
    /// version-mismatched, or undecodable) and deleted.
    pub corruptions: u64,
    /// BURS table sets loaded from disk instead of being generated.
    pub tables_loaded: u64,
}

/// One resident cache entry. The request's `Lir` and target name are
/// kept alongside the code so a later lookup under a colliding
/// fingerprint can be refused by structural comparison.
struct Slot {
    tick: u64,
    lir: Lir,
    target_name: String,
    code: Code,
}

/// The two-level compile cache: in-memory LRU over [`CacheKey`] plus an
/// optional on-disk store shared across processes.
///
/// Not internally synchronized — [`Session`](crate::Session) wraps it
/// in a `Mutex`. Disk writes are best-effort (temp file + rename;
/// errors are swallowed): a read-only or full cache directory degrades
/// the cache, never the compile.
pub struct CompileCache {
    capacity: usize,
    tick: u64,
    slots: HashMap<CacheKey, Slot>,
    dir: Option<PathBuf>,
    stats: CacheStats,
}

impl CompileCache {
    /// An in-memory-only cache holding at most `capacity` entries
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            capacity: capacity.max(1),
            tick: 0,
            slots: HashMap::new(),
            dir: None,
            stats: CacheStats::default(),
        }
    }

    /// Adds an on-disk store under `dir` (created on first write).
    /// Stale temp files from writers that died mid-write are swept on
    /// attach: they were never renamed into place, so deleting them can
    /// never lose a committed entry.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        sweep_tmp_files(&dir);
        self.dir = Some(dir);
        self
    }

    /// The on-disk store directory, if one is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The file a code entry for `key` lives in (under the store dir).
    pub fn code_file_name(key: &CacheKey) -> String {
        format!("code-{:016x}-{:016x}-{:016x}.bin", key.program, key.target, key.plan)
    }

    /// The file the BURS tables for a target fingerprint live in.
    pub fn tables_file_name(target_fp: u64) -> String {
        format!("burs-{target_fp:016x}.bin")
    }

    /// Looks up compiled code for `(key, lir, target_name)`: memory
    /// first, then disk. A fingerprint collision (stored program or
    /// target differs structurally) and a corrupt disk entry both
    /// answer `None`; the corrupt file is deleted.
    pub fn lookup(&mut self, key: &CacheKey, lir: &Lir, target_name: &str) -> Option<Code> {
        if let Some(slot) = self.slots.get_mut(key) {
            if slot.lir == *lir && slot.target_name == target_name {
                self.tick += 1;
                slot.tick = self.tick;
                self.stats.hits += 1;
                return Some(slot.code.clone());
            }
            self.stats.misses += 1;
            return None;
        }
        if let Some(code) = self.lookup_disk(key, lir, target_name) {
            self.remember(*key, lir.clone(), target_name.to_string(), code.clone());
            self.stats.hits += 1;
            return Some(code);
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a freshly compiled `code` under `key`, in memory and (when
    /// configured) on disk.
    pub fn insert(&mut self, key: CacheKey, lir: &Lir, target_name: &str, code: &Code) {
        self.remember(key, lir.clone(), target_name.to_string(), code.clone());
        if self.dir.is_some() {
            let payload = encode_entry(&key, lir, target_name, code);
            let sealed = codec::seal(CODE_MAGIC, CODE_VERSION, &payload);
            self.write_file(&Self::code_file_name(&key), &sealed);
        }
    }

    /// Loads the BURS tables for `target` from disk, verifying they are
    /// structurally consistent with the description. Inconsistent or
    /// undecodable tables count as corruption and the file is deleted.
    pub fn load_tables(&mut self, target_fp: u64, target: &TargetDesc) -> Option<Tables> {
        let path = self.dir.as_ref()?.join(Self::tables_file_name(target_fp));
        let bytes = std::fs::read(&path).ok()?;
        match Tables::from_bytes(&bytes) {
            Ok(tables) if tables.is_consistent_with(target) => {
                self.stats.tables_loaded += 1;
                Some(tables)
            }
            _ => {
                self.discard(&path);
                None
            }
        }
    }

    /// Writes the BURS tables for `target_fp` to disk (best-effort).
    pub fn store_tables(&mut self, target_fp: u64, tables: &Tables) {
        if self.dir.is_some() {
            let bytes = tables.to_bytes();
            self.write_file(&Self::tables_file_name(target_fp), &bytes);
        }
    }

    fn remember(&mut self, key: CacheKey, lir: Lir, target_name: String, code: Code) {
        self.tick += 1;
        self.slots.insert(key, Slot { tick: self.tick, lir, target_name, code });
        while self.slots.len() > self.capacity {
            let oldest = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| *k)
                .expect("non-empty cache over capacity");
            self.slots.remove(&oldest);
            self.stats.evictions += 1;
        }
    }

    fn lookup_disk(&mut self, key: &CacheKey, lir: &Lir, target_name: &str) -> Option<Code> {
        let path = self.dir.as_ref()?.join(Self::code_file_name(key));
        let bytes = std::fs::read(&path).ok()?;
        match decode_entry(&bytes) {
            Ok((stored_key, stored_lir, stored_target, code)) => {
                if stored_key == *key && stored_lir == *lir && stored_target == target_name {
                    Some(code)
                } else if stored_key != *key {
                    // the file does not even claim to be this entry:
                    // overwritten or damaged in a way that still decodes
                    self.discard(&path);
                    None
                } else {
                    // true fingerprint collision: the entry is valid for
                    // some *other* program — leave it, miss here
                    None
                }
            }
            Err(_) => {
                self.discard(&path);
                None
            }
        }
    }

    /// Deletes a bad cache file and counts the corruption. Removal
    /// failure is ignored: the entry will simply be rediscovered (and
    /// rejected again) next time.
    fn discard(&mut self, path: &Path) {
        self.stats.corruptions += 1;
        let _ = std::fs::remove_file(path);
    }

    /// Best-effort atomic write: unique temp file (pid *and* a
    /// process-wide counter, so two threads of one process can never
    /// interleave writes into the same temp), fsync, then rename. A
    /// crash at any point leaves either the old state or the complete
    /// new file — never a truncated entry under the final name — and
    /// the orphaned temp is swept on the next [`with_dir`] attach. Two
    /// processes racing on the same entry both write the same content,
    /// so whichever rename lands last is equally good.
    fn write_file(&self, name: &str, bytes: &[u8]) {
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let Some(dir) = &self.dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("{name}.tmp.{}.{seq}", std::process::id()));
        let committed = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(bytes)?;
                // without the fsync, rename can land before the data and
                // a power cut leaves a short file under the *final* name
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, dir.join(name)))
            .is_ok();
        if !committed {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Offline integrity scrub of a cache directory: every code entry is
    /// fully decoded, every BURS table set deserialized, and every stale
    /// temp file removed. Undecodable files are deleted and counted, so
    /// after a scrub every remaining file is loadable — the post-drain
    /// guarantee the compile daemon checks before reporting a clean
    /// exit. Unrecognized file names are left alone.
    pub fn scrub_dir(dir: &Path) -> ScrubStats {
        let mut stats = ScrubStats::default();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.contains(".tmp.") {
                if std::fs::remove_file(&path).is_ok() {
                    stats.tmps_removed += 1;
                }
                continue;
            }
            let valid = if name.starts_with("code-") && name.ends_with(".bin") {
                stats.code_entries += 1;
                std::fs::read(&path).is_ok_and(|b| decode_entry(&b).is_ok())
            } else if name.starts_with("burs-") && name.ends_with(".bin") {
                stats.table_entries += 1;
                std::fs::read(&path).is_ok_and(|b| Tables::from_bytes(&b).is_ok())
            } else {
                continue;
            };
            if !valid {
                stats.corrupt_removed += 1;
                let _ = std::fs::remove_file(&path);
            }
        }
        stats
    }
}

/// What a [`CompileCache::scrub_dir`] pass found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Code entries examined (valid ones are counted too).
    pub code_entries: usize,
    /// BURS table files examined.
    pub table_entries: usize,
    /// Undecodable files deleted.
    pub corrupt_removed: usize,
    /// Orphaned mid-write temp files deleted.
    pub tmps_removed: usize,
}

/// Deletes `*.tmp.*` leftovers from writers that died mid-write.
fn sweep_tmp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.contains(".tmp.")) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

// ---------------------------------------------------------------------------
// Entry codec: (key, lir, target name, code) in one sealed payload.
// ---------------------------------------------------------------------------

fn encode_entry(key: &CacheKey, lir: &Lir, target_name: &str, code: &Code) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(key.program);
    w.u64(key.target);
    w.u64(key.plan);
    w.str(target_name);
    encode_lir(&mut w, lir);
    encode_code(&mut w, code);
    w.into_bytes()
}

fn decode_entry(bytes: &[u8]) -> Result<(CacheKey, Lir, String, Code), CodecError> {
    let payload = codec::unseal(CODE_MAGIC, CODE_VERSION, bytes)?;
    let mut r = ByteReader::new(payload);
    let key = CacheKey { program: r.u64()?, target: r.u64()?, plan: r.u64()? };
    let target_name = r.str()?.to_string();
    let lir = decode_lir(&mut r)?;
    let code = decode_code(&mut r)?;
    r.finish()?;
    Ok((key, lir, target_name, code))
}

// -- IR side ----------------------------------------------------------------

fn encode_symbol(w: &mut ByteWriter, s: &Symbol) {
    w.str(s.as_str());
}

fn decode_symbol(r: &mut ByteReader<'_>) -> Result<Symbol, CodecError> {
    Ok(Symbol::new(r.str()?))
}

fn encode_bank(w: &mut ByteWriter, b: Bank) {
    w.u8(match b {
        Bank::X => 0,
        Bank::Y => 1,
    });
}

fn decode_bank(r: &mut ByteReader<'_>) -> Result<Bank, CodecError> {
    match r.u8()? {
        0 => Ok(Bank::X),
        1 => Ok(Bank::Y),
        t => Err(r.error(format!("bad bank tag {t}"))),
    }
}

fn encode_index(w: &mut ByteWriter, ix: &Index) {
    match ix {
        Index::Const(c) => {
            w.u8(0);
            w.i64(*c);
        }
        Index::Var { var, offset } => {
            w.u8(1);
            encode_symbol(w, var);
            w.i64(*offset);
        }
        Index::RevVar { var, offset } => {
            w.u8(2);
            encode_symbol(w, var);
            w.i64(*offset);
        }
    }
}

fn decode_index(r: &mut ByteReader<'_>) -> Result<Index, CodecError> {
    match r.u8()? {
        0 => Ok(Index::Const(r.i64()?)),
        1 => Ok(Index::Var { var: decode_symbol(r)?, offset: r.i64()? }),
        2 => Ok(Index::RevVar { var: decode_symbol(r)?, offset: r.i64()? }),
        t => Err(r.error(format!("bad index tag {t}"))),
    }
}

fn encode_mem_ref(w: &mut ByteWriter, m: &MemRef) {
    match m {
        MemRef::Scalar(s) => {
            w.u8(0);
            encode_symbol(w, s);
        }
        MemRef::Array { base, index } => {
            w.u8(1);
            encode_symbol(w, base);
            encode_index(w, index);
        }
    }
}

fn decode_mem_ref(r: &mut ByteReader<'_>) -> Result<MemRef, CodecError> {
    match r.u8()? {
        0 => Ok(MemRef::Scalar(decode_symbol(r)?)),
        1 => Ok(MemRef::Array { base: decode_symbol(r)?, index: decode_index(r)? }),
        t => Err(r.error(format!("bad memref tag {t}"))),
    }
}

fn encode_bin_op(w: &mut ByteWriter, op: BinOp) {
    w.u8(op as u8);
}

fn decode_bin_op(r: &mut ByteReader<'_>) -> Result<BinOp, CodecError> {
    Ok(match r.u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::And,
        5 => BinOp::Or,
        6 => BinOp::Xor,
        7 => BinOp::Shl,
        8 => BinOp::Shr,
        9 => BinOp::SatAdd,
        10 => BinOp::SatSub,
        11 => BinOp::Min,
        12 => BinOp::Max,
        t => return Err(r.error(format!("bad binop tag {t}"))),
    })
}

fn encode_un_op(w: &mut ByteWriter, op: UnOp) {
    w.u8(op as u8);
}

fn decode_un_op(r: &mut ByteReader<'_>) -> Result<UnOp, CodecError> {
    Ok(match r.u8()? {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::Abs,
        3 => UnOp::Sat,
        4 => UnOp::Round,
        t => return Err(r.error(format!("bad unop tag {t}"))),
    })
}

fn encode_tree(w: &mut ByteWriter, t: &Tree) {
    match t {
        Tree::Const(c) => {
            w.u8(0);
            w.i64(*c);
        }
        Tree::Mem(m) => {
            w.u8(1);
            encode_mem_ref(w, m);
        }
        Tree::Temp(s) => {
            w.u8(2);
            encode_symbol(w, s);
        }
        Tree::Bin(op, a, b) => {
            w.u8(3);
            encode_bin_op(w, *op);
            encode_tree(w, a);
            encode_tree(w, b);
        }
        Tree::Un(op, a) => {
            w.u8(4);
            encode_un_op(w, *op);
            encode_tree(w, a);
        }
    }
}

fn decode_tree(r: &mut ByteReader<'_>, depth: usize) -> Result<Tree, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(r.error("tree nesting too deep"));
    }
    match r.u8()? {
        0 => Ok(Tree::Const(r.i64()?)),
        1 => Ok(Tree::Mem(decode_mem_ref(r)?)),
        2 => Ok(Tree::Temp(decode_symbol(r)?)),
        3 => {
            let op = decode_bin_op(r)?;
            let a = decode_tree(r, depth + 1)?;
            let b = decode_tree(r, depth + 1)?;
            Ok(Tree::Bin(op, Box::new(a), Box::new(b)))
        }
        4 => {
            let op = decode_un_op(r)?;
            Ok(Tree::Un(op, Box::new(decode_tree(r, depth + 1)?)))
        }
        t => Err(r.error(format!("bad tree tag {t}"))),
    }
}

fn encode_var_info(w: &mut ByteWriter, v: &VarInfo) {
    encode_symbol(w, &v.name);
    w.u32(v.len);
    w.u8(match v.kind {
        StorageKind::Var => 0,
        StorageKind::In => 1,
        StorageKind::Out => 2,
    });
    match v.bank {
        None => w.u8(0),
        Some(b) => {
            w.u8(1);
            encode_bank(w, b);
        }
    }
    w.bool(v.is_fix);
}

fn decode_var_info(r: &mut ByteReader<'_>) -> Result<VarInfo, CodecError> {
    let name = decode_symbol(r)?;
    let len = r.u32()?;
    let kind = match r.u8()? {
        0 => StorageKind::Var,
        1 => StorageKind::In,
        2 => StorageKind::Out,
        t => return Err(r.error(format!("bad storage kind tag {t}"))),
    };
    let bank = match r.u8()? {
        0 => None,
        1 => Some(decode_bank(r)?),
        t => return Err(r.error(format!("bad option tag {t}"))),
    };
    let is_fix = r.bool()?;
    Ok(VarInfo { name, len, kind, bank, is_fix })
}

fn encode_lir_item(w: &mut ByteWriter, item: &LirItem) {
    match item {
        LirItem::Assign(a) => {
            w.u8(0);
            encode_mem_ref(w, &a.dst);
            encode_tree(w, &a.src);
        }
        LirItem::Loop { var, count, body } => {
            w.u8(1);
            encode_symbol(w, var);
            w.u32(*count);
            w.u32(body.len() as u32);
            for it in body {
                encode_lir_item(w, it);
            }
        }
    }
}

fn decode_lir_item(r: &mut ByteReader<'_>, depth: usize) -> Result<LirItem, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(r.error("loop nesting too deep"));
    }
    match r.u8()? {
        0 => {
            let dst = decode_mem_ref(r)?;
            let src = decode_tree(r, 0)?;
            Ok(LirItem::Assign(AssignStmt { dst, src }))
        }
        1 => {
            let var = decode_symbol(r)?;
            let count = r.u32()?;
            let n = r.seq_len(1)?;
            let mut body = Vec::with_capacity(n);
            for _ in 0..n {
                body.push(decode_lir_item(r, depth + 1)?);
            }
            Ok(LirItem::Loop { var, count, body })
        }
        t => Err(r.error(format!("bad lir item tag {t}"))),
    }
}

fn encode_lir(w: &mut ByteWriter, lir: &Lir) {
    encode_symbol(w, &lir.name);
    w.u32(lir.vars.len() as u32);
    for v in &lir.vars {
        encode_var_info(w, v);
    }
    w.u32(lir.body.len() as u32);
    for item in &lir.body {
        encode_lir_item(w, item);
    }
}

fn decode_lir(r: &mut ByteReader<'_>) -> Result<Lir, CodecError> {
    let name = decode_symbol(r)?;
    let n_vars = r.seq_len(8)?;
    let mut vars = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        vars.push(decode_var_info(r)?);
    }
    let n_items = r.seq_len(1)?;
    let mut body = Vec::with_capacity(n_items);
    for _ in 0..n_items {
        body.push(decode_lir_item(r, 0)?);
    }
    Ok(Lir { name, vars, body })
}

// -- Code side --------------------------------------------------------------

fn encode_addr_mode(w: &mut ByteWriter, m: AddrMode) {
    match m {
        AddrMode::Unresolved => w.u8(0),
        AddrMode::Direct(a) => {
            w.u8(1);
            w.u16(a);
        }
        AddrMode::Indirect { ar, post } => {
            w.u8(2);
            w.u16(ar);
            w.u8(post as u8);
        }
    }
}

fn decode_addr_mode(r: &mut ByteReader<'_>) -> Result<AddrMode, CodecError> {
    match r.u8()? {
        0 => Ok(AddrMode::Unresolved),
        1 => Ok(AddrMode::Direct(r.u16()?)),
        2 => Ok(AddrMode::Indirect { ar: r.u16()?, post: r.u8()? as i8 }),
        t => Err(r.error(format!("bad addr mode tag {t}"))),
    }
}

fn encode_mem_loc(w: &mut ByteWriter, m: &MemLoc) {
    encode_symbol(w, &m.base);
    w.i64(m.disp);
    match &m.index {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            encode_symbol(w, s);
        }
    }
    w.bool(m.down);
    encode_bank(w, m.bank);
    encode_addr_mode(w, m.mode);
}

fn decode_mem_loc(r: &mut ByteReader<'_>) -> Result<MemLoc, CodecError> {
    let base = decode_symbol(r)?;
    let disp = r.i64()?;
    let index = match r.u8()? {
        0 => None,
        1 => Some(decode_symbol(r)?),
        t => return Err(r.error(format!("bad option tag {t}"))),
    };
    let down = r.bool()?;
    let bank = decode_bank(r)?;
    let mode = decode_addr_mode(r)?;
    Ok(MemLoc { base, disp, index, down, bank, mode })
}

fn encode_loc(w: &mut ByteWriter, l: &Loc) {
    match l {
        Loc::Reg(rid) => {
            w.u8(0);
            w.u16(rid.class.0);
            w.u16(rid.index);
        }
        Loc::Mem(m) => {
            w.u8(1);
            encode_mem_loc(w, m);
        }
        Loc::Imm(v) => {
            w.u8(2);
            w.i64(*v);
        }
    }
}

fn decode_loc(r: &mut ByteReader<'_>) -> Result<Loc, CodecError> {
    match r.u8()? {
        0 => Ok(Loc::Reg(RegId::new(RegClassId(r.u16()?), r.u16()?))),
        1 => Ok(Loc::Mem(decode_mem_loc(r)?)),
        2 => Ok(Loc::Imm(r.i64()?)),
        t => Err(r.error(format!("bad loc tag {t}"))),
    }
}

fn encode_sem_expr(w: &mut ByteWriter, e: &SemExpr) {
    match e {
        SemExpr::Loc(l) => {
            w.u8(0);
            encode_loc(w, l);
        }
        SemExpr::Bin(op, a, b) => {
            w.u8(1);
            encode_bin_op(w, *op);
            encode_sem_expr(w, a);
            encode_sem_expr(w, b);
        }
        SemExpr::Un(op, a) => {
            w.u8(2);
            encode_un_op(w, *op);
            encode_sem_expr(w, a);
        }
    }
}

fn decode_sem_expr(r: &mut ByteReader<'_>, depth: usize) -> Result<SemExpr, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(r.error("expression nesting too deep"));
    }
    match r.u8()? {
        0 => Ok(SemExpr::Loc(decode_loc(r)?)),
        1 => {
            let op = decode_bin_op(r)?;
            let a = decode_sem_expr(r, depth + 1)?;
            let b = decode_sem_expr(r, depth + 1)?;
            Ok(SemExpr::Bin(op, Box::new(a), Box::new(b)))
        }
        2 => {
            let op = decode_un_op(r)?;
            Ok(SemExpr::Un(op, Box::new(decode_sem_expr(r, depth + 1)?)))
        }
        t => Err(r.error(format!("bad semexpr tag {t}"))),
    }
}

fn encode_insn_kind(w: &mut ByteWriter, k: &InsnKind) {
    match k {
        InsnKind::Compute { dst, expr } => {
            w.u8(0);
            encode_loc(w, dst);
            encode_sem_expr(w, expr);
        }
        InsnKind::LoopStart { var, count } => {
            w.u8(1);
            encode_symbol(w, var);
            w.u32(*count);
        }
        InsnKind::LoopEnd => w.u8(2),
        InsnKind::Rpt { count } => {
            w.u8(3);
            w.u32(*count);
        }
        InsnKind::SetMode { mode, on } => {
            w.u8(4);
            w.u64(*mode as u64);
            w.bool(*on);
        }
        InsnKind::ArLoad { ar, base, disp } => {
            w.u8(5);
            w.u16(*ar);
            encode_symbol(w, base);
            w.i64(*disp);
        }
        InsnKind::ArAdd { ar, delta } => {
            w.u8(6);
            w.u16(*ar);
            w.i64(*delta);
        }
        InsnKind::ArLoadIndexed { ar, base, disp, index, down } => {
            w.u8(7);
            w.u16(*ar);
            encode_symbol(w, base);
            w.i64(*disp);
            encode_symbol(w, index);
            w.bool(*down);
        }
        InsnKind::ArLoadMem { ar, cell } => {
            w.u8(8);
            w.u16(*ar);
            encode_symbol(w, cell);
        }
        InsnKind::ArStore { ar, cell } => {
            w.u8(9);
            w.u16(*ar);
            encode_symbol(w, cell);
        }
        InsnKind::PtrInit { cell, base, disp } => {
            w.u8(10);
            encode_symbol(w, cell);
            encode_symbol(w, base);
            w.i64(*disp);
        }
        InsnKind::Nop => w.u8(11),
    }
}

fn decode_insn_kind(r: &mut ByteReader<'_>) -> Result<InsnKind, CodecError> {
    match r.u8()? {
        0 => {
            let dst = decode_loc(r)?;
            let expr = decode_sem_expr(r, 0)?;
            Ok(InsnKind::Compute { dst, expr })
        }
        1 => Ok(InsnKind::LoopStart { var: decode_symbol(r)?, count: r.u32()? }),
        2 => Ok(InsnKind::LoopEnd),
        3 => Ok(InsnKind::Rpt { count: r.u32()? }),
        4 => Ok(InsnKind::SetMode { mode: r.u64()? as usize, on: r.bool()? }),
        5 => Ok(InsnKind::ArLoad { ar: r.u16()?, base: decode_symbol(r)?, disp: r.i64()? }),
        6 => Ok(InsnKind::ArAdd { ar: r.u16()?, delta: r.i64()? }),
        7 => Ok(InsnKind::ArLoadIndexed {
            ar: r.u16()?,
            base: decode_symbol(r)?,
            disp: r.i64()?,
            index: decode_symbol(r)?,
            down: r.bool()?,
        }),
        8 => Ok(InsnKind::ArLoadMem { ar: r.u16()?, cell: decode_symbol(r)? }),
        9 => Ok(InsnKind::ArStore { ar: r.u16()?, cell: decode_symbol(r)? }),
        10 => Ok(InsnKind::PtrInit {
            cell: decode_symbol(r)?,
            base: decode_symbol(r)?,
            disp: r.i64()?,
        }),
        11 => Ok(InsnKind::Nop),
        t => Err(r.error(format!("bad insn kind tag {t}"))),
    }
}

fn encode_insn(w: &mut ByteWriter, insn: &Insn) {
    match insn.rule {
        None => w.u8(0),
        Some(rid) => {
            w.u8(1);
            w.u32(rid.0);
        }
    }
    encode_insn_kind(w, &insn.kind);
    w.str(&insn.text);
    w.u32(insn.words);
    w.u32(insn.cycles);
    w.u32(insn.units);
    w.bool(insn.mode_sensitive);
    match insn.mode_req {
        None => w.u8(0),
        Some((mode, on)) => {
            w.u8(1);
            w.u64(mode as u64);
            w.bool(on);
        }
    }
    w.u32(insn.parallel.len() as u32);
    for p in &insn.parallel {
        encode_insn(w, p);
    }
}

fn decode_insn(r: &mut ByteReader<'_>, depth: usize) -> Result<Insn, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(r.error("parallel nesting too deep"));
    }
    let rule = match r.u8()? {
        0 => None,
        1 => Some(RuleId(r.u32()?)),
        t => return Err(r.error(format!("bad option tag {t}"))),
    };
    let kind = decode_insn_kind(r)?;
    let text = r.str()?.to_string();
    let words = r.u32()?;
    let cycles = r.u32()?;
    let units = r.u32()?;
    let mode_sensitive = r.bool()?;
    let mode_req = match r.u8()? {
        0 => None,
        1 => Some((r.u64()? as usize, r.bool()?)),
        t => return Err(r.error(format!("bad option tag {t}"))),
    };
    let n = r.seq_len(1)?;
    let mut parallel = Vec::with_capacity(n);
    for _ in 0..n {
        parallel.push(decode_insn(r, depth + 1)?);
    }
    Ok(Insn { rule, kind, text, words, cycles, units, mode_sensitive, mode_req, parallel })
}

fn encode_layout(w: &mut ByteWriter, layout: &DataLayout) {
    let entries = layout.entries();
    w.u32(entries.len() as u32);
    for e in entries {
        encode_symbol(w, &e.sym);
        w.u16(e.addr);
        w.u32(e.len);
        encode_bank(w, e.bank);
    }
}

fn decode_layout(r: &mut ByteReader<'_>) -> Result<DataLayout, CodecError> {
    let n = r.seq_len(8)?;
    let mut entries = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let sym = decode_symbol(r)?;
        if !seen.insert(sym.clone()) {
            // `replace_entries` panics on duplicates; reject here so a
            // corrupted file decodes to an error, not a panic
            return Err(r.error(format!("duplicate layout symbol `{sym}`")));
        }
        let addr = r.u16()?;
        let len = r.u32()?;
        let bank = decode_bank(r)?;
        entries.push(LayoutEntry { sym, addr, len, bank });
    }
    let mut layout = DataLayout::new();
    layout.replace_entries(entries);
    Ok(layout)
}

fn encode_code(w: &mut ByteWriter, code: &Code) {
    w.u32(code.insns.len() as u32);
    for insn in &code.insns {
        encode_insn(w, insn);
    }
    encode_layout(w, &code.layout);
    w.str(&code.target);
    w.str(&code.name);
}

fn decode_code(r: &mut ByteReader<'_>) -> Result<Code, CodecError> {
    let n = r.seq_len(1)?;
    let mut insns = Vec::with_capacity(n);
    for _ in 0..n {
        insns.push(decode_insn(r, 0)?);
    }
    let layout = decode_layout(r)?;
    let target = r.str()?.to_string();
    let name = r.str()?.to_string();
    Ok(Code { insns, layout, target, name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::fingerprint::program_fingerprint;

    fn lower(src: &str) -> Lir {
        record_ir::lower::lower(&record_ir::dfl::parse(src).unwrap()).unwrap()
    }

    fn compiled() -> (Lir, Code) {
        let src = "program p; const N = 4; in a: fix[N]; out y: fix; begin \
                   y := 0; for i in 0..N-1 loop y := y + a[i] * 3; end loop; end";
        let lir = lower(src);
        let compiler = crate::Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
        let code = compiler.compile(&lir, &crate::PassPlan::o2()).unwrap();
        (lir, code)
    }

    fn key_of(lir: &Lir) -> CacheKey {
        CacheKey { program: program_fingerprint(lir), target: 7, plan: 9 }
    }

    #[test]
    fn entry_round_trips_structurally() {
        let (lir, code) = compiled();
        let key = key_of(&lir);
        let bytes =
            codec::seal(CODE_MAGIC, CODE_VERSION, &encode_entry(&key, &lir, "tic25", &code));
        let (k2, lir2, tname, code2) = decode_entry(&bytes).unwrap();
        assert_eq!(k2, key);
        assert_eq!(lir2, lir);
        assert_eq!(tname, "tic25");
        assert_eq!(code2, code);
        assert_eq!(code2.render(), code.render());
    }

    #[test]
    fn every_bit_flip_is_rejected_or_equal() {
        // Any single-bit corruption must either fail the checksum/decode
        // or (if it flips a payload bit *and* the matching checksum bit —
        // impossible for one flip) be caught; it must never panic.
        let (lir, code) = compiled();
        let key = key_of(&lir);
        let bytes =
            codec::seal(CODE_MAGIC, CODE_VERSION, &encode_entry(&key, &lir, "tic25", &code));
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1;
            assert!(decode_entry(&bad).is_err(), "flip at byte {byte} accepted");
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let (lir, code) = compiled();
        let key = key_of(&lir);
        let bytes =
            codec::seal(CODE_MAGIC, CODE_VERSION, &encode_entry(&key, &lir, "tic25", &code));
        for len in 0..bytes.len() {
            assert!(decode_entry(&bytes[..len]).is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let (lir, code) = compiled();
        let mut cache = CompileCache::new(2);
        for plan in 0..3u64 {
            let key = CacheKey { plan, ..key_of(&lir) };
            cache.insert(key, &lir, "tic25", &code);
        }
        assert_eq!(cache.stats().evictions, 1);
        // oldest (plan 0) is gone, plan 1 and 2 remain
        assert!(cache.lookup(&CacheKey { plan: 0, ..key_of(&lir) }, &lir, "tic25").is_none());
        assert!(cache.lookup(&CacheKey { plan: 1, ..key_of(&lir) }, &lir, "tic25").is_some());
        assert!(cache.lookup(&CacheKey { plan: 2, ..key_of(&lir) }, &lir, "tic25").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn colliding_fingerprint_is_refused_by_structural_equality() {
        let (lir, code) = compiled();
        let other = lower("program q; var x, y: fix; begin y := x + 1; end");
        let key = key_of(&lir);
        let mut cache = CompileCache::new(8);
        cache.insert(key, &lir, "tic25", &code);
        // same key, structurally different program → miss, not wrong code
        assert!(cache.lookup(&key, &other, "tic25").is_none());
        // same program under a different target name → miss too
        assert!(cache.lookup(&key, &lir, "dsp56k").is_none());
        assert_eq!(cache.stats().misses, 2);
        assert!(cache.lookup(&key, &lir, "tic25").is_some());
    }

    #[test]
    fn disk_round_trip_and_corruption_as_miss() {
        let dir = std::env::temp_dir().join(format!("record-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (lir, code) = compiled();
        let key = key_of(&lir);

        let mut writer = CompileCache::new(8).with_dir(&dir);
        writer.insert(key, &lir, "tic25", &code);

        // a fresh cache (cold memory) reads it back from disk
        let mut reader = CompileCache::new(8).with_dir(&dir);
        assert_eq!(reader.lookup(&key, &lir, "tic25"), Some(code.clone()));
        assert_eq!(reader.stats().hits, 1);

        // corrupt the file: the entry becomes a miss, the file is deleted
        let path = dir.join(CompileCache::code_file_name(&key));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut cold = CompileCache::new(8).with_dir(&dir);
        assert!(cold.lookup(&key, &lir, "tic25").is_none());
        let s = cold.stats();
        assert_eq!((s.misses, s.corruptions), (1, 1));
        assert!(!path.exists(), "corrupt entry must be evicted from disk");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tables_store_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("record-tables-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let target = record_isa::targets::tic25::target();
        let fp = target_fingerprint(&target);
        let built = Tables::build(&target);

        let mut cache = CompileCache::new(1).with_dir(&dir);
        assert!(cache.load_tables(fp, &target).is_none(), "nothing stored yet");
        cache.store_tables(fp, &built);
        let loaded = cache.load_tables(fp, &target).expect("stored tables load");
        assert_eq!(loaded, built);
        assert_eq!(cache.stats().tables_loaded, 1);

        // a truncated tables file is corruption: deleted, not an error
        let path = dir.join(CompileCache::tables_file_name(fp));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.load_tables(fp, &target).is_none());
        assert_eq!(cache.stats().corruptions, 1);
        assert!(!path.exists());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
