//! End-to-end tests of the two-level compile cache: the full DSPStone ×
//! target × plan matrix must be answered byte-identically on a warm
//! lookup with zero selection work, every key component (program,
//! target, plan) must invalidate independently, corrupt on-disk entries
//! must degrade to misses (never errors), and a second session sharing
//! the cache directory must warm-start from the files the first left
//! behind — the cross-process analogue of offline BURS table generation.

use std::path::PathBuf;

use record::{PassPlan, Session};
use record_isa::TargetDesc;

fn targets() -> [TargetDesc; 2] {
    [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()]
}

fn plans() -> [(&'static str, PassPlan); 2] {
    [("o0", PassPlan::o0()), ("o2", PassPlan::o2())]
}

/// A unique scratch directory per test (tests run in one process, so
/// the pid alone would collide across tests sharing a name prefix).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("record-cache-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance matrix: all ten DSPStone kernels × both targets × both
/// plan presets. The warm compile of every cell must come from the
/// cache, run zero passes, compute zero BURS labels, and render
/// byte-identically to the cold compile.
#[test]
fn full_matrix_hits_are_byte_identical() {
    for (plan_name, plan) in plans() {
        let session = Session::new().with_plan(plan).with_code_cache(64);
        for target in targets() {
            for kernel in record_dspstone::kernels() {
                let cell = format!("{}/{}/{plan_name}", kernel.name, target.name);
                let (cold, cold_t) = session.compile_source_timed(&target, kernel.source).unwrap();
                assert!(!cold_t.from_cache, "{cell}: first compile can't hit");
                assert!(cold_t.labels_computed > 0, "{cell}: cold compile labels trees");
                let (warm, warm_t) = session.compile_source_timed(&target, kernel.source).unwrap();
                assert!(warm_t.from_cache, "{cell}: repeat compile must hit");
                assert_eq!(warm_t.labels_computed, 0, "{cell}: hit ran the selector");
                assert!(warm_t.passes.is_empty(), "{cell}: hit ran a pass");
                assert_eq!(warm.render(), cold.render(), "{cell}: cached code differs");
            }
        }
        let stats = session.stats();
        assert_eq!(stats.code_hits, 20, "{plan_name}: one hit per matrix cell");
        assert_eq!(stats.code_misses, 20, "{plan_name}: one miss per matrix cell");
        assert_eq!(stats.code_corruptions, 0, "{plan_name}");
    }
}

/// Each component of the cache key invalidates on its own: a different
/// program, a different target, or a different pass plan must all miss.
#[test]
fn program_target_and_plan_edits_each_miss() {
    let src_a = "program p; var x, y: fix; begin y := x + 1; end";
    let src_b = "program p; var x, y: fix; begin y := x + 2; end"; // edited constant
    let [tic25, dsp56k] = targets();

    // program edit: same session, same target, edited source
    let session = Session::new().with_code_cache(16);
    session.compile_source(&tic25, src_a).unwrap();
    session.compile_source(&tic25, src_b).unwrap();
    assert_eq!(session.stats().code_hits, 0, "an edited program must not hit");
    assert_eq!(session.stats().code_misses, 2);

    // target edit: same session, same program, other target (a DSPStone
    // kernel — the tiny two-variable program doesn't fit the dsp56k's
    // register classes)
    let kernel = record_dspstone::kernels().into_iter().next().unwrap();
    session.compile_source(&tic25, kernel.source).unwrap();
    session.compile_source(&dsp56k, kernel.source).unwrap();
    assert_eq!(session.stats().code_hits, 0, "another target must not hit");
    assert_eq!(session.stats().code_misses, 4);

    // plan edit: two sessions sharing a disk store, differing only in
    // the pass plan — the O0 session must not pick up the O2 entry
    let dir = scratch_dir("plan-edit");
    let o2 = Session::new().with_plan(PassPlan::o2()).with_cache_dir(&dir);
    o2.compile_source(&tic25, src_a).unwrap();
    let o0 = Session::new().with_plan(PassPlan::o0()).with_cache_dir(&dir);
    o0.compile_source(&tic25, src_a).unwrap();
    assert_eq!(o0.stats().code_hits, 0, "another plan must not hit");
    assert_eq!(o0.stats().code_misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Toggling `dag_cover` alone is a plan edit: a session with DAG
/// covering off must never be served code cached by a session with it
/// on (the knob is folded into the plan fingerprint). The probe kernel
/// is one where the two selectors genuinely emit different code on
/// dsp56k, so serving a stale entry would be observable.
#[test]
fn dag_cover_toggle_misses_the_cache() {
    use record::select_pass;
    use record_ir::transform::RuleSet;
    let [_, dsp56k] = targets();
    let kernel = record_dspstone::kernel("complex_multiply").expect("known kernel");

    let dir = scratch_dir("dag-toggle");
    let on = Session::new().with_plan(PassPlan::o2()).with_cache_dir(&dir);
    let dag_code = on.compile_source(&dsp56k, kernel.source).unwrap();

    let per_statement = select_pass(RuleSet::all(), 32, false);
    let off = Session::new()
        .with_plan(PassPlan::o2().replacing("select", per_statement))
        .with_cache_dir(&dir);
    let tree_code = off.compile_source(&dsp56k, kernel.source).unwrap();
    assert_eq!(off.stats().code_hits, 0, "dag_cover toggle must not hit");
    assert_eq!(off.stats().code_misses, 1);
    assert_ne!(
        dag_code.render(),
        tree_code.render(),
        "probe kernel must distinguish the selectors, or this test proves nothing"
    );

    // and the warm lookups still work per plan, each serving its own code
    let (warm_on, t_on) = on.compile_source_timed(&dsp56k, kernel.source).unwrap();
    let (warm_off, t_off) = off.compile_source_timed(&dsp56k, kernel.source).unwrap();
    assert!(t_on.from_cache && t_off.from_cache, "same-plan recompiles must hit");
    assert_eq!(warm_on.render(), dag_code.render());
    assert_eq!(warm_off.render(), tree_code.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt on-disk code entries — flipped payload bytes and truncation —
/// are misses that recompile correctly, never errors or wrong code.
#[test]
fn corrupt_disk_entries_degrade_to_misses() {
    let dir = scratch_dir("corrupt-code");
    let target = record_isa::targets::tic25::target();
    let kernel = record_dspstone::kernels().into_iter().next().unwrap();

    let first = Session::new().with_cache_dir(&dir);
    let clean = first.compile_source(&target, kernel.source).unwrap().render();

    let code_file = |dir: &PathBuf| {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("code-"))
            .expect("the compile left a code entry on disk")
    };

    // flip a byte in the middle of the payload: the checksum must catch it
    let path = code_file(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let second = Session::new().with_cache_dir(&dir);
    let (code, t) = second.compile_source_timed(&target, kernel.source).unwrap();
    assert!(!t.from_cache, "a corrupt entry must not be served");
    assert_eq!(code.render(), clean, "recompile after corruption must match");
    let stats = second.stats();
    assert_eq!(stats.code_misses, 1);
    assert!(stats.code_corruptions >= 1, "the flipped byte was not counted: {stats:?}");

    // truncate the (rewritten) entry: the length header must catch it
    let path = code_file(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let third = Session::new().with_cache_dir(&dir);
    let (code, t) = third.compile_source_timed(&target, kernel.source).unwrap();
    assert!(!t.from_cache);
    assert_eq!(code.render(), clean, "recompile after truncation must match");
    assert!(third.stats().code_corruptions >= 1, "{:?}", third.stats());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt BURS table file falls back to table generation — the
/// session still compiles, counts the corruption, and loads nothing.
#[test]
fn corrupt_tables_fall_back_to_generation() {
    let dir = scratch_dir("corrupt-tables");
    let target = record_isa::targets::tic25::target();
    let kernel = record_dspstone::kernels().into_iter().next().unwrap();

    let first = Session::new().with_cache_dir(&dir);
    let clean = first.compile_source(&target, kernel.source).unwrap().render();

    let tables = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("burs-"))
        .expect("the compile left a table file on disk");
    let mut bytes = std::fs::read(&tables).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&tables, &bytes).unwrap();

    let second = Session::new().with_cache_dir(&dir);
    let code = second.compile_source(&target, kernel.source).unwrap();
    assert_eq!(code.render(), clean, "regenerated tables must compile identically");
    let stats = second.stats();
    assert_eq!(stats.tables_loaded, 0, "corrupt tables must not load");
    assert!(stats.code_corruptions >= 1, "{stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-process warm start, modeled as two sessions sharing a cache
/// directory: the second session answers the whole tic25 suite from
/// disk — BURS tables loaded, zero labels computed, byte-identical to a
/// cache-less session's output.
#[test]
fn warm_start_answers_the_suite_from_disk() {
    let dir = scratch_dir("warm-start");
    let target = record_isa::targets::tic25::target();

    let first = Session::new().with_cache_dir(&dir);
    for kernel in record_dspstone::kernels() {
        first.compile_source(&target, kernel.source).unwrap();
    }
    assert_eq!(first.stats().tables_loaded, 0, "nothing on disk yet");

    let fresh = Session::new(); // no cache: the ground truth
    let second = Session::new().with_cache_dir(&dir);
    for kernel in record_dspstone::kernels() {
        let (code, t) = second.compile_source_timed(&target, kernel.source).unwrap();
        assert!(t.from_cache, "{}: expected a disk hit", kernel.name);
        assert_eq!(t.labels_computed, 0, "{}", kernel.name);
        let truth = fresh.compile_source(&target, kernel.source).unwrap();
        assert_eq!(code.render(), truth.render(), "{}: cached code differs", kernel.name);
    }
    let stats = second.stats();
    assert_eq!(stats.code_hits, 10);
    assert_eq!(stats.code_misses, 0);
    assert_eq!(stats.tables_loaded, 1, "one table load warm-starts the target");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: atomic commit discipline. The disk write protocol is
/// write-temp → fsync → rename, so a writer killed at *any* point
/// before the rename leaves only a `*.tmp.*` orphan and never a
/// truncated file under a committed name. This test plants all three
/// crash states by hand and checks each is contained: temps are swept
/// on attach, torn committed files (the non-atomic failure mode the
/// fault injector simulates) read as misses, and the good entry keeps
/// serving hits through it all.
#[test]
fn killed_mid_write_leaves_no_committed_garbage() {
    let dir = scratch_dir("kill-mid-write");
    let target = record_isa::targets::tic25::target();
    let kernel = record_dspstone::kernels().into_iter().next().unwrap();
    Session::new().with_cache_dir(&dir).compile_source(&target, kernel.source).unwrap();
    let committed = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("code-"))
        .expect("the compile committed a code entry");
    let good_bytes = std::fs::read(&committed).unwrap();

    // crash state A: killed mid write_all — a partial temp
    std::fs::write(dir.join("code-feed.bin.tmp.4242.0"), &good_bytes[..good_bytes.len() / 3])
        .unwrap();
    // crash state B: killed after fsync, before rename — a complete temp
    std::fs::write(dir.join("code-feed.bin.tmp.4242.1"), &good_bytes).unwrap();
    // crash state C: what a NON-atomic writer would leave — a torn file
    // under a committed name (this is the state the protocol prevents)
    std::fs::write(
        dir.join("code-00000000000000aa-00000000000000bb-00000000000000cc.bin"),
        &good_bytes[..good_bytes.len() / 2],
    )
    .unwrap();

    // a fresh attach sweeps both temps without touching committed files
    let session = Session::new().with_cache_dir(&dir);
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temps survived the attach sweep: {leftovers:?}");

    // the good entry still serves a byte-identical warm hit
    let (_, t) = session.compile_source_timed(&target, kernel.source).unwrap();
    assert!(t.from_cache, "the committed entry must still hit after the crash debris");

    // the offline scrub deletes exactly the torn committed file
    let stats = record::CompileCache::scrub_dir(&dir);
    assert_eq!(stats.corrupt_removed, 1, "{stats:?}");
    assert_eq!(stats.tmps_removed, 0, "attach already swept the temps: {stats:?}");
    assert!(committed.exists(), "scrub must keep the loadable entry");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The scrub is a full integrity pass: torn code entries, undecodable
/// BURS tables, and stale temps are all counted and removed, and what
/// survives is loadable — a second session warm-starts from it. This
/// is the drain-time guarantee `recordd --check-cache` builds on.
#[test]
fn scrub_dir_removes_every_kind_of_damage() {
    let dir = scratch_dir("scrub-all");
    let target = record_isa::targets::tic25::target();
    let kernel = record_dspstone::kernels().into_iter().next().unwrap();
    Session::new().with_cache_dir(&dir).compile_source(&target, kernel.source).unwrap();

    std::fs::write(dir.join("burs-00000000deadbeef.bin"), b"not a table").unwrap();
    std::fs::write(
        dir.join("code-000000000000dead-000000000000beef-000000000000f00d.bin"),
        b"RECCODE\0garbage",
    )
    .unwrap();
    std::fs::write(dir.join("burs-feed.bin.tmp.7.7"), b"half").unwrap();
    std::fs::write(dir.join("README"), b"unrelated file, leave me alone").unwrap();

    let stats = record::CompileCache::scrub_dir(&dir);
    assert_eq!(stats.code_entries, 2, "{stats:?}");
    assert_eq!(stats.table_entries, 2, "{stats:?}");
    assert_eq!(stats.corrupt_removed, 2, "{stats:?}");
    assert_eq!(stats.tmps_removed, 1, "{stats:?}");
    assert!(dir.join("README").exists(), "scrub must not touch unrecognized files");

    // scrubbing is idempotent and what survived is loadable
    assert_eq!(record::CompileCache::scrub_dir(&dir).corrupt_removed, 0);
    let session = Session::new().with_cache_dir(&dir);
    let (_, t) = session.compile_source_timed(&target, kernel.source).unwrap();
    assert!(t.from_cache, "the scrubbed cache must warm-start");
    assert_eq!(session.stats().code_corruptions, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
