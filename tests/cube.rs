//! The processor cube as a generator: invariants and regressions.
//!
//! * **Validity by construction** — every seeded cube point passes its
//!   own `validate()`, builds a `TargetDesc` without panicking, and the
//!   built target passes the `TargetDesc` referential-integrity check
//!   (2k seeds).
//! * **Fingerprint injectivity** — distinct cube points build targets
//!   with distinct structural fingerprints (sampled).
//! * **Corpus replay** — every minimized `(target-seed, program)` pair
//!   under `tests/corpus/targets/` recompiles and cross-checks cleanly,
//!   so fuzz-found bugs stay fixed without re-fuzzing.
//! * **Sweep smoke** — a small seeded target-fuzz run ends with zero
//!   failures and a well-formed JSON survival report.
//! * **ASIP corner** — `asip::build` names points of the cube's
//!   homogeneous corner; the target fingerprints of the three presets and
//!   of the retargeting demo's two off-preset points are pinned, so any
//!   change to that grammar shows up here.

use std::collections::HashMap;
use std::path::Path;

use record::{Compiler, PassPlan};
use record_isa::cube::{CubeParams, RegFile};
use record_isa::pattern::PatLeaf;
use record_isa::targets::asip::{self, AsipParams};
use record_isa::{NonTermKind, TargetDesc};
use record_repro::fuzz;

#[test]
fn every_seeded_cube_point_is_valid_and_builds() {
    for seed in 0u64..2000 {
        let params = CubeParams::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(params.validate(), Ok(()), "seed {seed}: {params:?}");
        let target = params
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: valid point fails to build: {e}"));
        target
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: built target is inconsistent: {e}"));
    }
}

/// The ASIP configurations the tool chain ships or demonstrates: the
/// three presets plus the two off-preset points of
/// `examples/retarget_asip.rs`.
fn asip_configurations() -> [(&'static str, AsipParams); 5] {
    let minimal_agu = AsipParams { n_ars: 2, has_mul: true, ..AsipParams::minimal() };
    let dsp_24 = AsipParams { word_width: 24, ..AsipParams::dsp() };
    [
        ("default", AsipParams::default()),
        ("minimal", AsipParams::minimal()),
        ("dsp", AsipParams::dsp()),
        ("minimal + AGU", minimal_agu),
        ("DSP, 24-bit datapath", dsp_24),
    ]
}

/// The target fingerprint keys the compile cache and names the on-disk
/// BURS table file, so it moves whenever the generated grammar does.
/// Re-pin only together with an intended grammar change, and say why.
#[test]
fn asip_target_fingerprints_are_pinned() {
    let pinned: [u64; 5] = [
        0x8bc1_e6ef_a689_f5c0,
        0x6b41_6b6c_181f_7784,
        0xebcb_123a_96d1_fdbd,
        0x0bf0_6fdb_7ff3_6094,
        0x4275_dd44_64ad_56c5,
    ];
    for ((name, p), want) in asip_configurations().into_iter().zip(pinned) {
        let target = asip::build(&p);
        target.validate().unwrap_or_else(|e| panic!("asip {name}: {e}"));
        assert_eq!(
            record::cache::target_fingerprint(&target),
            want,
            "asip {name} ({}): fingerprint moved",
            target.name
        );
        assert!(Compiler::for_target(target).is_ok(), "asip {name}");
    }
}

/// Every register operand a rule reads appears in its listing text, so
/// `ADD r2,r0,a` names the register it adds to instead of reading as an
/// accumulate into `r2`.
fn assert_listing_names_register_operands(target: &TargetDesc) {
    for rule in &target.rules {
        for (i, leaf) in rule.leaves().into_iter().enumerate() {
            let PatLeaf::Nt(nt) = leaf else { continue };
            if matches!(target.nonterm(nt).kind, NonTermKind::Reg(_)) {
                assert!(
                    rule.asm.contains(&format!("{{{i}}}")),
                    "{}: `{}` omits register operand {{{i}}}",
                    target.name,
                    rule.asm
                );
            }
        }
    }
}

#[test]
fn homogeneous_listings_name_every_register_operand() {
    for (_, p) in asip_configurations() {
        assert_listing_names_register_operands(&asip::build(&p));
    }
    let mut homogeneous = 0;
    for seed in 0u64..200 {
        let params = CubeParams::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if matches!(params.reg_file, RegFile::Homogeneous { .. }) {
            assert_listing_names_register_operands(&params.build().unwrap());
            homogeneous += 1;
        }
    }
    assert!(homogeneous > 50, "only {homogeneous} homogeneous points in 200 seeds");
}

/// Saturation changes only what ADD/SUB compute, so a logic operation
/// between two saturating adds must not switch the mode off and on.
#[test]
fn asip_logic_ops_keep_the_saturation_mode() {
    let source = "program logic_between_sat;
        in a, b: fix;
        out y, z, w: fix;
        begin
          y := sadd(a, b);
          z := a & b;
          w := sadd(y, a);
        end";
    let target = asip::build(&AsipParams::dsp());
    let lir = record_ir::lower::lower(&record_ir::dfl::parse(source).unwrap()).unwrap();
    let code =
        Compiler::for_target(target.clone()).unwrap().compile(&lir, &PassPlan::o2()).unwrap();
    let listing = code.render();
    assert_eq!(code.size_words(), 9, "{listing}");
    assert_eq!(listing.matches("SSAT").count(), 1, "{listing}");
    assert!(!listing.contains("RSAT"), "{listing}");

    let inputs = HashMap::from([("a".into(), vec![30_000]), ("b".into(), vec![30_000])]);
    let (out, _) = record_sim::run_program(&code, &target, &inputs).unwrap();
    for (name, want) in [("y", 32_767), ("z", 30_000), ("w", 32_767)] {
        assert_eq!(out[&name.into()], vec![want], "{name}\n{listing}");
    }
}

#[test]
fn fingerprints_are_injective_across_distinct_cube_points() {
    // distinct cube points must build structurally distinct targets;
    // the fingerprint is the cache key the compile cache and the BURS
    // table store rely on
    let mut seen: HashMap<u64, (u64, CubeParams)> = HashMap::new();
    for seed in 0u64..400 {
        let params = CubeParams::from_seed(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let fp = match params.build() {
            Ok(t) => t.fingerprint(),
            Err(e) => panic!("seed {seed}: {e}"),
        };
        if let Some((other_seed, other)) = seen.get(&fp) {
            assert_eq!(
                &params, other,
                "fingerprint collision between different points (seeds {seed} and {other_seed})"
            );
        }
        seen.insert(fp, (seed, params));
    }
    assert!(seen.len() > 100, "sample too degenerate: {} distinct targets", seen.len());
}

#[test]
fn names_encode_distinct_points_distinctly() {
    for seed in 0u64..500 {
        let a = CubeParams::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = CubeParams::from_seed((seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if a != b {
            assert_ne!(a.name(), b.name(), "two distinct points share a name: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn corpus_targets_replay_clean() {
    // every fuzz-found (target-seed, program) pair stays fixed forever
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/targets");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("corpus dir exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("dfl") {
            continue;
        }
        match fuzz::replay_target_corpus_file(&path) {
            Ok(compared) => {
                assert!(
                    compared,
                    "{}: corpus entry no longer compiles on its target (benign skip); \
                     the regression it pins is untested",
                    path.display()
                );
            }
            Err(e) => panic!("corpus regression resurfaced: {e}"),
        }
        seen += 1;
    }
    assert!(seen >= 1, "tests/corpus/targets/ lost its entries");
}

#[test]
fn small_target_sweep_is_clean() {
    let cfg = fuzz::TargetFuzzConfig {
        targets: 12,
        programs: 3,
        base_seed: 0xDAC97,
        dspstone: true,
        minimize: true,
    };
    let report = fuzz::run_target_fuzz(&cfg);
    assert!(report.clean(), "target-fuzz smoke failures:\n{report}");
    assert!(report.compared > 0, "sweep compared nothing:\n{report}");
    let json = report.render_json(cfg.base_seed);
    record_trace::json::validate(&json).expect("survival report is well-formed JSON");
    assert!(json.contains("\"corners\""));
}
