//! A parametric ASIP generator.
//!
//! Section 4.2 of the paper: ASIPs "frequently come with generic
//! parameters, such as the bitwidth of the data path, the number of
//! registers, and the set of hardware-supported operations. The user
//! should at least be able to retarget a compiler to every set of
//! parameter values." [`AsipParams`] is that set of generic parameters;
//! [`build`] turns one point of the configuration space into a complete
//! [`TargetDesc`] that the rest of the tool chain retargets to
//! automatically.

use record_ir::{BinOp, Op, UnOp};

use crate::pattern::{units, Cost, PatNode, Predicate};
use crate::target::{AguDesc, LoopCtrl, ModeDesc, RptDesc, TargetBuilder, TargetDesc};

/// Generic parameters of the ASIP family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsipParams {
    /// Data-path bit width.
    pub word_width: u32,
    /// Number of general-purpose registers (accumulator-style machines
    /// use `1`).
    pub n_regs: u16,
    /// Hardware multiplier present? Without one, only multiplications by
    /// powers of two are supported (via the shifter).
    pub has_mul: bool,
    /// Single-instruction multiply–accumulate present (implies `has_mul`)?
    pub has_mac: bool,
    /// Barrel shifter present? Without one, only shift-by-one.
    pub has_barrel_shift: bool,
    /// Saturating-arithmetic mode present?
    pub has_sat_mode: bool,
    /// Immediate field width in bits.
    pub imm_bits: u32,
    /// Number of address registers with free post-modify (0 = no AGU).
    pub n_ars: u16,
    /// Hardware repeat of a single instruction?
    pub has_rpt: bool,
}

impl Default for AsipParams {
    fn default() -> Self {
        AsipParams {
            word_width: 16,
            n_regs: 4,
            has_mul: true,
            has_mac: false,
            has_barrel_shift: false,
            has_sat_mode: false,
            imm_bits: 8,
            n_ars: 2,
            has_rpt: false,
        }
    }
}

impl AsipParams {
    /// A minimal control-oriented configuration: no multiplier, no AGU.
    pub fn minimal() -> Self {
        AsipParams {
            word_width: 16,
            n_regs: 2,
            has_mul: false,
            has_mac: false,
            has_barrel_shift: false,
            has_sat_mode: false,
            imm_bits: 8,
            n_ars: 0,
            has_rpt: false,
        }
    }

    /// A DSP-oriented configuration: MAC, saturation, AGU, repeat.
    pub fn dsp() -> Self {
        AsipParams {
            word_width: 16,
            n_regs: 4,
            has_mul: true,
            has_mac: true,
            has_barrel_shift: true,
            has_sat_mode: true,
            imm_bits: 12,
            n_ars: 4,
            has_rpt: true,
        }
    }
}

/// Builds the target for one parameter set.
///
/// The generated name encodes the configuration, e.g. `asip-r4-mac-agu2`.
///
/// # Panics
///
/// Panics if `n_regs == 0` or `word_width` is outside `1..=64`.
///
/// # Example
///
/// ```
/// use record_isa::targets::asip::{build, AsipParams};
///
/// let dsp = build(&AsipParams::dsp());
/// assert!(dsp.name.contains("mac"));
/// // no multiplier => no Mul rule
/// let min = build(&AsipParams::minimal());
/// assert!(min
///     .rules
///     .iter()
///     .all(|r| r.root_op() != Some(record_ir::Op::Bin(record_ir::BinOp::Mul))
///         || r.pred.is_some()));
/// ```
pub fn build(params: &AsipParams) -> TargetDesc {
    assert!(params.n_regs > 0, "ASIP needs at least one register");
    assert!((1..=64).contains(&params.word_width), "word width out of range");
    let mut name = format!("asip-r{}", params.n_regs);
    if params.has_mac {
        name.push_str("-mac");
    } else if params.has_mul {
        name.push_str("-mul");
    }
    if params.n_ars > 0 {
        name.push_str(&format!("-agu{}", params.n_ars));
    }
    if params.has_sat_mode {
        name.push_str("-sat");
    }

    let mut b = TargetBuilder::new(name, params.word_width);

    let r_c = b.reg_class("r", params.n_regs);
    let r = b.nt_reg("r", r_c);
    let mem = b.nt_mem("mem");
    let imm = b.nt_imm("imm", params.imm_bits);

    b.base_mem_rules(mem);
    b.base_imm_rule(imm);

    let ld = b.chain(r, mem, "LD {d},{0}", Cost::new(1, 1));
    b.with_units(ld, units::MOVE);
    let ldi = b.chain(r, imm, "LDI {d},{0}", Cost::new(1, 1));
    b.with_units(ldi, units::ALU);
    let st = b.chain(mem, r, "ST {0},{d}", Cost::new(1, 1));
    b.with_units(st, units::MOVE);

    // Register-memory ALU operations (accumulator style keeps code
    // compact; this is the domain-specific flavour of many ASIPs).
    for (op, opname) in [
        (BinOp::Add, "ADD"),
        (BinOp::Sub, "SUB"),
        (BinOp::And, "AND"),
        (BinOp::Or, "OR"),
        (BinOp::Xor, "XOR"),
    ] {
        let rule = b.pat(
            r,
            PatNode::op(Op::Bin(op), vec![PatNode::nt(r), PatNode::nt(mem)]),
            &format!("{opname} {{d}},{{1}}"),
            Cost::new(1, 1),
        );
        b.with_units(rule, units::ALU);
        let rule_rr = b.pat(
            r,
            PatNode::op(Op::Bin(op), vec![PatNode::nt(r), PatNode::nt(r)]),
            &format!("{opname}R {{d}},{{1}}"),
            Cost::new(1, 1),
        );
        b.with_units(rule_rr, units::ALU);
        // the saturation mode changes only what ADD/SUB compute
        if matches!(op, BinOp::Add | BinOp::Sub) {
            b.mode_sensitive(rule).mode_sensitive(rule_rr);
        }
    }
    let addi = b.pat(
        r,
        PatNode::op(Op::Bin(BinOp::Add), vec![PatNode::nt(r), PatNode::nt(imm)]),
        "ADDI {d},{1}",
        Cost::new(1, 1),
    );
    b.with_units(addi, units::ALU);

    if params.has_mul {
        let mul = b.pat(
            r,
            PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(r), PatNode::nt(mem)]),
            "MUL {d},{1}",
            Cost::new(1, if params.has_mac { 1 } else { 2 }),
        );
        b.with_units(mul, units::MUL);
        let mul_rr = b.pat(
            r,
            PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(r), PatNode::nt(r)]),
            "MULR {d},{1}",
            Cost::new(1, if params.has_mac { 1 } else { 2 }),
        );
        b.with_units(mul_rr, units::MUL);
    } else {
        // Multiplier-less configurations still handle powers of two.
        let shmul = b.pat(
            r,
            PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(r), PatNode::op(Op::Const, vec![])]),
            "SHLK {d},{0}",
            Cost::new(1, 1),
        );
        b.with_pred(shmul, Predicate::ConstPow2).with_units(shmul, units::ALU);
    }

    if params.has_mac {
        let mac = b.pat(
            r,
            PatNode::op(
                Op::Bin(BinOp::Add),
                vec![
                    PatNode::nt(r),
                    PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(r), PatNode::nt(mem)]),
                ],
            ),
            "MAC {d},{1},{2}",
            Cost::new(1, 1),
        );
        b.with_units(mac, units::MUL | units::ALU);
    }

    if params.has_barrel_shift {
        for (op, opname) in [(BinOp::Shl, "SHL"), (BinOp::Shr, "SHR")] {
            let rule = b.pat(
                r,
                PatNode::op(Op::Bin(op), vec![PatNode::nt(r), PatNode::op(Op::Const, vec![])]),
                &format!("{opname} {{d}},{{1}}"),
                Cost::new(1, 1),
            );
            b.with_pred(rule, Predicate::ConstFits { bits: 6 }).with_units(rule, units::ALU);
        }
    } else {
        for (op, opname) in [(BinOp::Shl, "SHL1"), (BinOp::Shr, "SHR1")] {
            let rule = b.pat(
                r,
                PatNode::op(Op::Bin(op), vec![PatNode::nt(r), PatNode::op(Op::Const, vec![])]),
                &format!("{opname} {{d}}"),
                Cost::new(1, 1),
            );
            b.with_pred(rule, Predicate::ConstEquals(1)).with_units(rule, units::ALU);
        }
    }

    for (op, opname) in [(UnOp::Neg, "NEG"), (UnOp::Not, "NOT"), (UnOp::Abs, "ABS")] {
        let rule = b.pat(
            r,
            PatNode::op(Op::Un(op), vec![PatNode::nt(r)]),
            &format!("{opname} {{d}}"),
            Cost::new(1, 1),
        );
        b.with_units(rule, units::ALU);
    }

    if params.has_sat_mode {
        let sat = b.mode(ModeDesc {
            name: "sat".into(),
            set_asm: "SSAT".into(),
            clear_asm: "RSAT".into(),
            cost: Cost::new(1, 1),
            default_on: false,
        });
        for (op, opname) in [(BinOp::SatAdd, "ADD"), (BinOp::SatSub, "SUB")] {
            let rule = b.pat(
                r,
                PatNode::op(Op::Bin(op), vec![PatNode::nt(r), PatNode::nt(mem)]),
                &format!("{opname} {{d}},{{1}}"),
                Cost::new(1, 1),
            );
            b.with_mode(rule, sat, true).with_units(rule, units::ALU).mode_sensitive(rule);
        }
    }

    b.store(r, "ST {0},{d}", Cost::new(1, 1));

    b.memory(1, 2048);
    if params.n_ars > 0 {
        b.agu(AguDesc {
            n_ars: params.n_ars,
            post_range: 1,
            ar_load_cost: Cost::new(1, 1),
            ar_add_cost: Cost::new(1, 1),
        });
    }
    b.loop_ctrl(LoopCtrl {
        init_cost: Cost::new(1, 1),
        end_cost: Cost::new(2, 2),
        rpt: if params.has_rpt {
            Some(RptDesc { cost: Cost::new(1, 1), max_count: 4096 })
        } else {
            None
        },
    });

    b.build().expect("asip description is internally consistent")
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // Code::default() + .insns is the clearest test setup
mod tests {
    use super::*;

    #[test]
    fn default_and_presets_are_valid() {
        build(&AsipParams::default()).validate().unwrap();
        build(&AsipParams::minimal()).validate().unwrap();
        build(&AsipParams::dsp()).validate().unwrap();
    }

    #[test]
    fn name_encodes_configuration() {
        assert_eq!(build(&AsipParams::dsp()).name, "asip-r4-mac-agu4-sat");
        assert_eq!(build(&AsipParams::minimal()).name, "asip-r2");
    }

    #[test]
    fn multiplierless_has_only_pow2_mul() {
        let t = build(&AsipParams::minimal());
        let mul_rules: Vec<_> =
            t.rules.iter().filter(|r| r.root_op() == Some(Op::Bin(BinOp::Mul))).collect();
        assert_eq!(mul_rules.len(), 1);
        assert_eq!(mul_rules[0].pred, Some(Predicate::ConstPow2));
    }

    #[test]
    fn mac_configuration_has_mac_rule() {
        let t = build(&AsipParams::dsp());
        assert!(t.rules.iter().any(|r| r.asm.starts_with("MAC ")));
        let t = build(&AsipParams::default());
        assert!(!t.rules.iter().any(|r| r.asm.starts_with("MAC ")));
    }

    #[test]
    fn sat_mode_optional() {
        assert!(build(&AsipParams::dsp()).modes.len() == 1);
        assert!(build(&AsipParams::minimal()).modes.is_empty());
    }

    #[test]
    fn agu_optional() {
        assert!(build(&AsipParams::minimal()).agu.is_none());
        assert!(build(&AsipParams::dsp()).agu.is_some());
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_registers_rejected() {
        let mut p = AsipParams::default();
        p.n_regs = 0;
        build(&p);
    }

    #[test]
    fn word_width_parameter_respected() {
        let mut p = AsipParams::default();
        p.word_width = 24;
        assert_eq!(build(&p).word_width, 24);
    }
}
