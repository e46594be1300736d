//! A parametric ASIP generator.
//!
//! Section 4.2 of the paper: ASIPs "frequently come with generic
//! parameters, such as the bitwidth of the data path, the number of
//! registers, and the set of hardware-supported operations. The user
//! should at least be able to retarget a compiler to every set of
//! parameter values." [`AsipParams`] is that set of generic parameters;
//! [`build`] turns one point of the configuration space into a complete
//! [`TargetDesc`] that the rest of the tool chain retargets to
//! automatically. The ASIP family is the homogeneous-register corner of
//! the processor cube (Fig. 1), so [`build`] names a point and lets
//! [`CubeParams::from_asip`] generate its grammar.

use crate::cube::CubeParams;
use crate::target::TargetDesc;

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
    /// Single-instruction multiply–accumulate present? A MAC implies a
    /// multiplier: with `has_mac` set, the target has the multiply rules
    /// whatever `has_mul` says.
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
/// Panics if `n_regs == 0`, or if the point is degenerate by
/// [`CubeParams::validate`]: `word_width` outside `4..=64`, or
/// `imm_bits` 0 or wider than the data path.
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
    let mut target = CubeParams::from_asip(params)
        .build()
        .unwrap_or_else(|e| panic!("ASIP parameters are not a valid cube point: {e}"));
    target.name = name;
    target
}

#[cfg(test)]
mod tests {
    use record_ir::{BinOp, Op};

    use super::*;
    use crate::pattern::Predicate;

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
    fn mac_implies_a_multiplier() {
        for base in [AsipParams::default(), AsipParams::minimal(), AsipParams::dsp()] {
            let without = build(&AsipParams { has_mac: true, has_mul: false, ..base.clone() });
            let with = build(&AsipParams { has_mac: true, has_mul: true, ..base });
            assert!(without.name.contains("-mac"), "{}", without.name);
            assert_eq!(without, with);
        }
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
        build(&AsipParams { n_regs: 0, ..AsipParams::default() });
    }

    #[test]
    #[should_panic(expected = "word width 2 outside 4..=64")]
    fn word_width_below_the_cube_range_rejected() {
        build(&AsipParams { word_width: 2, ..AsipParams::default() });
    }

    #[test]
    fn word_width_parameter_respected() {
        assert_eq!(build(&AsipParams { word_width: 24, ..AsipParams::default() }).word_width, 24);
    }
}
