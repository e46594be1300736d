//! The paper's strongest claim, on the paper's own target: a compiler
//! generated from the C25 datapath *netlist* — with no hand-written
//! instruction-set description — compiles DSPStone statements that
//! compute exactly what the hand-described target computes.

use std::collections::HashMap;

use record::{Compiler, PassPlan};
use record_ir::Symbol;
use record_sim::run_program;

#[test]
fn extraction_recovers_the_mac_family() {
    let netlist = record_isa::targets::tic25::netlist();
    let insns = record_ise::extract(&netlist).unwrap();
    let texts: Vec<String> = insns.iter().map(|i| i.to_string()).collect();
    // LAC: acc := 0 + mem ; PAC: acc := 0 + p ; APAC: acc := acc + p ;
    // SPAC: acc := acc - p ; ADD: acc := acc + mem ; LT / MPY / SACL
    for expected in [
        "acc := (0 + mem",   // LAC
        "acc := (0 + p)",    // PAC
        "acc := (acc + p)",  // APAC
        "acc := (acc - p)",  // SPAC
        "acc := (acc + mem", // ADD
        "p := (t * mem",     // MPY
        "p := (t * #imm13)", // MPYK
        "t := mem",          // LT
        "mem[dma] := acc",   // SACL
    ] {
        assert!(
            texts.iter().any(|t| t.contains(expected)),
            "missing `{expected}` in extracted set:\n{texts:#?}"
        );
    }
}

#[test]
fn netlist_generated_compiler_matches_hand_described_target() {
    let netlist = record_isa::targets::tic25::netlist();
    let (generated, _) =
        Compiler::from_netlist("tic25-from-netlist", &netlist, &Default::default()).unwrap();
    let hand_described = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();

    // straight-line DSPStone statements (the generated target has no AGU,
    // so loop kernels are compared on the hand-described target only)
    for kernel_name in ["real_update", "complex_multiply", "complex_update"] {
        let kernel = record_dspstone::kernel(kernel_name).unwrap();
        let lir = record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap()).unwrap();
        let gen_code = generated
            .compile(&lir, &PassPlan::o2())
            .unwrap_or_else(|e| panic!("{kernel_name} on generated target: {e}"));
        let hand_code = hand_described.compile(&lir, &PassPlan::o2()).unwrap();

        let inputs = kernel.inputs(5);
        let expected = kernel.reference(&inputs);
        let (gen_out, _) = run_program(&gen_code, generated.target(), &inputs).unwrap();
        let (hand_out, _) = run_program(&hand_code, hand_described.target(), &inputs).unwrap();
        for (name, _) in kernel.outputs() {
            let sym = Symbol::new(*name);
            assert_eq!(gen_out[&sym], expected[&sym], "{kernel_name}.{name} (generated)");
            assert_eq!(hand_out[&sym], expected[&sym], "{kernel_name}.{name} (hand)");
        }
        // single-format machine: every generated instruction is one word,
        // so the generated code may be larger but not absurdly so
        assert!(
            gen_code.size_words() <= hand_code.size_words() * 3,
            "{kernel_name}: generated {} vs hand {}",
            gen_code.size_words(),
            hand_code.size_words()
        );
    }
}

#[test]
fn generated_compiler_handles_expressions_the_figure_promises() {
    let netlist = record_isa::targets::tic25::netlist();
    let (compiler, _) =
        Compiler::from_netlist("tic25-from-netlist", &netlist, &Default::default()).unwrap();
    let code = compiler
        .compile_source(
            "program p; in a, b, c: fix; out y: fix;
             begin y := (a - b) & (c + 3); end",
        )
        .unwrap();
    let inputs: HashMap<Symbol, Vec<i64>> =
        [(Symbol::new("a"), vec![29]), (Symbol::new("b"), vec![5]), (Symbol::new("c"), vec![10])]
            .into_iter()
            .collect();
    let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
    assert_eq!(out[&Symbol::new("y")], vec![(29 - 5) & (10 + 3)]);
}
