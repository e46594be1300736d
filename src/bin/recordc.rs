//! `recordc` — the RECORD retargetable compiler driver.
//!
//! ```text
//! recordc [OPTIONS] <SOURCE.dfl>
//!
//! Options:
//!   --target <NAME>      tic25 (default) | dsp56k | risc8 | risc<N> | asip-dsp |
//!                        asip-min | asip-default
//!   --netlist <FILE>     generate the compiler from a textual RT-level
//!                        netlist (instruction-set extraction) instead of
//!                        a named target
//!   --emit <WHAT>        asm (default) | bin | both
//!   --run                execute on the simulator after compiling
//!   --trace              with --run: print every executed instruction
//!   --set <VAR=V,V,...>  initialize an input variable (repeatable)
//!   --no-opt             disable every optimization (macro-expansion mode)
//!   --baseline           use the target-specific baseline compiler (tic25 only)
//!   --stats              print size/cycle statistics
//!   -o <FILE>            write the listing/image to FILE instead of stdout
//! ```
//!
//! Example:
//!
//! ```sh
//! recordc examples/dfl/fir.dfl --target tic25 --run --set 'x=1,2,3' --stats
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use record::{baseline, Compiler, PassPlan};
use record_ir::{dfl, lower, Symbol};
use record_isa::TargetDesc;
use record_sim::run_program;

struct Args {
    source: Option<String>,
    target: String,
    netlist: Option<String>,
    emit: String,
    run: bool,
    trace: bool,
    sets: Vec<(String, Vec<i64>)>,
    no_opt: bool,
    baseline: bool,
    stats: bool,
    output: Option<String>,
}

fn usage() -> &'static str {
    "usage: recordc [--target NAME] [--emit asm|bin|both] [--run] \
     [--set VAR=v,v,...] [--no-opt] [--baseline] [--stats] [-o FILE] SOURCE.dfl\n\
     targets: tic25 (default), dsp56k, risc8, risc<N>, asip-dsp, asip-min, asip-default"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        source: None,
        target: "tic25".into(),
        netlist: None,
        emit: "asm".into(),
        run: false,
        trace: false,
        sets: Vec::new(),
        no_opt: false,
        baseline: false,
        stats: false,
        output: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--target" => {
                args.target = it.next().ok_or("--target needs a value")?.clone();
            }
            "--netlist" => {
                args.netlist = Some(it.next().ok_or("--netlist needs a file")?.clone());
            }
            "--emit" => {
                args.emit = it.next().ok_or("--emit needs a value")?.clone();
            }
            "--run" => args.run = true,
            "--trace" => args.trace = true,
            "--no-opt" => args.no_opt = true,
            "--baseline" => args.baseline = true,
            "--stats" => args.stats = true,
            "-o" => {
                args.output = Some(it.next().ok_or("-o needs a value")?.clone());
            }
            "--set" => {
                let spec = it.next().ok_or("--set needs VAR=v,v,...")?;
                let (name, values) = spec.split_once('=').ok_or("--set needs VAR=v,v,...")?;
                let values: Result<Vec<i64>, _> =
                    values.split(',').map(|v| v.trim().parse::<i64>()).collect();
                args.sets.push((
                    name.trim().to_string(),
                    values.map_err(|e| format!("--set {name}: {e}"))?,
                ));
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{}", usage()));
            }
            path => {
                if args.source.replace(path.to_string()).is_some() {
                    return Err("more than one source file".into());
                }
            }
        }
    }
    Ok(args)
}

fn resolve_target(name: &str) -> Result<TargetDesc, String> {
    use record_isa::targets::*;
    match name {
        "tic25" => Ok(tic25::target()),
        "dsp56k" => Ok(dsp56k::target()),
        "asip-dsp" => Ok(asip::build(&asip::AsipParams::dsp())),
        "asip-min" => Ok(asip::build(&asip::AsipParams::minimal())),
        "asip-default" => Ok(asip::build(&asip::AsipParams::default())),
        other => {
            if let Some(n) = other.strip_prefix("risc") {
                let n: u16 = n.parse().map_err(|_| format!("bad register count in `{other}`"))?;
                if n == 0 {
                    return Err("risc needs at least one register".into());
                }
                return Ok(simple_risc::target(n));
            }
            Err(format!("unknown target `{other}`\n{}", usage()))
        }
    }
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let Some(source_path) = &args.source else {
        return Err(usage().to_string());
    };
    let source = std::fs::read_to_string(source_path).map_err(|e| format!("{source_path}: {e}"))?;

    let ast = dfl::parse(&source).map_err(|e| format!("{source_path}: {e}"))?;
    let lir = lower::lower(&ast).map_err(|e| format!("{source_path}: {e}"))?;

    let compiler = match &args.netlist {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let netlist =
                record_isa::netlist_text::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("netlist");
            let (compiler, skipped) = Compiler::from_netlist(name, &netlist, &Default::default())
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "generated compiler from {path}: {} rules ({} extracted forms unmapped)",
                compiler.target().rules.len(),
                skipped
            );
            compiler
        }
        None => Compiler::for_target(resolve_target(&args.target)?).map_err(|e| e.to_string())?,
    };
    let target = compiler.target().clone();

    let code = if args.baseline {
        if target.name != "tic25" {
            return Err("--baseline models the TI-style compiler and needs --target tic25".into());
        }
        baseline::compile(&lir).map_err(|e| e.to_string())?
    } else {
        let plan = if args.no_opt { PassPlan::o0() } else { PassPlan::o2() };
        compiler.compile(&lir, &plan).map_err(|e| e.to_string())?
    };

    let mut out = String::new();
    if args.emit == "asm" || args.emit == "both" {
        out.push_str(&code.render());
    }
    if args.emit == "bin" || args.emit == "both" {
        let image = record::emit::encode(&code);
        out.push_str(&format!("; binary image ({} words)\n", image.len()));
        for chunk in image.chunks(8) {
            let words: Vec<String> = chunk.iter().map(|w| format!("{w:04x}")).collect();
            out.push_str(&format!("  {}\n", words.join(" ")));
        }
    }
    match &args.output {
        Some(path) => std::fs::write(path, &out).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{out}"),
    }

    if args.stats {
        eprintln!("target:      {}", code.target);
        eprintln!("code size:   {} words", code.size_words());
        eprintln!("data size:   {} words", lir.data_words());
    }

    if args.run {
        let mut inputs: HashMap<Symbol, Vec<i64>> = HashMap::new();
        for (name, values) in &args.sets {
            inputs.insert(Symbol::new(name), values.clone());
        }
        let (outputs, result) = if args.trace {
            let mut machine = record_sim::Machine::new(&target).with_trace();
            for (sym, values) in &inputs {
                for (i, v) in values.iter().enumerate() {
                    machine.poke(sym, i as u32, *v, &code).map_err(|e| e.to_string())?;
                }
            }
            let result = machine.run(&code).map_err(|e| e.to_string())?;
            for line in machine.take_trace() {
                eprintln!("{line}");
            }
            let mut outputs = HashMap::new();
            for entry in code.layout.entries() {
                let mut values = Vec::with_capacity(entry.len as usize);
                for i in 0..entry.len {
                    values.push(machine.peek(&entry.sym, i, &code).unwrap_or(0));
                }
                outputs.insert(entry.sym.clone(), values);
            }
            (outputs, result)
        } else {
            run_program(&code, &target, &inputs).map_err(|e| e.to_string())?
        };
        eprintln!("executed in {} cycles ({} instructions)", result.cycles, result.insns);
        // print the program's outputs (and plain vars), inputs elided
        let mut names: Vec<&record_ir::lir::VarInfo> =
            lir.vars.iter().filter(|v| v.kind != record_ir::lir::StorageKind::In).collect();
        names.sort_by(|a, b| a.name.cmp(&b.name));
        for v in names {
            if v.name.is_generated() {
                continue;
            }
            if let Some(values) = outputs.get(&v.name) {
                if values.len() == 1 {
                    println!("{} = {}", v.name, values[0]);
                } else {
                    println!("{} = {values:?}", v.name);
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
