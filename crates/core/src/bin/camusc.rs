//! `camusc` — the Camus compiler as a command-line tool (Fig. 6's
//! compiler box).
//!
//! ```text
//! camusc --spec app.p4q --rules subs.camus [options]
//!
//!   --spec FILE         message-format spec (P4 header + annotations)
//!   --rules FILE        subscription rules, one per line
//!   --encap raw|mold    packet encapsulation   [default: mold]
//!   --select FIELD=N    message-type selector for mold (e.g. msg_type=65)
//!   --order H           spec-order|freq-desc|distinct-asc|exact-first
//!   --compress BITS     low-resolution domain mapping
//!   --asic 32|64        Tofino model            [default: 32]
//!   --out DIR           write artifacts         [default: ./camus-out]
//!   --check             compile only; print the report, write nothing
//! ```
//!
//! Writes `pipeline.p4` (P4-14), `pipeline16.p4` (P4-16/v1model),
//! `control_plane.txt`, `bdd.dot` and `report.txt` into the output
//! directory.

use std::fs;
use std::path::PathBuf;
use std::process::exit;

use camus_bdd::order::OrderHeuristic;
use camus_core::{Compiler, CompilerOptions, Encap};
use camus_lang::{parse_program, parse_spec};
use camus_pipeline::resources::AsicModel;

struct Args {
    spec: PathBuf,
    rules: PathBuf,
    encap: Encap,
    order: OrderHeuristic,
    compress: Option<u32>,
    asic: AsicModel,
    out: PathBuf,
    check: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("camusc: {msg}");
    eprintln!(
        "usage: camusc --spec FILE --rules FILE [--encap raw|mold] [--select FIELD=N]\n\
         \t[--order spec-order|freq-desc|distinct-asc|exact-first] [--compress BITS]\n\
         \t[--asic 32|64] [--out DIR] [--check]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut rules = None;
    let mut encap_kind = "mold".to_string();
    let mut select: Option<(String, u64)> = None;
    let mut order = CompilerOptions::default().heuristic;
    let mut compress = None;
    let mut asic = AsicModel::tofino32();
    let mut out = PathBuf::from("camus-out");
    let mut check = false;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--spec" => spec = Some(PathBuf::from(val("--spec"))),
            "--rules" => rules = Some(PathBuf::from(val("--rules"))),
            "--encap" => encap_kind = val("--encap"),
            "--select" => {
                let v = val("--select");
                let (f, n) = v
                    .split_once('=')
                    .unwrap_or_else(|| usage("--select wants FIELD=N"));
                let n: u64 = n
                    .parse()
                    .unwrap_or_else(|_| usage("--select value must be a number"));
                select = Some((f.to_string(), n));
            }
            "--order" => {
                order = match val("--order").as_str() {
                    "spec-order" => OrderHeuristic::SpecOrder,
                    "freq-desc" => OrderHeuristic::FrequencyDescending,
                    "distinct-asc" => OrderHeuristic::DistinctValuesAscending,
                    "exact-first" => OrderHeuristic::ExactFirst,
                    other => usage(&format!("unknown heuristic `{other}`")),
                }
            }
            "--compress" => {
                compress = Some(
                    val("--compress")
                        .parse()
                        .unwrap_or_else(|_| usage("--compress BITS")),
                )
            }
            "--asic" => {
                asic = match val("--asic").as_str() {
                    "32" => AsicModel::tofino32(),
                    "64" => AsicModel::tofino64(),
                    other => usage(&format!("unknown ASIC `{other}`")),
                }
            }
            "--out" => out = PathBuf::from(val("--out")),
            "--check" => check = true,
            "-h" | "--help" => usage("help"),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let encap = match encap_kind.as_str() {
        "raw" => Encap::Raw,
        "mold" => Encap::EthIpUdpMold {
            message_select: select,
        },
        other => usage(&format!("unknown encapsulation `{other}`")),
    };
    Args {
        spec: spec.unwrap_or_else(|| usage("--spec is required")),
        rules: rules.unwrap_or_else(|| usage("--rules is required")),
        encap,
        order,
        compress,
        asic,
        out,
        check,
    }
}

fn main() {
    let args = parse_args();
    let spec_src = fs::read_to_string(&args.spec).unwrap_or_else(|e| {
        eprintln!("camusc: cannot read {}: {e}", args.spec.display());
        exit(1);
    });
    let rules_src = fs::read_to_string(&args.rules).unwrap_or_else(|e| {
        eprintln!("camusc: cannot read {}: {e}", args.rules.display());
        exit(1);
    });

    let spec = parse_spec(&spec_src).unwrap_or_else(|e| {
        eprintln!("camusc: {}: {e}", args.spec.display());
        exit(1);
    });
    let rules = parse_program(&rules_src).unwrap_or_else(|e| {
        eprintln!("camusc: {}: {e}", args.rules.display());
        exit(1);
    });

    let options = CompilerOptions {
        encap: args.encap,
        heuristic: args.order,
        compress_bits: args.compress,
        asic: args.asic,
        ..CompilerOptions::default()
    };
    let compiler = Compiler::new(spec, options).unwrap_or_else(|e| {
        eprintln!("camusc: {e}");
        exit(1);
    });
    let t = std::time::Instant::now();
    let prog = compiler.compile(&rules).unwrap_or_else(|e| {
        eprintln!("camusc: {e}");
        exit(1);
    });
    let elapsed = t.elapsed();

    let mut report = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        report,
        "camusc: compiled {} rules in {elapsed:?}",
        rules.len()
    );
    let _ = writeln!(report, "  conjunctions:     {}", prog.stats.conjunctions);
    let _ = writeln!(
        report,
        "  unsatisfiable:    {}",
        prog.stats.unsat_conjunctions
    );
    let _ = writeln!(report, "  BDD nodes:        {}", prog.stats.bdd_nodes);
    let _ = writeln!(report, "  pipeline states:  {}", prog.stats.states);
    let _ = writeln!(report, "  multicast groups: {}", prog.stats.mcast_groups);
    let _ = writeln!(report, "  table entries:");
    for (name, n) in &prog.stats.table_entries {
        let _ = writeln!(report, "    {name:<28} {n}");
    }
    let _ = writeln!(
        report,
        "  placement:        {} — {} stages, {} SRAM entries, {} TCAM slices{}",
        prog.placement.model.name,
        prog.placement.stages_used,
        prog.placement.sram_entries,
        prog.placement.tcam_slices,
        match &prog.placement.failure {
            None => ", fits".to_string(),
            Some(f) => format!(", DOES NOT FIT: {f}"),
        }
    );
    print!("{report}");

    if !prog.placement.fits() {
        exit(3);
    }
    if args.check {
        return;
    }

    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!("camusc: cannot create {}: {e}", args.out.display());
        exit(1);
    }
    let write = |name: &str, contents: &str| {
        let p = args.out.join(name);
        if let Err(e) = fs::write(&p, contents) {
            eprintln!("camusc: cannot write {}: {e}", p.display());
            exit(1);
        }
        println!("wrote {}", p.display());
    };
    write("pipeline.p4", &prog.p4_source);
    write("pipeline16.p4", &prog.p4_16_source);
    write("control_plane.txt", &prog.control_plane());
    write("bdd.dot", &prog.bdd.to_dot("camus"));
    write("report.txt", &report);
}
