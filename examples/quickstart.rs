//! Quickstart: compile three subscriptions over the paper's ITCH
//! message format and watch the compiled switch program forward
//! packets.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use camus::compiler::{Compiler, CompilerOptions};
use camus::itch::itch::{AddOrder, Side};
use camus::lang::{parse_program, parse_spec};

fn main() {
    // The message-format specification (paper Figure 2): a P4 header
    // declaration plus @query_field annotations.
    let spec = parse_spec(camus::lang::spec::ITCH_SPEC).expect("spec parses");

    // Subscriptions in the paper's Figure 1 syntax.
    let rules = parse_program(
        "stock == GOOGL : fwd(1)\n\
         stock == MSFT and price > 1000 : fwd(2,3)\n\
         shares > 100 and shares < 10000 : fwd(4)",
    )
    .expect("rules parse");

    // Static + dynamic compilation. `raw()` skips the market-data
    // encapsulation so we can feed bare ITCH messages below; see the
    // itch_pubsub example for the full Ethernet/IP/UDP/MoldUDP stack.
    let compiler = Compiler::new(spec, CompilerOptions::raw()).expect("compiler config ok");
    let program = compiler.compile(&rules).expect("rules compile");

    println!("== compiled program ==");
    println!("tables:");
    for (name, entries) in &program.stats.table_entries {
        println!("  {name:<24} {entries} entries");
    }
    println!("multicast groups: {}", program.stats.mcast_groups);
    println!("BDD nodes:        {}", program.stats.bdd_nodes);
    println!(
        "placement:        {} stages of {}, fits={}",
        program.placement.stages_used,
        program.placement.model.name,
        program.placement.fits()
    );

    println!("\n== generated P4 (first 20 lines) ==");
    for line in program.p4_source.lines().take(20) {
        println!("  {line}");
    }

    println!("\n== control-plane rules (first 10) ==");
    for line in program.control_plane().lines().take(10) {
        println!("  {line}");
    }

    // Execute the program on a few messages.
    let mut pipeline = program.pipeline;
    println!("\n== forwarding decisions ==");
    let packets = [
        (
            "GOOGL buy 100 @ 500",
            AddOrder::new("GOOGL", Side::Buy, 100, 500),
        ),
        (
            "MSFT sell 50 @ 2000",
            AddOrder::new("MSFT", Side::Sell, 50, 2000),
        ),
        (
            "MSFT sell 50 @ 900",
            AddOrder::new("MSFT", Side::Sell, 50, 900),
        ),
        (
            "ORCL buy 5000 @ 10",
            AddOrder::new("ORCL", Side::Buy, 5000, 10),
        ),
        (
            "GOOGL buy 500 @ 10",
            AddOrder::new("GOOGL", Side::Buy, 500, 10),
        ),
    ];
    for (label, msg) in packets {
        let decision = pipeline.process(&msg.encode(), 0).expect("packet parses");
        let ports: Vec<u16> = decision.ports.iter().map(|p| p.0).collect();
        println!("  {label:<22} -> {ports:?}");
    }
}
