//! # camus-core — the Camus packet-subscription compiler
//!
//! The paper's primary contribution (§3): a compiler that turns a
//! message-format specification and a set of packet subscriptions into
//! a switch data-plane program.
//!
//! Compilation has two steps:
//!
//! * **Static** ([`statics`]) — once per application: generate the PHV
//!   layout, the parser program for the application's encapsulation
//!   (raw, or the Ethernet/IPv4/UDP/MoldUDP64 market-data stack), the
//!   register block for `@query_counter` state, the per-field table
//!   skeletons, and P4-14 source text for the whole pipeline
//!   ([`p4gen`]).
//! * **Dynamic** ([`dynamic`]) — on every rule update: normalize the
//!   subscription rules to disjunctive form, resolve operands against
//!   the spec ([`resolve`]), build the multi-terminal BDD, slice it
//!   into per-field components and translate every In→Out path into a
//!   match-action table entry (Algorithm 1), allocating multicast
//!   groups for multi-port action sets and linking state updates to
//!   register slots.
//!
//! The top-level entry point is [`Compiler`]:
//!
//! ```
//! use camus_core::{Compiler, CompilerOptions};
//! use camus_lang::{parse_program, parse_spec};
//!
//! let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
//! let rules = parse_program(
//!     "stock == GOOGL : fwd(1)\n\
//!      stock == MSFT and price > 1000 : fwd(2,3)",
//! )
//! .unwrap();
//! let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
//! let program = compiler.compile(&rules).unwrap();
//! assert!(program.stats.total_entries > 0);
//!
//! // The compiled program is directly executable on the pipeline
//! // substrate: here, a GOOGL add-order inside Ethernet/IPv4/UDP/MoldUDP64.
//! use camus_itch::{build_feed_packet, AddOrder, FeedConfig, ItchMessage, Side};
//! let order = AddOrder::new("GOOGL", Side::Buy, 500, 1_000_000);
//! let pkt = build_feed_packet(&FeedConfig::default(), 1, &[ItchMessage::AddOrder(order)]);
//! let mut pipeline = program.pipeline;
//! let decision = pipeline.process(&pkt, 0).unwrap();
//! assert_eq!(decision.ports, vec![camus_pipeline::PortId(1)]);
//! ```

pub mod compile;
pub mod dynamic;
pub mod error;
pub mod incremental;
pub mod p4gen;
pub mod partition;
pub mod resolve;
mod rows;
pub mod statics;

pub use compile::{CompiledProgram, Compiler, CompilerOptions, Encap};
pub use dynamic::CompileStats;
pub use error::CompileError;
pub use incremental::{IncrementalCompiler, UpdateReport};
pub use partition::{full_mask, owner_in_subset, owner_of, PartitionPlan};
