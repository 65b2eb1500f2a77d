//! # camus-pipeline — a programmable-ASIC match-action pipeline substrate
//!
//! The paper runs its compiled programs on a Barefoot Tofino switch.
//! This crate is the substitution (DESIGN.md §2): an RMT-style
//! reconfigurable pipeline that executes exactly the artifacts the Camus
//! compiler emits — parser programs, match-action tables, multicast
//! groups and register blocks — and enforces the same resource
//! constraints a real switching ASIC imposes (TCAM range expansion,
//! per-stage memory budgets, bounded stage counts).
//!
//! Components, mirroring the architecture of Bosshart et al.'s RMT
//! ("Forwarding Metamorphosis", SIGCOMM'13 — reference \[6\] of the
//! paper):
//!
//! * [`phv`] — the Packet Header Vector: the typed field bus carried
//!   between stages, including compiler-defined metadata such as the
//!   BDD state register;
//! * [`parser`] — a programmable parse graph that extracts header
//!   fields from raw bytes into the PHV (one PHV per application
//!   message, so multi-message MoldUDP packets evaluate per message);
//! * [`table`] — match-action tables with exact, ternary, range and
//!   LPM match kinds, priority semantics and a per-state interval index;
//! * [`register`] — stateful register arrays with tumbling-window
//!   aggregates (the `@query_counter` substrate);
//! * [`multicast`] — the multicast group engine (packet replication);
//! * [`resources`] — SRAM/TCAM accounting, range→ternary expansion and
//!   greedy stage placement against a Tofino-like resource model;
//! * [`pipeline`] — the executor tying it together: parse → per-field
//!   tables → leaf table → forward.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bits;
pub mod cache;
pub mod error;
pub mod multicast;
pub mod parser;
pub mod phv;
pub mod pipeline;
pub mod register;
pub mod resources;
pub mod table;

pub use cache::{DecisionCache, DEFAULT_CACHE_SHIFT};
pub use camus_telemetry::{DataPlaneTelemetry, Histogram, TelemetrySnapshot};
pub use error::PipelineError;
pub use multicast::{GroupId, MulticastTable, PortId};
pub use phv::{Phv, PhvBuf, PhvField, PhvLayout};
pub use pipeline::{
    DecisionBuf, ExecState, ExecStats, ForwardDecision, ParseDrop, Pipeline, ShardCtx,
};
pub use resources::{place_chain, AdmissionError, AsicModel, Memory, PlacementReport};
pub use table::{ActionOp, Entry, Key, MatchKind, MatchValue, Table};
