//! # camus-bench — figure-reproduction harness for the paper's §4
//!
//! See the `figures` binary (`cargo run -p camus-bench --release --bin
//! figures -- <fig>`), which regenerates every table/figure series of
//! the paper's evaluation, and the std-only benches under `benches/`
//! (plain binaries built on [`harness`]; the environment has no
//! registry access, so Criterion is not available). Service
//! performance — engine, update plane, fabric, daemon — is measured by
//! the stand-alone package under `benchmark/`, not here.

pub mod figures;
pub mod harness;
pub mod json;
