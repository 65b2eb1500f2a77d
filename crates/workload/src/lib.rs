//! # camus-workload — workload generators for the evaluation
//!
//! Reimplementations of the workloads §4 evaluates with:
//!
//! * [`siena`] — a clone of the *Siena Synthetic Benchmark Generator*'s
//!   subscription/event model (attribute universe, per-subscription
//!   predicate counts, operator and value distributions), used for the
//!   compiler space-efficiency sweeps of Figures 5a and 5b;
//! * [`itch_subs`] — the Figure 5c workload: ITCH subscriptions of the
//!   form `stock == S ∧ price > P : fwd(H)` with `S` one of 100 stock
//!   symbols, `P ∈ (0, 1000)` and `H` one of 200 end-hosts;
//! * [`trace`] — market-data feed synthesis for the Figure 7 latency
//!   experiments: a Nasdaq-like trace (bursty arrivals, Zipf symbol
//!   popularity, 0.5 % GOOGL) and a uniform synthetic feed (5 % GOOGL);
//! * [`zipf`] — the Zipf sampler behind symbol popularity.
//!
//! Two additions serve the update-plane (live churn) work:
//!
//! * [`churn`] — timed add/remove schedules over Siena and ITCH rule
//!   sets, driving the incremental compiler and the engine's update
//!   plane;
//! * [`interp`] — the naive AST interpreter the differential tests use
//!   as their ground-truth oracle;
//! * [`faults`] — deterministic fault-injection plans (wire corruption,
//!   scripted worker panics/deaths, capacity bombs) for the robustness
//!   soak tests.
//!
//! All generators are deterministic given a seed.

pub mod bus_churn;
pub mod churn;
pub mod fabric;
pub mod faults;
pub mod interp;
pub mod itch_subs;
pub mod siena;
pub mod soak;
pub mod trace;
pub mod zipf;

pub use bus_churn::{run_bus_churn, BusChurnConfig, BusChurnReport};
pub use churn::{itch_churn, siena_churn, ChurnConfig, ChurnSchedule, ChurnStep, SienaChurn};
pub use fabric::{raw_field_extractor, RawExtractor};
pub use faults::{
    capacity_bomb, ChaosConfig, ChaosPlan, FaultPlan, FaultPlanConfig, Mutation, NodeEvent,
    NodeEventKind,
};
pub use interp::{entry_multisets, eval_cond, naive_ports, naive_ports_for_event};
pub use itch_subs::{generate_itch_subscriptions, ItchSubsConfig};
pub use siena::{SienaConfig, SienaWorkload};
pub use soak::soak_seeds;
pub use trace::{bench_feed, synthesize_feed, TimedPacket, TraceConfig, TraceKind};
