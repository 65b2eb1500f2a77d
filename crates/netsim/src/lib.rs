//! # camus-netsim — discrete-event network simulation
//!
//! The substitution for the paper's hardware testbed (§4 "Throughput
//! and Latency"): a publisher and subscriber connected through a
//! switch, with the feed either **broadcast to the subscriber, which
//! filters in software** (the baseline: "the subscriber filters the
//! feed for add-order messages with stock symbol GOOGL") or **filtered
//! on the switch by a compiled Camus pipeline** ("the filtering is done
//! with Camus").
//!
//! The mechanism behind Figure 7's latency gap is queueing: §4 notes
//! that "broadcasting all packets to servers builds queues at switches
//! and servers, which increases delay and the chances of packet
//! drops". The simulator models exactly those queues:
//!
//! * [`sim`] — the event core: a time-ordered event heap with
//!   deterministic tie-breaking;
//! * [`model`] — link, switch and host models (serialization delay,
//!   pipeline latency, bounded FIFO queues, per-packet/per-message CPU
//!   costs calibrated to a DPDK-class receiver);
//! * [`experiment`] — the Figure 7 experiment harness: run a feed
//!   through either configuration and collect per-message latency
//!   CDFs, throughput and drop counts.

pub mod experiment;
pub mod model;
pub mod sim;

pub use experiment::{
    run_experiment, ExperimentConfig, ExperimentResult, FilterMode, LatencyStats,
};
pub use model::{HostModel, LinkModel, SwitchModel};
