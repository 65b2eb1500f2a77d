//! # camus-itch — market-data wire formats
//!
//! The paper's running example and evaluation workload: "Nasdaq
//! publishes market data feeds using the ITCH format. ITCH data is
//! delivered to subscribers as a stream of IP multicast packets, each
//! containing a UDP datagram. Inside each UDP datagram is a MoldUDP
//! header containing a sequence number, a session ID, and a count of
//! the number of ITCH messages inside the packet" (§2).
//!
//! This crate implements that stack from Ethernet up, smoltcp-style:
//! zero-copy typed *views* over byte buffers with checked accessors,
//! plus owned message structs and encoders:
//!
//! * [`ether`] — Ethernet II frames;
//! * [`ipv4`] — IPv4 headers (with checksum);
//! * [`udp`] — UDP datagrams;
//! * [`moldudp`] — MoldUDP64 session framing (session, sequence,
//!   message count, length-prefixed blocks);
//! * [`itch`] — ITCH 5.0 messages: add-order (the paper's experiment
//!   subject) plus system-event, order-executed, order-cancel,
//!   order-delete and trade;
//! * [`feed`] — end-to-end feed packet building and parsing;
//! * [`pcap`] — capture-file writing/reading for tcpdump/Wireshark
//!   interoperability and trace replay.
//!
//! Robustness contract: decoding raw bytes never panics. Every view is
//! gated by `new_checked`, fixed-width reads go through total helpers,
//! and the crate denies `clippy::unwrap_used`/`expect_used` outside
//! tests, so truncated or garbage frames surface as [`WireError`]s (or
//! zero-filled reads through a misused view), never as worker crashes.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bytes;
pub mod ether;
pub mod feed;
pub mod ipv4;
pub mod itch;
pub mod moldudp;
pub mod pcap;
pub mod udp;

pub use feed::{build_feed_packet, parse_feed_packet, FeedConfig};
pub use itch::{AddOrder, ItchMessage, Side};

use std::fmt;

/// Errors from decoding market-data packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header of the named layer.
    Truncated(&'static str),
    /// A length field is inconsistent with the buffer.
    BadLength(&'static str),
    /// A field holds a value the decoder cannot interpret.
    BadValue(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(l) => write!(f, "truncated {l}"),
            WireError::BadLength(l) => write!(f, "bad length in {l}"),
            WireError::BadValue(l) => write!(f, "bad value in {l}"),
        }
    }
}

impl std::error::Error for WireError {}
