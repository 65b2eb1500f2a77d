//! Flow sharding for the multi-core engine.
//!
//! The shard key decides which worker — and therefore which register
//! file — a packet's messages update. Sharding on the ITCH stock symbol
//! keeps a counter's updates on a single worker, and the multi-core
//! engine's decisions identical to the sequential executor's, only when
//! every register is written and read under one symbol and each packet
//! carries one symbol. A counter one symbol writes and another reads,
//! or a packet whose add-orders name several symbols (it goes to its
//! first symbol's worker), splits a register across workers; ROADMAP
//! item 1 reproduces both (see DESIGN.md, "Engine architecture").
//!
//! [`itch_symbol_key`] walks the raw frame (Ethernet → IPv4 → UDP →
//! MoldUDP64 → ITCH) without allocating and returns the first
//! add-order's 8-byte symbol; packets with no add-order fall back to a
//! FNV-1a hash of the whole frame, which at least spreads them evenly.

use std::sync::Arc;

/// A shard-key extractor: raw frame → 64-bit flow key.
pub type ShardFn = Arc<dyn Fn(&[u8]) -> u64 + Send + Sync>;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates low bits before a modulus, so
/// structured keys (ASCII symbols) still spread evenly.
pub use camus_pipeline::cache::mix64;

/// Salt of the worker choice. The spine picks a key's leaf from
/// `mix64(key)` and the decision cache its slot from another salted
/// mix; reading the same bits here would hand all of a leaf's keys to
/// a fraction of its workers.
const WORKER_SALT: u64 = 0xd1b5_4a32_d192_ed03;

/// The worker, of `workers`, that serves shard key `key`.
#[inline]
pub fn worker_of(key: u64, workers: usize) -> usize {
    (mix64(key ^ WORKER_SALT) % workers.max(1) as u64) as usize
}

const ETH_LEN: usize = 14;
const UDP_LEN: usize = 8;
const MOLD_HEADER_LEN: usize = 20;
const ADD_ORDER_LEN: usize = 36;
/// Offset of the 8-byte stock field inside an add-order message
/// (type 1 + locate 2 + tracking 2 + timestamp 6 + order_ref 8 +
/// side 1 + shares 4).
const STOCK_OFFSET: usize = 24;

/// Extracts the first add-order's stock symbol (as a big-endian `u64`)
/// from an Ethernet/IPv4/UDP/MoldUDP64/ITCH frame. Returns `None` when
/// any layer is malformed or the packet carries no add-order message.
///
/// Multi-byte fields use the SWAR loads from [`camus_itch::bytes`]
/// (single wide reads with zero-filled tails), so the walk stays
/// branch-lean and panic-free even on truncated frames — the explicit
/// length guards keep the semantics identical to the old
/// byte-at-a-time version.
pub fn itch_symbol_key(packet: &[u8]) -> Option<u64> {
    use camus_itch::bytes::{load_be_u16, load_be_u64};
    if packet.len() < ETH_LEN + 20 {
        return None;
    }
    // Ethertype must be IPv4.
    if load_be_u16(packet, 12) != 0x0800 {
        return None;
    }
    let ip = &packet[ETH_LEN..];
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if ip[0] >> 4 != 4 || ihl < 20 || ip.len() < ihl + UDP_LEN {
        return None;
    }
    if ip[9] != 17 {
        return None;
    }
    let mold = &ip[ihl + UDP_LEN..];
    if mold.len() < MOLD_HEADER_LEN {
        return None;
    }
    let count = usize::from(load_be_u16(mold, 18));
    let mut off = MOLD_HEADER_LEN;
    for _ in 0..count {
        if off + 2 > mold.len() {
            return None;
        }
        let len = usize::from(load_be_u16(mold, off));
        off += 2;
        if off + len > mold.len() {
            return None;
        }
        let msg = &mold[off..off + len];
        if len >= ADD_ORDER_LEN && msg[0] == b'A' {
            // One 8-byte read; len >= 36 guarantees it is in bounds.
            return Some(load_be_u64(msg, STOCK_OFFSET));
        }
        off += len;
    }
    None
}

/// The default shard function: first add-order symbol, FNV-1a over the
/// whole frame as fallback.
pub fn itch_symbol_shard() -> ShardFn {
    Arc::new(|packet| itch_symbol_key(packet).unwrap_or_else(|| fnv1a(packet)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_itch::itch::{encode_stock, AddOrder, ItchMessage, Side};
    use camus_itch::{build_feed_packet, FeedConfig};

    #[test]
    fn extracts_first_add_order_symbol() {
        let cfg = FeedConfig::default();
        let msgs = vec![
            ItchMessage::OrderDelete { order_ref: 1 },
            ItchMessage::AddOrder(AddOrder::new("GOOGL", Side::Buy, 10, 100)),
            ItchMessage::AddOrder(AddOrder::new("MSFT", Side::Sell, 20, 200)),
        ];
        let pkt = build_feed_packet(&cfg, 1, &msgs);
        let key = itch_symbol_key(&pkt).unwrap();
        assert_eq!(key, u64::from_be_bytes(encode_stock("GOOGL")));
    }

    #[test]
    fn no_add_order_means_none() {
        let cfg = FeedConfig::default();
        let pkt = build_feed_packet(&cfg, 1, &[ItchMessage::OrderDelete { order_ref: 1 }]);
        assert_eq!(itch_symbol_key(&pkt), None);
        // The shard fn still yields a stable key.
        let shard = itch_symbol_shard();
        assert_eq!(shard(&pkt), shard(&pkt));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert_eq!(itch_symbol_key(&[]), None);
        assert_eq!(itch_symbol_key(&[0u8; 40]), None);
        let cfg = FeedConfig::default();
        let mut pkt = build_feed_packet(
            &cfg,
            1,
            &[ItchMessage::AddOrder(AddOrder::new(
                "GOOGL",
                Side::Buy,
                1,
                1,
            ))],
        );
        // Truncate mid-message: the walk must bail, not panic.
        pkt.truncate(pkt.len() - 10);
        assert_eq!(itch_symbol_key(&pkt), None);
    }

    #[test]
    fn same_symbol_same_key_across_packets() {
        let cfg = FeedConfig::default();
        let a = build_feed_packet(
            &cfg,
            1,
            &[ItchMessage::AddOrder(AddOrder::new(
                "AAPL",
                Side::Buy,
                5,
                50,
            ))],
        );
        let b = build_feed_packet(
            &cfg,
            999,
            &[ItchMessage::AddOrder(AddOrder::new(
                "AAPL",
                Side::Sell,
                9,
                90,
            ))],
        );
        assert_eq!(itch_symbol_key(&a), itch_symbol_key(&b));
    }
}
