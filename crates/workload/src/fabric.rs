//! Fabric differential-test harness: the pieces the spine shares with
//! the oracle.
//!
//! A fabric routes each raw event to the leaf that owns its sharding
//! symbol, so both the spine and the differential tests need to pull
//! the symbol straight out of the wire bytes — the same spec-driven
//! extraction the oracle's raw-event interpreter uses, packaged as a
//! reusable shard function.

use std::sync::Arc;

use camus_lang::Spec;
use camus_pipeline::bits::extract_bits;

/// A packet → shard-key function, structurally identical to
/// `camus_engine::ShardFn` (that alias is `Arc<dyn Fn(&[u8]) -> u64 +
/// Send + Sync>`; this crate sits below the engine in the dependency
/// order, so it spells the type out).
pub type RawExtractor = Arc<dyn Fn(&[u8]) -> u64 + Send + Sync>;

/// Builds an extractor for `field` of a raw-encapsulated (single
/// header, no network stack) spec: the field's big-endian bits at its
/// declared offset. Short packets extract as 0 — they will be parse
/// dropped by every pipeline identically, so where they route is
/// irrelevant as long as it is deterministic.
///
/// Returns `None` when the spec has no header type or no such field.
pub fn raw_field_extractor(spec: &Spec, field: &str) -> Option<RawExtractor> {
    let ht = spec.header_types.first()?;
    let f = ht.field(field)?;
    let (off, bits) = (u64::from(f.bit_offset), f.bits);
    Some(Arc::new(move |pkt: &[u8]| {
        extract_bits(pkt, off, bits).unwrap_or(0)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::siena::SienaConfig;

    #[test]
    fn extractor_matches_event_generation() {
        let siena = SienaConfig {
            subscriptions: 4,
            int_attributes: 2,
            symbol_attributes: 1,
            symbol_alphabet: 8,
            seed: 7,
            ..SienaConfig::default()
        };
        let wl = siena.generate();
        let extract = raw_field_extractor(&wl.spec, "sym0").expect("sym0 exists");
        for ev in siena.generate_events(&wl, 32) {
            let got = extract(&ev);
            // The extracted value must be one of the alphabet's encoded
            // symbols: re-encode all of them and check membership.
            let ok = (0..8).any(|i| {
                let name = crate::siena::symbol_name(i);
                camus_lang::symbol::encode_symbol(&name, 64) == got
            });
            assert!(ok, "extracted {got:#x} is not an alphabet symbol");
        }
        // Truncated packets extract deterministically.
        assert_eq!(extract(&[]), 0);
    }
}
