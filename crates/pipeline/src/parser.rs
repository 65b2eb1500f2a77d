//! Programmable parser engine.
//!
//! A parse graph in the P4 style: states extract bit-ranges from the
//! packet into the PHV, advance a cursor, and select the next state on
//! a parsed field. Two extensions support the Camus use case:
//!
//! * **message emission** — a state flagged [`ParseState::emit`]
//!   snapshots the current PHV as one *application message*. MoldUDP
//!   packets carry many ITCH messages; the executor evaluates the
//!   filter pipeline once per emitted PHV and unions the forwarding
//!   decisions (§2: the switch executes the actions of all matching
//!   rules);
//! * **end-of-packet selection** — [`Transition::SelectRemaining`]
//!   branches on whether the cursor reached the end of the payload,
//!   which is how the per-message loop terminates.

use crate::bits::extract_bits;
use crate::error::PipelineError;
use crate::phv::{Phv, PhvBuf, PhvField, PhvLayout};

/// Index of a parse state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId(pub u32);

/// A field extraction: copy `bits` bits at `bit_offset` (relative to
/// the cursor) into PHV slot `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extract {
    /// Destination PHV slot.
    pub dst: PhvField,
    /// Offset from the current cursor, in bits.
    pub bit_offset: u32,
    /// Width in bits (1..=64).
    pub bits: u32,
}

/// Control transfer out of a parse state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transition {
    /// Parsing succeeded.
    Accept,
    /// Unconditional jump.
    Always(StateId),
    /// Branch on a PHV field parsed earlier (e.g. EtherType, IP proto,
    /// ITCH message type). Falls back to `default`; with no default, an
    /// unmatched value is a parse error.
    Select {
        /// Selector field.
        field: PhvField,
        /// (value, next-state) cases.
        cases: Vec<(u64, StateId)>,
        /// Default transition; `None` ⇒ error on no match.
        default: Option<StateId>,
    },
    /// Branch on cursor position: `Accept` when the cursor is at (or
    /// past) the end of the packet, otherwise continue at the given
    /// state. Terminates per-message loops.
    SelectRemaining {
        /// State to continue in while payload remains.
        more: StateId,
    },
}

/// One parser state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseState {
    /// Diagnostic name.
    pub name: String,
    /// Extractions performed on entry (offsets relative to the cursor).
    pub extracts: Vec<Extract>,
    /// Cursor advance after extraction, in bits.
    pub advance_bits: u32,
    /// Additional advance read from a PHV field, in *bytes* (for
    /// length-prefixed message blocks like MoldUDP64's; extract the
    /// length first, then advance past the payload).
    pub advance_bytes_from: Option<PhvField>,
    /// Snapshot the PHV as an application message after this state's
    /// extractions.
    pub emit: bool,
    /// Next-state logic.
    pub next: Transition,
}

/// A complete parse program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParserSpec {
    /// Parse states; index = [`StateId`].
    pub states: Vec<ParseState>,
    /// Entry state.
    pub start: StateId,
    /// Safety bound on state executions per packet (hardware parsers
    /// have a fixed maximum too).
    pub max_steps: usize,
}

impl ParserSpec {
    /// Builds a spec with the default step bound (4096).
    pub fn new(states: Vec<ParseState>, start: StateId) -> Self {
        ParserSpec {
            states,
            start,
            max_steps: 4096,
        }
    }

    /// Parses a packet, producing one PHV per emitted message.
    ///
    /// If *no state in the graph* has `emit` set, the final PHV at
    /// accept is the single message (ordinary single-header-stack
    /// programs). Graphs with emitting states never fall back: a packet
    /// whose blocks were all skipped yields zero messages, not a
    /// phantom PHV of unparsed fields.
    pub fn parse(&self, layout: &PhvLayout, bytes: &[u8]) -> Result<Vec<Phv>, PipelineError> {
        let mut work = layout.instantiate();
        let mut out = PhvBuf::default();
        self.parse_into(layout, bytes, &mut work, &mut out)?;
        Ok(out.into_vec())
    }

    /// Allocation-free variant of [`ParserSpec::parse`]: appends the
    /// emitted messages to `out` (which the caller clears), using `work`
    /// as the running PHV. Once `work` and `out` have warmed up to the
    /// packet shape, steady-state parsing performs no heap allocation.
    pub fn parse_into(
        &self,
        layout: &PhvLayout,
        bytes: &[u8],
        work: &mut Phv,
        out: &mut PhvBuf,
    ) -> Result<(), PipelineError> {
        if work.len() != layout.len() {
            *work = layout.instantiate();
        } else {
            work.reset();
        }
        let phv = work;
        let total_bits = (bytes.len() as u64) * 8;
        let start_len = out.len();
        let mut cursor: u64 = 0;
        let mut state_id = self.start;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > self.max_steps {
                return Err(PipelineError::ParseLoopBound);
            }
            let state = &self.states[state_id.0 as usize];
            for e in &state.extracts {
                let off = cursor + u64::from(e.bit_offset);
                let v = extract_bits(bytes, off, e.bits).ok_or_else(|| {
                    PipelineError::ParseUnderflow {
                        state: state.name.clone(),
                        missing_bits: ((off + u64::from(e.bits)).saturating_sub(total_bits)) as u32,
                    }
                })?;
                phv.set(e.dst, v);
            }
            cursor += u64::from(state.advance_bits);
            if let Some(f) = state.advance_bytes_from {
                cursor += phv.get_or_zero(f).saturating_mul(8);
            }
            if cursor > total_bits {
                return Err(PipelineError::ParseUnderflow {
                    state: state.name.clone(),
                    missing_bits: (cursor - total_bits) as u32,
                });
            }
            if state.emit {
                out.push_copy(phv);
            }
            match &state.next {
                Transition::Accept => break,
                Transition::Always(next) => state_id = *next,
                Transition::Select {
                    field,
                    cases,
                    default,
                } => {
                    let v = phv.get_or_zero(*field);
                    match cases.iter().find(|(c, _)| *c == v) {
                        Some((_, next)) => state_id = *next,
                        None => match default {
                            Some(next) => state_id = *next,
                            None => {
                                return Err(PipelineError::ParseNoTransition {
                                    state: state.name.clone(),
                                    value: v,
                                })
                            }
                        },
                    }
                }
                Transition::SelectRemaining { .. } if cursor >= total_bits => break,
                Transition::SelectRemaining { more } => state_id = *more,
            }
        }
        // Whether any state emits is a walk over every state, so it is
        // asked only of a packet that emitted nothing — the one case the
        // answer decides.
        if out.len() == start_len && !self.states.iter().any(|s| s.emit) {
            out.push_copy(phv);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layout: a 1-byte tag, then either a 2-byte `a` (tag 1) or a
    /// 1-byte `b` (tag 2).
    fn tagged_layout() -> (PhvLayout, PhvField, PhvField, PhvField) {
        let mut l = PhvLayout::new();
        let tag = l.add("tag", 8);
        let a = l.add("a", 16);
        let b = l.add("b", 8);
        (l, tag, a, b)
    }

    fn tagged_parser(tag: PhvField, a: PhvField, b: PhvField) -> ParserSpec {
        ParserSpec::new(
            vec![
                ParseState {
                    name: "start".into(),
                    extracts: vec![Extract {
                        dst: tag,
                        bit_offset: 0,
                        bits: 8,
                    }],
                    advance_bits: 8,
                    advance_bytes_from: None,
                    emit: false,
                    next: Transition::Select {
                        field: tag,
                        cases: vec![(1, StateId(1)), (2, StateId(2))],
                        default: None,
                    },
                },
                ParseState {
                    name: "parse_a".into(),
                    extracts: vec![Extract {
                        dst: a,
                        bit_offset: 0,
                        bits: 16,
                    }],
                    advance_bits: 16,
                    advance_bytes_from: None,
                    emit: false,
                    next: Transition::Accept,
                },
                ParseState {
                    name: "parse_b".into(),
                    extracts: vec![Extract {
                        dst: b,
                        bit_offset: 0,
                        bits: 8,
                    }],
                    advance_bits: 8,
                    advance_bytes_from: None,
                    emit: false,
                    next: Transition::Accept,
                },
            ],
            StateId(0),
        )
    }

    #[test]
    fn selects_branch_by_tag() {
        let (l, tag, a, b) = tagged_layout();
        let p = tagged_parser(tag, a, b);
        let msgs = p.parse(&l, &[1, 0xab, 0xcd]).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].get(a), Some(0xabcd));
        assert_eq!(msgs[0].get(b), None);

        let msgs = p.parse(&l, &[2, 0x7f]).unwrap();
        assert_eq!(msgs[0].get(b), Some(0x7f));
        assert_eq!(msgs[0].get(a), None);
    }

    #[test]
    fn unknown_tag_is_parse_error() {
        let (l, tag, a, b) = tagged_layout();
        let p = tagged_parser(tag, a, b);
        let err = p.parse(&l, &[9]).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::ParseNoTransition { value: 9, .. }
        ));
    }

    #[test]
    fn short_packet_is_underflow() {
        let (l, tag, a, b) = tagged_layout();
        let p = tagged_parser(tag, a, b);
        let err = p.parse(&l, &[1, 0xab]).unwrap_err();
        assert!(matches!(err, PipelineError::ParseUnderflow { .. }));
    }

    #[test]
    fn message_loop_emits_per_message() {
        // Packet: count byte, then `count` 2-byte messages.
        let mut l = PhvLayout::new();
        let val = l.add("val", 16);
        let p = ParserSpec::new(
            vec![
                ParseState {
                    name: "hdr".into(),
                    extracts: vec![],
                    advance_bits: 8,
                    advance_bytes_from: None,
                    emit: false,
                    next: Transition::SelectRemaining { more: StateId(1) },
                },
                ParseState {
                    name: "msg".into(),
                    extracts: vec![Extract {
                        dst: val,
                        bit_offset: 0,
                        bits: 16,
                    }],
                    advance_bits: 16,
                    advance_bytes_from: None,
                    emit: true,
                    next: Transition::SelectRemaining { more: StateId(1) },
                },
            ],
            StateId(0),
        );
        let msgs = p
            .parse(&l, &[3, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03])
            .unwrap();
        assert_eq!(msgs.len(), 3);
        let vals: Vec<u64> = msgs.iter().map(|m| m.get(val).unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn empty_message_loop_emits_nothing_extra() {
        let mut l = PhvLayout::new();
        let _val = l.add("val", 16);
        let p = ParserSpec::new(
            vec![ParseState {
                name: "hdr".into(),
                extracts: vec![],
                advance_bits: 8,
                advance_bytes_from: None,
                emit: false,
                next: Transition::SelectRemaining { more: StateId(0) },
            }],
            StateId(0),
        );
        // One header byte, no messages: the PHV itself is the message.
        let msgs = p.parse(&l, &[0]).unwrap();
        assert_eq!(msgs.len(), 1);
    }

    #[test]
    fn loop_bound_trips_on_no_advance() {
        let mut l = PhvLayout::new();
        let _ = l.add("x", 8);
        let p = ParserSpec::new(
            vec![ParseState {
                name: "spin".into(),
                extracts: vec![],
                advance_bits: 0,
                advance_bytes_from: None,
                emit: false,
                next: Transition::Always(StateId(0)),
            }],
            StateId(0),
        );
        assert_eq!(
            p.parse(&l, &[0, 1, 2]).unwrap_err(),
            PipelineError::ParseLoopBound
        );
    }

    #[test]
    fn length_prefixed_blocks_advance_by_field() {
        // Blocks of [len:1][payload:len]; extract the first payload byte
        // of each block as `v`.
        let mut l = PhvLayout::new();
        let len = l.add("len", 8);
        let v = l.add("v", 8);
        let p = ParserSpec::new(
            vec![ParseState {
                name: "block".into(),
                extracts: vec![
                    Extract {
                        dst: len,
                        bit_offset: 0,
                        bits: 8,
                    },
                    Extract {
                        dst: v,
                        bit_offset: 8,
                        bits: 8,
                    },
                ],
                advance_bits: 8,
                advance_bytes_from: Some(len),
                emit: true,
                next: Transition::SelectRemaining { more: StateId(0) },
            }],
            StateId(0),
        );
        // Two blocks: len=2 payload [0xaa, 0xbb]; len=1 payload [0xcc].
        let msgs = p.parse(&l, &[2, 0xaa, 0xbb, 1, 0xcc]).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].get(v), Some(0xaa));
        assert_eq!(msgs[1].get(v), Some(0xcc));
    }

    #[test]
    fn length_prefix_running_past_end_is_underflow() {
        let mut l = PhvLayout::new();
        let len = l.add("len", 8);
        let p = ParserSpec::new(
            vec![ParseState {
                name: "block".into(),
                extracts: vec![Extract {
                    dst: len,
                    bit_offset: 0,
                    bits: 8,
                }],
                advance_bits: 8,
                advance_bytes_from: Some(len),
                emit: true,
                next: Transition::SelectRemaining { more: StateId(0) },
            }],
            StateId(0),
        );
        assert!(matches!(
            p.parse(&l, &[5, 0xaa]).unwrap_err(),
            PipelineError::ParseUnderflow { .. }
        ));
    }

    #[test]
    fn advance_past_end_is_underflow() {
        let mut l = PhvLayout::new();
        let _ = l.add("x", 8);
        let p = ParserSpec::new(
            vec![ParseState {
                name: "hdr".into(),
                extracts: vec![],
                advance_bits: 64,
                advance_bytes_from: None,
                emit: false,
                next: Transition::Accept,
            }],
            StateId(0),
        );
        assert!(matches!(
            p.parse(&l, &[0]).unwrap_err(),
            PipelineError::ParseUnderflow { .. }
        ));
    }
}
