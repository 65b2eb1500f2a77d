//! Static compilation (§3.1): performed once per application.
//!
//! Generates everything that must exist before any subscription is
//! installed: the PHV layout, the parser program for the application's
//! encapsulation, the preallocated register block for state variables,
//! and the binding of stateful pseudo-fields to register aggregates.
//! The dynamic compiler later *links* subscription actions to this
//! generic update code by slot index — the paper's "pointers to v, f,
//! and args".

use std::collections::HashMap;

use camus_bdd::pred::FieldId;
use camus_lang::spec::Spec;
use camus_pipeline::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
use camus_pipeline::phv::{PhvField, PhvLayout};
use camus_pipeline::pipeline::StateBinding;
use camus_pipeline::register::{AggKind, RegisterFile};

use crate::error::CompileError;
use crate::resolve::{FieldTable, SlotKind};

/// Packet encapsulation of the application's messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Encap {
    /// Messages start at byte 0 of the packet (tests, custom framing).
    Raw,
    /// The paper's market-data stack: Ethernet / IPv4 / UDP / MoldUDP64
    /// with length-prefixed message blocks, evaluated per message.
    EthIpUdpMold {
        /// Name of the header field that discriminates message types,
        /// with the value identifying the application's message — e.g.
        /// `("msg_type", 'A')` for ITCH add-orders. `None` treats every
        /// block as an application message.
        message_select: Option<(String, u64)>,
    },
}

/// The static half of a compiled program.
#[derive(Debug, Clone)]
pub struct StaticPipeline {
    /// PHV layout shared by parser and tables.
    pub layout: PhvLayout,
    /// Parser program.
    pub parser: ParserSpec,
    /// Preallocated register block.
    pub registers: RegisterFile,
    /// Aggregate materialization bindings.
    pub state_bindings: Vec<StateBinding>,
    /// PHV slot per BDD field (indexed by `FieldId`).
    pub field_phv: Vec<PhvField>,
    /// PHV slot of the BDD state metadata register.
    pub state_meta: PhvField,
    /// Register slot per stateful BDD field.
    pub reg_slot: HashMap<FieldId, usize>,
    /// Observation source per aggregate field (`None` = count-style).
    pub observe_src: HashMap<FieldId, Option<PhvField>>,
}

const ETH_BITS: u32 = 14 * 8;
const IP_BITS: u32 = 20 * 8;
const UDP_BITS: u32 = 8 * 8;
const MOLD_BITS: u32 = 20 * 8;

/// Builds the static pipeline for a spec and resolved field table.
pub fn build_static(
    spec: &Spec,
    fields: &FieldTable,
    encap: &Encap,
) -> Result<StaticPipeline, CompileError> {
    let mut layout = PhvLayout::new();
    let state_meta = layout.add("meta.state", 32);

    // PHV slots for every (≤64-bit) spec field of every instance, plus
    // instance base offsets.
    let mut inst_base: HashMap<String, u32> = HashMap::new();
    let mut offset = 0u32;
    for inst in &spec.instances {
        let ht = spec
            .header_type(&inst.type_name)
            .ok_or_else(|| CompileError::BadSpec(format!("missing type {}", inst.type_name)))?;
        inst_base.insert(inst.name.clone(), offset);
        for f in &ht.fields {
            if f.bits <= 64 {
                layout.add(format!("{}.{}", inst.name, f.name), f.bits);
            }
        }
        offset += ht.total_bits();
    }

    // PHV slots for the BDD fields (packet fields alias the spec slots;
    // stateful slots get fresh pseudo-fields).
    let mut field_phv = Vec::with_capacity(fields.len());
    let mut registers = RegisterFile::new();
    let mut state_bindings = Vec::new();
    let mut reg_slot = HashMap::new();
    let mut observe_src = HashMap::new();
    for (i, kind) in fields.kinds.iter().enumerate() {
        let fid = FieldId(i as u32);
        let info = &fields.infos[i];
        let phv = match kind {
            SlotKind::Packet(qf) => layout.get(&qf.field.to_string()).ok_or_else(|| {
                CompileError::BadSpec(format!("field {} not in layout", qf.field))
            })?,
            SlotKind::Agg {
                agg,
                src,
                window_us,
            } => {
                let dst = layout.add(format!("meta.{}", info.name), 64);
                let slot = registers.allocate(*window_us);
                reg_slot.insert(fid, slot);
                state_bindings.push(StateBinding {
                    dst,
                    slot,
                    agg: *agg,
                });
                let src_phv = match src {
                    Some(qf) => Some(layout.get(&qf.field.to_string()).ok_or_else(|| {
                        CompileError::BadSpec(format!("agg source {} not in layout", qf.field))
                    })?),
                    None => None,
                };
                observe_src.insert(fid, src_phv);
                dst
            }
            SlotKind::Counter { window_us, .. } => {
                let dst = layout.add(format!("meta.{}", info.name), 64);
                let slot = registers.allocate(*window_us);
                reg_slot.insert(fid, slot);
                // Counters read as the running sum: incr() folds 1,
                // add(f) folds f, set(x) resets the sum to x.
                state_bindings.push(StateBinding {
                    dst,
                    slot,
                    agg: AggKind::Sum,
                });
                dst
            }
        };
        field_phv.push(phv);
    }

    let parser = match encap {
        Encap::Raw => build_raw_parser(spec, &mut layout, &inst_base)?,
        Encap::EthIpUdpMold { message_select } => {
            build_mold_parser(spec, &mut layout, message_select.as_deref_pair())?
        }
    };

    Ok(StaticPipeline {
        layout,
        parser,
        registers,
        state_bindings,
        field_phv,
        state_meta,
        reg_slot,
        observe_src,
    })
}

/// Small helper: borrow the `(String, u64)` pair as `(&str, u64)`.
trait AsDerefPair {
    fn as_deref_pair(&self) -> Option<(&str, u64)>;
}

impl AsDerefPair for Option<(String, u64)> {
    fn as_deref_pair(&self) -> Option<(&str, u64)> {
        self.as_ref().map(|(s, v)| (s.as_str(), *v))
    }
}

fn extracts_for_instance(
    spec: &Spec,
    layout: &PhvLayout,
    inst: &camus_lang::spec::HeaderInstance,
    base_bits: u32,
) -> Vec<Extract> {
    let ht = spec.header_type(&inst.type_name).expect("validated");
    ht.fields
        .iter()
        .filter(|f| f.bits <= 64)
        .map(|f| Extract {
            dst: layout
                .get(&format!("{}.{}", inst.name, f.name))
                .expect("added above"),
            bit_offset: base_bits + f.bit_offset,
            bits: f.bits,
        })
        .collect()
}

fn build_raw_parser(
    spec: &Spec,
    layout: &mut PhvLayout,
    inst_base: &HashMap<String, u32>,
) -> Result<ParserSpec, CompileError> {
    if spec.instances.is_empty() {
        return Err(CompileError::BadSpec("no header instances declared".into()));
    }
    let mut extracts = Vec::new();
    let mut total = 0u32;
    for inst in &spec.instances {
        let base = inst_base[&inst.name];
        extracts.extend(extracts_for_instance(spec, layout, inst, base));
        total = total.max(base + spec.header_type(&inst.type_name).unwrap().total_bits());
    }
    Ok(ParserSpec::new(
        vec![ParseState {
            name: "app_headers".into(),
            extracts,
            advance_bits: total,
            advance_bytes_from: None,
            emit: false,
            next: Transition::Accept,
        }],
        StateId(0),
    ))
}

fn build_mold_parser(
    spec: &Spec,
    layout: &mut PhvLayout,
    message_select: Option<(&str, u64)>,
) -> Result<ParserSpec, CompileError> {
    if spec.instances.len() != 1 {
        return Err(CompileError::BadSpec(
            "EthIpUdpMold encapsulation requires exactly one header instance".into(),
        ));
    }
    let inst = &spec.instances[0];
    let ht = spec.header_type(&inst.type_name).expect("validated");

    let ethertype = layout.add("meta.ethertype", 16);
    let ip_proto = layout.add("meta.ip_proto", 8);
    let msg_len = layout.add("meta.msg_len", 16);

    // Message-type discriminator: reuse the field's own PHV slot.
    let select = match message_select {
        Some((fname, value)) => {
            let decl = ht.field(fname).ok_or_else(|| {
                CompileError::BadSpec(format!("message-select field `{fname}` not in header"))
            })?;
            if decl.bits > 64 {
                return Err(CompileError::BadSpec(
                    "message-select field wider than 64 bits".into(),
                ));
            }
            let slot = layout
                .get(&format!("{}.{}", inst.name, fname))
                .ok_or_else(|| {
                    CompileError::BadSpec("message-select field has no PHV slot".into())
                })?;
            Some((slot, decl.bit_offset, decl.bits, value))
        }
        None => None,
    };

    // Message payload starts 16 bits (the length prefix) into the block.
    let msg_extracts = extracts_for_instance(spec, layout, inst, 16);

    const S_ETH: StateId = StateId(0);
    const S_IP: StateId = StateId(1);
    const S_UDP: StateId = StateId(2);
    const S_MOLD: StateId = StateId(3);
    const S_BLOCK: StateId = StateId(4);
    const S_ACCEPT_MSG: StateId = StateId(5);
    const S_SKIP_MSG: StateId = StateId(6);

    let mut states = vec![
        ParseState {
            name: "ethernet".into(),
            extracts: vec![Extract {
                dst: ethertype,
                bit_offset: 96,
                bits: 16,
            }],
            advance_bits: ETH_BITS,
            advance_bytes_from: None,
            emit: false,
            next: Transition::Select {
                field: ethertype,
                cases: vec![(0x0800, S_IP)],
                default: None,
            },
        },
        ParseState {
            name: "ipv4".into(),
            extracts: vec![Extract {
                dst: ip_proto,
                bit_offset: 72,
                bits: 8,
            }],
            advance_bits: IP_BITS,
            advance_bytes_from: None,
            emit: false,
            next: Transition::Select {
                field: ip_proto,
                cases: vec![(17, S_UDP)],
                default: None,
            },
        },
        ParseState {
            name: "udp".into(),
            extracts: vec![],
            advance_bits: UDP_BITS,
            advance_bytes_from: None,
            emit: false,
            next: Transition::Always(S_MOLD),
        },
        ParseState {
            name: "moldudp64".into(),
            extracts: vec![],
            advance_bits: MOLD_BITS,
            advance_bytes_from: None,
            emit: false,
            next: Transition::SelectRemaining { more: S_BLOCK },
        },
    ];

    // Block dispatch: read the length prefix (and the discriminator when
    // configured), then parse or skip.
    let mut block_extracts = vec![Extract {
        dst: msg_len,
        bit_offset: 0,
        bits: 16,
    }];
    let next = match select {
        Some((slot, off, bits, value)) => {
            block_extracts.push(Extract {
                dst: slot,
                bit_offset: 16 + off,
                bits,
            });
            Transition::Select {
                field: slot,
                cases: vec![(value, S_ACCEPT_MSG)],
                default: Some(S_SKIP_MSG),
            }
        }
        None => Transition::Always(S_ACCEPT_MSG),
    };
    states.push(ParseState {
        name: "mold_block".into(),
        extracts: block_extracts,
        advance_bits: 0,
        advance_bytes_from: None,
        emit: false,
        next,
    });
    states.push(ParseState {
        name: "app_message".into(),
        extracts: msg_extracts,
        advance_bits: 16,
        advance_bytes_from: Some(msg_len),
        emit: true,
        next: Transition::SelectRemaining { more: S_BLOCK },
    });
    states.push(ParseState {
        name: "skip_message".into(),
        extracts: vec![],
        advance_bits: 16,
        advance_bytes_from: Some(msg_len),
        emit: false,
        next: Transition::SelectRemaining { more: S_BLOCK },
    });

    Ok(ParserSpec::new(states, S_ETH))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve;
    use camus_bdd::order::OrderHeuristic;
    use camus_itch::{build_feed_packet, AddOrder, FeedConfig, ItchMessage, Side};
    use camus_lang::{parse_program, parse_spec};

    /// GOOGL, 500 shares, price 1 000 000.
    fn googl() -> ItchMessage {
        ItchMessage::AddOrder(AddOrder::new("GOOGL", Side::Buy, 500, 1_000_000))
    }

    fn feed(msgs: &[ItchMessage]) -> Vec<u8> {
        build_feed_packet(&FeedConfig::default(), 1, msgs)
    }

    fn itch_static(src: &str, encap: Encap) -> StaticPipeline {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let rules = parse_program(src).unwrap();
        let resolved = resolve(&spec, &rules, OrderHeuristic::ExactFirst).unwrap();
        build_static(&spec, &resolved.fields, &encap).unwrap()
    }

    #[test]
    fn raw_parser_extracts_spec_fields() {
        let sp = itch_static("stock == GOOGL : fwd(1)", Encap::Raw);
        let phvs = sp.parser.parse(&sp.layout, &googl().encode()).unwrap();
        assert_eq!(phvs.len(), 1);
        let stock = sp.layout.get("add_order.stock").unwrap();
        assert_eq!(phvs[0].get(stock), Some(u64::from_be_bytes(*b"GOOGL   ")));
        let shares = sp.layout.get("add_order.shares").unwrap();
        assert_eq!(phvs[0].get(shares), Some(500));
    }

    #[test]
    fn mold_parser_emits_only_selected_messages() {
        let sp = itch_static(
            "stock == GOOGL : fwd(1)",
            Encap::EthIpUdpMold {
                message_select: Some(("msg_type".into(), u64::from(b'A'))),
            },
        );
        // Feed with one add-order and one delete (type 'D', skipped).
        let pkt = feed(&[googl(), ItchMessage::OrderDelete { order_ref: 0 }]);
        let phvs = sp.parser.parse(&sp.layout, &pkt).unwrap();
        assert_eq!(phvs.len(), 1);
        let price = sp.layout.get("add_order.price").unwrap();
        assert_eq!(phvs[0].get(price), Some(1_000_000));
    }

    #[test]
    fn mold_parser_handles_multiple_matches() {
        let sp = itch_static(
            "stock == GOOGL : fwd(1)",
            Encap::EthIpUdpMold {
                message_select: Some(("msg_type".into(), u64::from(b'A'))),
            },
        );
        let pkt = feed(&[googl(), googl(), googl()]);
        let phvs = sp.parser.parse(&sp.layout, &pkt).unwrap();
        assert_eq!(phvs.len(), 3);
    }

    #[test]
    fn mold_parser_rejects_non_udp() {
        let sp = itch_static(
            "stock == GOOGL : fwd(1)",
            Encap::EthIpUdpMold {
                message_select: None,
            },
        );
        let mut pkt = feed(&[]);
        pkt[23] = 6; // TCP
        assert!(sp.parser.parse(&sp.layout, &pkt).is_err());
    }

    #[test]
    fn registers_allocated_for_state_slots() {
        let sp = itch_static(
            "avg(price) > 50 and stock == GOOGL : fwd(1)\nmy_counter > 3 : fwd(2)",
            Encap::Raw,
        );
        // my_counter (declared) + avg(price) (used).
        assert_eq!(sp.registers.len(), 2);
        assert_eq!(sp.state_bindings.len(), 2);
        assert_eq!(sp.reg_slot.len(), 2);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let spec = parse_spec(
            "header_type t { fields { x: 8; } }\nheader t a;\nheader t b;\n@query_field(a.x)",
        )
        .unwrap();
        let rules = parse_program("a.x > 1 : fwd(1)").unwrap();
        let resolved = resolve(&spec, &rules, OrderHeuristic::ExactFirst).unwrap();
        let err = build_static(
            &spec,
            &resolved.fields,
            &Encap::EthIpUdpMold {
                message_select: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::BadSpec(_)));

        let err = build_static(
            &spec,
            &resolved.fields,
            &Encap::EthIpUdpMold {
                message_select: Some(("nope".into(), 1)),
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::BadSpec(_)));
    }
}
