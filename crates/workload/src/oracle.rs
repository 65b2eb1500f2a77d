//! The differential oracle, written once: a system under test — a
//! session's report, an engine, a fabric, the daemon — decides
//! every packet like a *fresh* big-switch compile of the rule set live
//! when the packet was submitted (SNAP's one-big-switch), and like the
//! naive AST interpreter ([`crate::interp`]) wherever that can decode
//! the packet: as the MoldUDP64 feed stack when the fresh program's
//! parser emits one PHV per message, as one raw event otherwise.
//!
//! There is one delivery contract: a packet is decided by exactly the
//! generation current when it was submitted, never an earlier or a
//! later one. Engines hand each batch the program live when its
//! packets were submitted, so this holds with or without a drain
//! before an update.
//!
//! The first [`EpochOracle::publish`] opens generation 0, like an
//! engine's initial program. The compile is the caller's closure: this
//! crate sits below the compiler.

use camus_itch::{AddOrder, Side};
use camus_lang::ast::Rule;
use camus_lang::Spec;
use camus_pipeline::{ForwardDecision, Pipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::interp::{naive_ports_for_event, naive_ports_for_feed};
use crate::itch_subs::stock_symbol;

/// One published rule set and its fresh big-switch compile.
struct Generation {
    rules: Vec<Rule>,
    program: Pipeline,
}

impl Generation {
    fn decide(&mut self, packet: &[u8], now_us: u64) -> ForwardDecision {
        self.program
            .process(packet, now_us)
            .expect("a fresh program decides every packet")
    }

    /// Panics unless `got` forwards where the interpreter does, when
    /// it can decode `packet`.
    fn assert_interpreter_agrees(
        &self,
        spec: &Spec,
        packet: &[u8],
        got: &ForwardDecision,
        at: &str,
    ) {
        let naive = if self.program.parser.states.iter().any(|s| s.emit) {
            naive_ports_for_feed(spec, &self.rules, packet)
        } else {
            naive_ports_for_event(spec, &self.rules, packet)
        };
        if let Some(want) = naive {
            assert_eq!(ports(got), want, "{at}: decision vs the AST interpreter");
        }
    }
}

/// The big switch: a full compile of a whole rule set.
type BigSwitch<'a> = Box<dyn FnMut(&[Rule]) -> Pipeline + 'a>;

/// Submission-epoch bookkeeping for one run of a system under test.
pub struct EpochOracle<'a> {
    spec: Spec,
    compile: BigSwitch<'a>,
    generations: Vec<Generation>,
    /// `(packet, now_us, generation at submission)`.
    submitted: Vec<(Vec<u8>, u64, usize)>,
}

impl<'a> EpochOracle<'a> {
    /// An oracle for rules over `spec`; `compile` is the big switch (a
    /// full compile with the options the system under test runs).
    pub fn new(spec: &Spec, compile: impl FnMut(&[Rule]) -> Pipeline + 'a) -> Self {
        EpochOracle {
            spec: spec.clone(),
            compile: Box::new(compile),
            generations: Vec::new(),
            submitted: Vec::new(),
        }
    }

    /// Opens the next generation: `rules` is the whole active set.
    pub fn publish(&mut self, rules: &[Rule]) {
        let program = (self.compile)(rules);
        let rules = rules.to_vec();
        self.generations.push(Generation { rules, program });
    }

    /// Records `packet` as submitted under the current generation.
    pub fn submit(&mut self, packet: &[u8], now_us: u64) {
        let generation = self.current();
        self.submitted.push((packet.to_vec(), now_us, generation));
    }

    fn current(&self) -> usize {
        let published = self.generations.len();
        published.checked_sub(1).expect("publish a rule set first")
    }

    /// Judges a system's decisions, one slot per submitted packet in
    /// submission order (`None`: lost on purpose — quarantined or
    /// orphaned). Each decided packet must equal the fresh program of
    /// the generation current when it was submitted, and the
    /// interpreter there. Returns the number of `None` slots for the
    /// caller's ledger asserts.
    pub fn check(&mut self, decisions: &[Option<&ForwardDecision>]) -> usize {
        assert_eq!(decisions.len(), self.submitted.len(), "one slot per packet");
        let mut missing = 0;
        for (seq, (decision, (packet, now_us, at))) in
            decisions.iter().zip(&self.submitted).enumerate()
        {
            let Some(got) = decision else {
                missing += 1;
                continue;
            };
            let want = self.generations[*at].decide(packet, *now_us);
            assert_eq!(
                *got, &want,
                "packet {seq} decided unlike generation {at}, current at its submission"
            );
            let here = format!("packet {seq} at generation {at}");
            self.generations[*at].assert_interpreter_agrees(&self.spec, packet, got, &here);
        }
        missing
    }

    /// Checks a pipeline the caller holds (a session's report, a
    /// sharded compile) on `events` against the current generation: the
    /// fresh program's decision, and the interpreter.
    pub fn check_pipeline(&mut self, pipeline: &mut Pipeline, events: &[Vec<u8>]) {
        let g = self.current();
        let fresh = &mut self.generations[g];
        for (i, ev) in events.iter().enumerate() {
            let here = format!("generation {g}, event {i} {ev:x?}");
            let (got, want) = (pipeline.process(ev, 0), fresh.decide(ev, 0));
            let got = got.expect("the pipeline decides every event");
            assert_eq!(got, want, "{here}: pipeline vs a fresh compile");
            fresh.assert_interpreter_agrees(&self.spec, ev, &got, &here);
        }
    }
}

/// A raw ITCH add-order message (the `Raw` encapsulation: the 36-byte
/// message alone, locate, tracking number, timestamp and order
/// reference zero).
pub fn raw_add_order(symbol: &str, side: Side, shares: u32, price: u32) -> Vec<u8> {
    AddOrder::new(symbol, side, shares, price).encode()
}

/// `n` one-share raw add-order buys, each for one of the first
/// `symbols` [`stock_symbol`]s at a price below `max_price`.
pub fn random_add_orders(n: usize, symbols: usize, max_price: u32, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let sym = stock_symbol(rng.gen_range(0..symbols));
            raw_add_order(&sym, Side::Buy, 1, rng.gen_range(0..max_price))
        })
        .collect()
}

/// The spec of [`event`]: an exact 64-bit symbol `ev.sym` (the shard
/// field of the fabric tests) and a range-matched 32-bit `ev.val`.
pub const EVENT_SPEC: &str = "header_type ev_t { fields { sym: 64; val: 32; } }\n\
                              header ev_t ev;\n\
                              @query_field_exact(ev.sym)\n\
                              @query_field(ev.val)\n";

/// A raw [`EVENT_SPEC`] event: the symbol encoded as the data plane
/// matches it, then the value, both big-endian.
pub fn event(sym: &str, val: u32) -> Vec<u8> {
    let sym = camus_lang::symbol::encode_symbol(sym, 64);
    [&sym.to_be_bytes()[..], &val.to_be_bytes()].concat()
}

/// A decision's egress ports as plain numbers, the interpreter's shape.
pub fn ports(decision: &ForwardDecision) -> Vec<u16> {
    decision.ports.iter().map(|p| p.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_itch::{build_feed_packet, FeedConfig, ItchMessage};
    use camus_lang::ast::Action;
    use camus_lang::{parse_program, parse_spec};
    use camus_pipeline::parser::{Extract, ParseState, ParserSpec, StateId, Transition};
    use camus_pipeline::{ActionOp, PhvLayout, PortId, Table};

    const SPEC: &str = "header_type t { fields { a: 8; } }\nheader t ev;\n@query_field(ev.a)\n";

    /// A careless big switch over one-byte events: it forwards every
    /// event that parses to the first rule's port, whatever the rule's
    /// condition. Right on `a == 0` events for `a == 0 : fwd(p)`.
    fn toy_compile(rules: &[Rule]) -> Pipeline {
        let Action::Fwd(port) = &rules[0].actions[0] else {
            panic!("toy rules forward");
        };
        let mut layout = PhvLayout::new();
        let state = ParseState {
            name: "ev".into(),
            extracts: vec![Extract {
                dst: layout.add("ev.a", 8),
                bit_offset: 0,
                bits: 8,
            }],
            advance_bits: 8,
            advance_bytes_from: None,
            emit: false,
            next: Transition::Accept,
        };
        let forward = vec![ActionOp::Forward(PortId(port[0]))];
        Pipeline {
            layout,
            parser: ParserSpec::new(vec![state], StateId(0)),
            tables: vec![Table::new("t_all", vec![], forward).unwrap()],
            mcast: Default::default(),
            registers: Default::default(),
            state_bindings: vec![],
            init_fields: vec![],
            exec: Default::default(),
        }
    }

    fn oracle() -> EpochOracle<'static> {
        EpochOracle::new(&parse_spec(SPEC).unwrap(), toy_compile)
    }

    fn rules(port: u16) -> Vec<Rule> {
        parse_program(&format!("a == 0 : fwd({port})")).unwrap()
    }

    /// What a system running `a == 0 : fwd(port)` decides for `packet`.
    fn decided_by(port: u16, packet: &[u8]) -> ForwardDecision {
        toy_compile(&rules(port)).process(packet, 0).unwrap()
    }

    #[test]
    #[should_panic(expected = "packet 0 decided unlike generation 1")]
    fn check_refuses_a_decision_from_an_earlier_generation() {
        let mut o = oracle();
        o.publish(&rules(1));
        o.publish(&rules(2));
        o.submit(&[0], 0);
        o.check(&[Some(&decided_by(1, &[0]))]);
    }

    #[test]
    #[should_panic(expected = "packet 0 decided unlike generation 0")]
    fn check_refuses_a_decision_from_a_later_generation() {
        let mut o = oracle();
        o.publish(&rules(1));
        o.submit(&[0], 0);
        o.publish(&rules(2));
        o.check(&[Some(&decided_by(2, &[0]))]);
    }

    #[test]
    #[should_panic(expected = "event 1 [1]: decision vs the AST interpreter")]
    fn check_pipeline_refuses_a_program_the_interpreter_disagrees_with() {
        let mut o = oracle();
        o.publish(&rules(1));
        // Equal to the fresh compile on both events, wrong on `a == 1`.
        o.check_pipeline(&mut toy_compile(&rules(1)), &[vec![0], vec![1]]);
    }

    #[test]
    fn check_counts_every_missing_decision() {
        let mut o = oracle();
        o.publish(&rules(1));
        let packets: [&[u8]; 4] = [&[0], &[0], &[0], &[]];
        for p in packets {
            o.submit(p, 0);
        }
        // Shorter than the header: malformed for the fresh program too,
        // and nothing the interpreter can decode.
        let short = decided_by(1, &[]);
        assert!(short.malformed());
        let decisions = [None, Some(&decided_by(1, &[0])), None, Some(&short)];
        assert_eq!(o.check(&decisions), 2);
    }

    #[test]
    fn feed_packets_are_judged_by_their_add_orders() {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let src = "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)\nprice > 100 : fwd(3)";
        let set = parse_program(src).unwrap();
        let order = |sym, price| ItchMessage::AddOrder(AddOrder::new(sym, Side::Sell, 1, price));
        let delete = ItchMessage::OrderDelete { order_ref: 9 };
        let msgs = [order("GOOGL", 5), delete, order("ORCL", 500)];
        let feed = build_feed_packet(&FeedConfig::default(), 7, &msgs);
        assert_eq!(naive_ports_for_feed(&spec, &set, &feed), Some(vec![1, 3]));
        assert_eq!(naive_ports_for_feed(&spec, &set, &feed[..20]), None);
    }
}
