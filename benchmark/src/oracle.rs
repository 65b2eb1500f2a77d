//! The correctness pass: a short, untimed run of the same system with
//! decisions recorded, compared packet by packet with the naive AST
//! interpreter — first over a feed prefix, then across a sequence of
//! mutate → ack → probe-burst steps, each burst judged against the
//! rule set of its own epoch.

use crate::drive::BATCH;
use crate::sut::{self, DaemonSpec, DaemonSut, FabricSut, Packet, PipelineProbe, Rule};
use crate::workloads::{Inputs, Sut, Workload};

/// Feed prefix checked per workload, and the rule-evaluation budget
/// that shortens it on very large programs (the oracle is O(rules)
/// per packet).
const PREFIX: usize = 20_000;
const PREFIX_RULE_EVALS: usize = 40_000_000;
/// Packets per probe burst after each mutation.
const BURST: usize = 256;

pub struct Verdict {
    /// Decisions compared with the oracle.
    pub checked: u64,
    /// Decisions that differed or were missing, plus failed side checks.
    pub wrong: u64,
    pub notes: Vec<String>,
}

/// The rule set a stretch of packets must be judged against.
#[derive(Clone, Copy)]
enum InForce {
    /// The installed program.
    Installed,
    /// The installed program plus one churn rule.
    Plus(usize),
    /// The installed program plus every churn rule.
    Pool,
}

/// One stretch of the submission order and the rules in force for it.
struct Segment {
    packets: std::ops::Range<usize>,
    rules: InForce,
}

/// What was submitted, in order, and what must have decided it.
struct Plan<'a> {
    inp: &'a Inputs,
    prefix: usize,
    submitted: Vec<&'a Packet>,
    segments: Vec<Segment>,
}

impl<'a> Plan<'a> {
    fn new(inp: &'a Inputs) -> Self {
        let prefix = PREFIX
            .min(PREFIX_RULE_EVALS / inp.initial.max(1))
            .min(inp.feed.len() / 2);
        Plan {
            inp,
            prefix,
            submitted: inp.feed[..prefix].iter().collect(),
            segments: vec![Segment {
                packets: 0..prefix,
                rules: InForce::Installed,
            }],
        }
    }

    /// The burst that follows step `s`, to be judged against `rules`.
    fn burst(&mut self, s: usize, rules: InForce) -> &'a [Packet] {
        let feed = &self.inp.feed;
        let from = self.prefix + (s * BURST) % (feed.len() - self.prefix - BURST);
        let frames = &feed[from..from + BURST];
        let start = self.submitted.len();
        self.submitted.extend(frames.iter());
        self.segments.push(Segment {
            packets: start..start + BURST,
            rules,
        });
        frames
    }

    fn rules_of(&self, seg: &Segment) -> Vec<Rule> {
        let mut rules: Vec<Rule> = self.inp.installed().to_vec();
        match seg.rules {
            InForce::Installed => {}
            InForce::Plus(k) => rules.push(self.inp.churn()[k].clone()),
            InForce::Pool => rules.extend_from_slice(self.inp.churn()),
        }
        rules
    }

    /// The ack contract, exactly: a packet submitted after a
    /// mutation's ack is decided by that generation *or a later one*,
    /// and generations never go backwards along the submission order.
    /// (An engine adopts a new generation at its next batch boundary,
    /// so packets still queued — or held in a partial batch — when a
    /// later mutation publishes are legitimately decided by it.)
    fn judge(&self, decisions: &[Option<Vec<u16>>], v: &mut Verdict) {
        if decisions.len() != self.submitted.len() {
            v.wrong += 1;
            v.notes.push(format!(
                "{} decisions recorded for {} packets",
                decisions.len(),
                self.submitted.len()
            ));
            return;
        }
        // `generation` indexes the segment whose rules decided the
        // previous packet; `rules` are that segment's.
        let mut generation = 0;
        let mut rules = self.rules_of(&self.segments[0]);
        for (k, seg) in self.segments.iter().enumerate() {
            for i in seg.packets.clone() {
                v.checked += 1;
                let mut candidate = generation.max(k);
                loop {
                    if candidate != generation {
                        generation = candidate;
                        rules = self.rules_of(&self.segments[generation]);
                    }
                    if decisions[i].as_ref() == Some(&sut::oracle_ports(&rules, self.submitted[i]))
                    {
                        break;
                    }
                    candidate += 1;
                    if candidate == self.segments.len() {
                        v.wrong += 1;
                        if v.notes.len() < 5 {
                            v.notes.push(format!(
                                "packet {i} (epoch {k}): program {:?} matches no epoch from {k} on",
                                decisions[i]
                            ));
                        }
                        generation = k;
                        rules = self.rules_of(seg);
                        break;
                    }
                }
            }
        }
    }
}

fn side_check(ok: bool, what: &str, v: &mut Verdict) {
    if !ok {
        v.wrong += 1;
        v.notes.push(what.to_string());
    }
}

pub fn check(w: &Workload, inp: &Inputs, steps: usize) -> Result<Verdict, String> {
    let mut v = Verdict {
        checked: 0,
        wrong: 0,
        notes: Vec::new(),
    };
    let mut plan = Plan::new(inp);
    let prefix = plan.prefix;
    // Even steps grow the rule set, odd steps restore it; each is
    // followed by a burst continuing the feed.
    let churn_at = |s: usize| (s / 2) % inp.churn().len();

    let decisions = match w.sut {
        Sut::Daemon => {
            let sut = DaemonSut::start(&DaemonSpec {
                pool: &inp.pool,
                initial: inp.initial,
                cache: w.cache,
                telemetry: false,
                record: true,
                internal_feed: 0,
            })?;
            let mut client = sut.connect()?;
            let mut clock = 0u64;
            let mut stamp = |frames: &[Packet]| -> Vec<(Packet, u64)> {
                frames
                    .iter()
                    .map(|p| {
                        clock += 25;
                        (p.clone(), clock)
                    })
                    .collect()
            };
            sut.inject(stamp(&inp.feed[..prefix]))?;
            for s in 0..steps {
                let rule = &inp.churn_text[churn_at(s)];
                let (acked, rules) = if s % 2 == 0 {
                    (client.subscribe(rule), InForce::Plus(churn_at(s)))
                } else {
                    (client.unsubscribe(rule), InForce::Installed)
                };
                side_check(acked.is_ok(), "oracle-pass mutation was not acked", &mut v);
                sut.inject(stamp(plan.burst(s, rules)))?;
            }
            let mut want: Vec<String> = inp.installed().iter().map(|r| r.to_string()).collect();
            want.sort();
            side_check(
                client.snapshot()? == want,
                "final Snapshot differs from the installed program",
                &mut v,
            );
            drop(client);
            let report = sut.finish();
            side_check(report.clean, "DaemonReport::zero_loss() is false", &mut v);
            report.decisions
        }
        Sut::Fabric { leaves } => {
            let masters = [
                sut::compile(inp.installed())?.pipeline,
                sut::compile(&inp.pool)?.pipeline,
            ];
            let mut sut = FabricSut::start(&masters[0], leaves, false, true)?;
            for p in &inp.feed[..prefix] {
                sut.submit(p, 0);
            }
            // A fabric mutation swaps whole masters: even steps install
            // the master holding every churn rule, odd steps go back.
            for s in 0..steps {
                let grow = s % 2 == 0;
                sut.install_master(masters[grow as usize].clone())?;
                let rules = if grow {
                    InForce::Pool
                } else {
                    InForce::Installed
                };
                for p in plan.burst(s, rules) {
                    sut.submit(p, 0);
                }
            }
            let report = sut.finish();
            side_check(report.clean, "FabricReport::reconciles() is false", &mut v);
            report.decisions
        }
        Sut::CompilerOnly => {
            // The cold compile on the prefix, then the cold compile of
            // the same text with one more rule on a burst.
            let mut decisions: Vec<Option<Vec<u16>>> = Vec::new();
            let mut run = |pipeline: &sut::Pipeline, frames: &[Packet]| -> Result<(), String> {
                let mut probe = PipelineProbe::new(pipeline, w.cache);
                for batch in frames.chunks(BATCH) {
                    probe.process_batch(batch, 0)?;
                    decisions.extend(probe.decisions().map(Some));
                }
                Ok(())
            };
            let rules = sut::parse_program(&inp.text)?;
            run(&sut::compile(&rules)?.pipeline, &inp.feed[..prefix])?;
            let grown = format!("{}{}\n", inp.text, inp.churn_text[0]);
            let grown = sut::parse_program(&grown)?;
            run(
                &sut::compile(&grown)?.pipeline,
                plan.burst(0, InForce::Plus(0)),
            )?;
            decisions
        }
    };
    plan.judge(&decisions, &mut v);
    Ok(v)
}
