//! The five workloads and the inputs `--seed` makes for them.
//!
//! Each workload is one service scenario seen whole: a rule program is
//! compiled from text, hosted, fed packets and mutated, so every
//! end-to-end metric exists on every workload. They differ in which
//! layer does the work; `why` records the reason each exists.

use crate::sut::{self, Packet, Rule};

pub enum Program {
    /// `stock == S ∧ price > P : fwd(H)` — exact + range tables; not
    /// cacheable on the stock field.
    Price { rules: usize, symbols: usize },
    /// `stock == S : fwd(H)` — a pure function of the stock field.
    SymbolOnly { symbols: usize, ports: u16 },
}

pub enum Feed {
    /// Frames made from `--seed`, pushed in by the benchmark.
    Seeded { zipf_s: f64 },
    /// `camusd`'s own looped feed (`feed_packets`, `feed_loop`).
    DaemonInternal,
}

pub enum Sut {
    /// A live `camusd`; mutations go over the bus.
    Daemon,
    /// A spine/leaf fabric driven from the benchmark thread; a
    /// mutation is one `install_master` epoch.
    Fabric { leaves: usize },
    /// No engine and no session: the compiler, and its output run on
    /// the calling thread. A mutation is a cold compile of the text
    /// with one rule more or fewer.
    CompilerOnly,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub program: Program,
    /// Rules beyond the installed program that mutations add/remove.
    pub churn_rules: usize,
    pub feed: Feed,
    pub cache: bool,
    pub sut: Sut,
    /// Shares of `--seconds` given to the packet phase, the mutation
    /// phase and the cold-compile phase. Mutations have no share where
    /// they run inside another phase: beside the packets with the
    /// daemon's internal feed, as cold compiles without an engine.
    pub shares: (f64, f64, f64),
}

/// Distinct frames per feed; replayed in a loop.
pub const FEED_PACKETS: usize = 200_000;

pub const ALL: [Workload; 5] = [
    Workload {
        name: "feed_match",
        why: "1000 price rules, uniform feed, cache off: the match chain does the work; \
              table, match and parse changes show here, cache changes must not",
        program: Program::Price {
            rules: 1000,
            symbols: 100,
        },
        churn_rules: 64,
        feed: Feed::Seeded { zipf_s: 0.0 },
        cache: false,
        sut: Sut::Daemon,
        shares: (0.70, 0.15, 0.15),
    },
    Workload {
        name: "feed_hot",
        why: "200 symbol-only rules, Zipf(1.1) feed, decision cache on (~96% hits): shard \
              key, batch copy, ring hop and cache lookup dominate; match changes must not \
              show",
        program: Program::SymbolOnly {
            symbols: 200,
            ports: 32,
        },
        churn_rules: 64,
        feed: Feed::Seeded { zipf_s: 1.1 },
        cache: true,
        sut: Sut::Daemon,
        shares: (0.70, 0.15, 0.15),
    },
    Workload {
        name: "churn_mixed",
        why: "writes beside reads: camusd's own looped feed saturates the packet path while \
              2 bus clients mutate open-loop at 10/s; adds take the delta path, removals a \
              full recompile",
        program: Program::Price {
            rules: 1000,
            symbols: 100,
        },
        churn_rules: 512,
        feed: Feed::DaemonInternal,
        cache: false,
        sut: Sut::Daemon,
        shares: (0.85, 0.0, 0.15),
    },
    Workload {
        name: "compile_cold",
        why: "20000 price rules from text (the paper's Fig. 5c shape): lang, bdd and core do \
              all the work, no engine runs; a mutation is a cold recompile",
        program: Program::Price {
            rules: 20_000,
            symbols: 100,
        },
        churn_rules: 16,
        feed: Feed::Seeded { zipf_s: 0.0 },
        cache: false,
        sut: Sut::CompilerOnly,
        shares: (0.15, 0.0, 0.85),
    },
    Workload {
        name: "fabric_spine",
        why: "2-leaf fabric driven from the benchmark thread: spine routing, per-leaf slices \
              and the two-phase epoch run nowhere else (camusd cannot host a fabric yet)",
        program: Program::Price {
            rules: 1000,
            symbols: 100,
        },
        churn_rules: 8,
        feed: Feed::Seeded { zipf_s: 0.0 },
        cache: false,
        sut: Sut::Fabric { leaves: 2 },
        shares: (0.60, 0.25, 0.15),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Everything a run feeds the program, made from the seed alone.
pub struct Inputs {
    /// The installed program's rules followed by the churn rules; also
    /// the alphabet of every incremental session.
    pub pool: Vec<Rule>,
    /// How many leading `pool` rules are the installed program.
    pub initial: usize,
    /// Source text of the installed program.
    pub text: String,
    /// Source text of each churn rule, in mutation order.
    pub churn_text: Vec<String>,
    pub feed: Vec<Packet>,
}

impl Inputs {
    pub fn installed(&self) -> &[Rule] {
        &self.pool[..self.initial]
    }

    pub fn churn(&self) -> &[Rule] {
        &self.pool[self.initial..]
    }
}

pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let (mut pool, initial, symbols) = match w.program {
        Program::Price { rules, symbols } => (
            sut::price_rules(seed, rules + w.churn_rules, symbols),
            rules,
            symbols,
        ),
        Program::SymbolOnly { symbols, ports } => (
            sut::symbol_rules(seed, symbols, ports, w.churn_rules),
            symbols,
            symbols,
        ),
    };
    // The seed also fixes the order mutations arrive in.
    sut::shuffle(seed ^ 0x6d75_7461_7465, &mut pool[initial..]);
    let feed = match w.feed {
        Feed::Seeded { zipf_s } => sut::feed(seed, FEED_PACKETS, symbols, zipf_s),
        Feed::DaemonInternal => sut::daemon_internal_feed(FEED_PACKETS),
    };
    Inputs {
        text: sut::program_text(&pool[..initial]),
        churn_text: pool[initial..].iter().map(|r| r.to_string()).collect(),
        pool,
        initial,
        feed,
    }
}
