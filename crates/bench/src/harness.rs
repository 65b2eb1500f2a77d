//! Minimal std-only benchmark harness.
//!
//! The build environment has no registry access, so Criterion is not
//! available; this module provides the small subset the benches need:
//! warmup, wall-clock measurement over many iterations, and a
//! throughput report. Benches are ordinary binaries (`harness = false`)
//! that call [`Bench::run`] and print one line per measurement.
//!
//! Tuning knobs (environment variables, milliseconds):
//! * `CAMUS_BENCH_WARMUP_MS` — warmup duration (default 200).
//! * `CAMUS_BENCH_MEASURE_MS` — measurement duration (default 1000).

use std::time::{Duration, Instant};

/// Re-export so benches don't need to import `std::hint` separately.
pub use std::hint::black_box;

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Measurement name (group/function, Criterion-style).
    pub name: String,
    /// Iterations actually timed (after warmup).
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Logical elements processed per iteration (0 = unset).
    pub elems_per_iter: u64,
}

impl BenchResult {
    /// Elements per second implied by the mean, if a throughput was set.
    pub fn elems_per_sec(&self) -> Option<f64> {
        if self.elems_per_iter == 0 {
            return None;
        }
        Some(self.elems_per_iter as f64 * 1e9 / self.ns_per_iter)
    }

    /// Prints the standard one-line report.
    pub fn report(&self) -> &Self {
        match self.elems_per_sec() {
            Some(eps) => println!(
                "{:<44} {:>14} ns/iter   {:>12} elem/s   ({} iters)",
                self.name,
                format_ns(self.ns_per_iter),
                format_si(eps),
                self.iters
            ),
            None => println!(
                "{:<44} {:>14} ns/iter   ({} iters)",
                self.name,
                format_ns(self.ns_per_iter),
                self.iters
            ),
        }
        self
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}e9", ns / 1e9)
    } else {
        format!("{:.0}", ns)
    }
}

fn format_si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Harness configuration; construct with [`Bench::from_env`].
#[derive(Debug, Clone)]
pub struct Bench {
    warmup: Duration,
    measure: Duration,
}

fn env_ms(var: &str, default_ms: u64) -> Duration {
    let ms = std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_ms);
    Duration::from_millis(ms)
}

impl Bench {
    /// Reads the duration knobs from the environment.
    pub fn from_env() -> Self {
        Bench {
            warmup: env_ms("CAMUS_BENCH_WARMUP_MS", 200),
            measure: env_ms("CAMUS_BENCH_MEASURE_MS", 1000),
        }
    }

    /// Times `f`, first warming up, then iterating for the configured
    /// measurement window. The closure's return value goes through
    /// [`black_box`] so the optimizer cannot delete the work.
    pub fn run<T, F: FnMut() -> T>(
        &self,
        name: &str,
        elems_per_iter: u64,
        mut f: F,
    ) -> BenchResult {
        // Warmup: at least one call, then until the window expires.
        let start = Instant::now();
        loop {
            black_box(f());
            if start.elapsed() >= self.warmup {
                break;
            }
        }

        let mut iters = 0u64;
        let start = Instant::now();
        let elapsed = loop {
            black_box(f());
            iters += 1;
            let elapsed = start.elapsed();
            if elapsed >= self.measure {
                break elapsed;
            }
        };

        BenchResult {
            name: name.to_string(),
            iters,
            ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
            elems_per_iter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_sane() {
        let b = Bench {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(10),
        };
        let r = b.run("smoke", 100, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(r.iters > 0);
        assert!(r.ns_per_iter > 0.0);
        assert!(r.elems_per_sec().unwrap() > 0.0);
        let none = b.run("no-throughput", 0, || 1u32);
        assert!(none.elems_per_sec().is_none());
    }
}
