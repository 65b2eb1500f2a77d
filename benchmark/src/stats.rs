//! Sample summaries: median, quartiles, and the highest percentile the
//! sample size supports.

use crate::json::J;

/// Percentiles a tail may be reported at, in ascending order.
const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];
/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)`: the highest ladder percentile with at
    /// least ten samples beyond it; `None` on small samples.
    pub tail: Option<(f64, f64)>,
}

/// Quantile `p` of sorted data, the "exclusive" method Python's
/// `statistics.quantiles` defaults to (so `compare.py` and the driver
/// compute the same quartiles from the same samples).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail = TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, quantile(&s, p / 100.0)));
    Summary {
        n,
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        min: s[0],
        max: s[n - 1],
        tail,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// One reported metric: the headline value plus the sample behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    /// The sample in the order it was taken (kept for the result file).
    pub samples: Vec<f64>,
}

impl Metric {
    /// An exact count or a single measurement.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
            samples: Vec::new(),
        }
    }

    /// The median of a sample.
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let s = summarize(samples);
        Metric {
            name,
            unit,
            value: s.median,
            summary: Some(s),
            samples: samples.to_vec(),
        }
    }

    /// Full form for the per-workload result file.
    pub fn to_json(&self) -> J {
        let mut o = vec![
            ("value".to_string(), J::F(self.value)),
            ("unit".to_string(), J::s(self.unit)),
        ];
        let s = self
            .summary
            .clone()
            .unwrap_or_else(|| summarize(&[self.value]));
        o.push(("n".to_string(), J::U(s.n as u64)));
        o.push(("q1".to_string(), J::F(s.q1)));
        o.push(("q3".to_string(), J::F(s.q3)));
        o.push(("min".to_string(), J::F(s.min)));
        o.push(("max".to_string(), J::F(s.max)));
        if let Some((p, v)) = s.tail {
            o.push((
                "tail".to_string(),
                J::obj([("percentile", J::F(p)), ("value", J::F(v))]),
            ));
        }
        if !self.samples.is_empty() {
            o.push((
                "samples".to_string(),
                J::A(self.samples.iter().map(|&x| J::F(x)).collect()),
            ));
        }
        J::O(o)
    }

    /// `name value unit` for the terminal.
    pub fn line(&self) -> String {
        let mut out = format!("{:<36} {:>16.4} {}", self.name, self.value, self.unit);
        if let Some(s) = &self.summary {
            out.push_str(&format!("   (n={}, q1={:.4}, q3={:.4}", s.n, s.q1, s.q3));
            if let Some((p, v)) = s.tail {
                out.push_str(&format!(", p{p}={v:.4}"));
            }
            out.push(')');
        }
        out
    }
}
