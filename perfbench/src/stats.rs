//! Small measurement helpers: quantiles, process memory, and the report
//! the command prints (a human-readable table, then one JSON line).

use std::time::Instant;

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); sorts in place. `NaN` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values`; sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// A fixed-size log-linear histogram of nanosecond samples: 128
/// sub-buckets per power of two (under 0.8 % relative error), so the
/// per-point stream samples never grow the process's memory.
#[derive(Debug)]
pub struct NsHistogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets cover 0 ns to 2^40 ns (about 18 minutes).
const MAX_BITS: u32 = 40;

impl NsHistogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; ((MAX_BITS - SUB_BITS + 1) as u64 * SUB) as usize],
            total: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        let ns = ns.min((1 << MAX_BITS) - 1);
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((ns >> shift) - SUB)) as usize
    }

    /// Lowest and highest value of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < SUB {
            return (b as f64, b as f64);
        }
        let shift = b / SUB - 1;
        let lo = (SUB + b % SUB) << shift;
        (lo as f64, (lo + (1 << shift) - 1) as f64)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, as the midpoint of the bucket that holds it.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::range(b);
                return (lo + hi) / 2.0;
            }
        }
        f64::NAN
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Prints `rows` as an aligned table under `title`.
pub fn print_table(title: &str, rows: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<36} {:>16}  {:<9} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in rows {
        println!(
            "  {:<36} {:>16.4}  {:<9} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The final result line: `correct`, `attempted`, `failed`, and every
/// metric in `metrics` as `{"value": v, "unit": u}`. A non-finite value
/// cannot be written as JSON, so it is reported as `null`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
