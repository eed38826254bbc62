//! Metric collection, summary statistics and the result line.

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra facts printed on the `info` line (sample counts, run counts).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

/// A failed correctness gate: the benchmark exits non-zero without a result.
#[derive(Debug)]
pub struct GateError(pub String);

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

pub type Gate<T = ()> = Result<T, GateError>;

/// Fails the run with `msg` unless `ok`.
pub fn gate(ok: bool, msg: impl FnOnce() -> String) -> Gate {
    if ok {
        Ok(())
    } else {
        Err(GateError(msg()))
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two in [`Histogram`].
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations in constant memory: exact
/// below 64 ns, then 64 buckets per power of two, so a reported value is
/// within 1/128 of the sample it stands for. A serving run records every
/// request here, so its memory does not grow with throughput.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS + 1) as u64 * SUB) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + (ns >> shift) - SUB) as usize
    }

    /// Midpoint of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let low = (i % SUB + SUB) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `q` in ms, with the number of samples in
    /// higher buckets (0.0 and 0 when empty).
    pub fn percentile_ms(&self, q: f64) -> (f64, u64) {
        if self.total == 0 {
            return (0.0, 0);
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (Self::value(i) / 1e6, self.total - seen);
            }
        }
        unreachable!("rank {rank} is within total {}", self.total)
    }
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then fourteen
/// `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time (user + system) this process has used so far, over all its
/// threads, in seconds. Time the hypervisor steals from the machine is
/// not charged to it, unlike wall-clock time.
pub fn cpu_seconds() -> f64 {
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `u` is a writable `struct rusage` with the C layout of this
    // target (`#[repr(C)]`, 64-bit `time_t`, `suseconds_t` and `long`), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// Machine-wide (steal, total) CPU jiffies from `/proc/stat`, used to
/// report how much of a window the hypervisor took away.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of machine CPU time stolen between two [`cpu_jiffies`] readings,
/// in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `{"key": "value", ...}` from string pairs.
pub fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final result line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_values_stay_within_a_bucket_of_the_sample() {
        for ns in (0..200u64).chain((1..40).map(|k| (1u64 << k) + 12_345)) {
            let mut h = Histogram::default();
            h.record(ns);
            let (ms, beyond) = h.percentile_ms(50.0);
            let err = (ms * 1e6 - ns as f64).abs();
            assert!(
                err <= ns as f64 / 128.0,
                "ns {ns} read back as {}",
                ms * 1e6
            );
            assert_eq!(beyond, 0);
        }
    }

    #[test]
    fn histogram_percentiles_use_nearest_rank() {
        let mut h = Histogram::default();
        for ns in 1..=50u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 50);
        assert_eq!(h.percentile_ms(50.0), (25.0 / 1e6, 25));
        assert_eq!(h.percentile_ms(100.0), (50.0 / 1e6, 0));
        let mut other = Histogram::default();
        other.record(1_000_000);
        h.merge(&other);
        assert_eq!(h.percentile_ms(98.0), (50.0 / 1e6, 1));
        assert_eq!(h.percentile_ms(99.0), (h.percentile_ms(100.0).0, 0));
    }
}
