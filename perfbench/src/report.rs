//! What one benchmark run prints: a table for people, then one JSON line.

use std::hint::black_box;
use std::time::Instant;

/// Whether a metric is host time, a simulated output, or an exact count;
/// `NotRun` marks a layer the workload does not exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Simulated,
    Count,
    NotRun,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Simulated => "simulated",
            Kind::Count => "count",
            Kind::NotRun => "not run",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn host(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit, kind: Kind::Host });
    }

    pub fn sim(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit, kind: Kind::Simulated });
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.0.push(Metric { name, value: value as f64, unit: "count", kind: Kind::Count });
    }
}

/// Operations attempted and failed: every timed batch or grid pass, and
/// every verification check. `failed / attempted` is the error rate.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one operation; a failure is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Records one operation that returned a `Result`.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every cell is timed at least this many times per run.
pub const MIN_REPEATS: usize = 5;

/// Set-ups timed together as one set-up sample, once per repeat.
pub const SETUP_REPS: u32 = 40;

/// Host seconds one run of the reference kernel takes on a quiet
/// development host (2-vCPU Xeon, Sapphire Rapids, under KVM). It only
/// fixes the scale of the reported times.
pub const REFERENCE_S: f64 = 0.6e-3;

/// A fixed, CPU-bound reference kernel: sorting 16 Ki pseudo-random keys,
/// once unstably and once stably.
///
/// On a shared host, other tenants slow this process by up to 2x for
/// seconds to minutes at a time, with no steal time showing; medians
/// alone cannot absorb slowdowns that last a whole run. The kernel runs
/// right before each timed item and slows with it, so the end-to-end
/// metrics report an item's time in reference seconds: its host time
/// scaled by `REFERENCE_S` over the kernel's host time. The kernel is the
/// benchmark's own code, so nothing the program does changes it.
pub struct Reference {
    keys: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let keys = (0..16 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Reference { keys }
    }

    fn kernel_s(&self) -> f64 {
        let t = Instant::now();
        let mut a = self.keys.clone();
        a.sort_unstable();
        let mut b = self.keys.clone();
        b.sort();
        black_box((a, b));
        t.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its output and its time: host seconds, or
/// reference seconds when `reference` is given.
pub fn timed<T>(reference: Option<&Reference>, f: impl FnOnce() -> T) -> (T, f64) {
    let kernel_s = reference.map(Reference::kernel_s);
    let t = Instant::now();
    let out = f();
    let host_s = t.elapsed().as_secs_f64();
    (out, kernel_s.map_or(host_s, |k| host_s * REFERENCE_S / k))
}

/// The time of one set-up: `SETUP_REPS` set-ups timed together.
pub fn setup_s<T>(reference: Option<&Reference>, mut build: impl FnMut() -> T) -> f64 {
    let (_, t) = timed(reference, || {
        for _ in 0..SETUP_REPS {
            black_box(build());
        }
    });
    t / f64::from(SETUP_REPS)
}

/// Median host time of `reps` calls of `f`.
pub fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(&(0..reps).map(|_| timed(None, || black_box(f())).1).collect::<Vec<_>>())
}

/// Times of a fixed set of cells, each run once per repeat.
///
/// A cell's time is the median over its repeats. Repeats are spread over
/// the whole run, so a short burst of contention from other tenants of
/// the host slows a minority of each cell's repeats and moves no median;
/// the run's figures are built from these per-cell medians.
#[derive(Debug)]
pub struct CellTimes(Vec<Vec<f64>>);

/// How many cells must be slower than the tail cell.
const TAIL_BEYOND: usize = 10;

impl CellTimes {
    pub fn new(cells: usize) -> Self {
        CellTimes(vec![Vec::new(); cells])
    }

    /// Records one repeat: the time of every cell, in cell order.
    pub fn push(&mut self, repeat: impl IntoIterator<Item = f64>) {
        for (cell, t) in self.0.iter_mut().zip(repeat) {
            cell.push(t);
        }
    }

    pub fn repeats(&self) -> usize {
        self.0.iter().map(Vec::len).min().unwrap_or(0)
    }

    fn medians(&self) -> Vec<f64> {
        let mut m: Vec<f64> = self.0.iter().map(|c| median(c)).collect();
        m.sort_by(f64::total_cmp);
        m
    }

    /// Sum of the per-cell medians: the time of one repeat of every cell.
    pub fn total(&self) -> f64 {
        self.medians().iter().sum()
    }

    pub fn p50(&self) -> f64 {
        median(&self.medians())
    }

    /// The slowest cell that still has ten cells slower than itself:
    /// the highest percentile with at least ten cells beyond it.
    pub fn tail(&self) -> f64 {
        let m = self.medians();
        m.len().checked_sub(TAIL_BEYOND + 1).map_or(0.0, |i| m[i])
    }
}

/// High-water resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Prints the table, then the result object as the last stdout line.
pub fn print(workload: &str, checks: &Checks, metrics: &Metrics) {
    println!("workload {workload}: {} operations, {} failed", checks.attempted, checks.failed);
    println!("{:<36} {:>18} {:<12} kind", "metric", "value", "unit");
    println!("{:<36} {:>18.6} {:<12} count", "error_rate", checks.error_rate(), "ratio");
    for m in &metrics.0 {
        println!("{:<36} {:>18.6} {:<12} {}", m.name, m.value, m.unit, m.kind.label());
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
