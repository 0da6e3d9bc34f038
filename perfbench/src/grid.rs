//! The `covert-grid` workload: a fixed sub-grid of the covert-channel
//! capacity matrix, run on the experiment engine.

use crate::report::{
    median, peak_rss_mb, ratio, setup_s, timed, CellTimes, Checks, Metrics, Reference, MIN_REPEATS,
};
use crate::Args;
use fsmc_core::sched::SchedulerKind;
use fsmc_dram::DeviceGeneration;
use fsmc_leak::{
    adaptive_ber, capacity_matrix, decodes_above_chance, default_secret, measure_cell, mi_floor,
    run_protocol, CapacityCell, Protocol,
};
use fsmc_security::channel::{ChannelParams, CovertChannelReport};
use fsmc_security::leakage::{binary_channel_capacity, LeakageError};
use fsmc_sim::system::try_build_controller;
use fsmc_sim::{Engine, SplitMix64, SystemConfig};
use std::hint::black_box;
use std::time::Instant;

const DEVICES: [DeviceGeneration; 2] = [DeviceGeneration::Ddr3_1600, DeviceGeneration::Ddr4_2400];
const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::Baseline,
    SchedulerKind::TpBankPartitioned { turn: 60 },
    SchedulerKind::FsRankPartitioned,
    SchedulerKind::FsBankPartitioned,
    SchedulerKind::FsNoPartitionNaive,
];
/// `covert_matrix`'s receiver window, with fewer windows per cell than
/// its 120.
const WINDOW_CYCLES: u64 = 2_500;
const WINDOWS: usize = 48;

type Job = (DeviceGeneration, SchedulerKind, Protocol);

/// Every cell, in `capacity_matrix` order.
fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for device in DEVICES {
        for scheduler in SCHEDULERS {
            for protocol in Protocol::all() {
                jobs.push((device, scheduler, protocol));
            }
        }
    }
    jobs
}

/// The seed's secret: the default 8-bit secret, shuffled, so that both
/// symbol classes always appear.
fn secret(seed: u64) -> Vec<bool> {
    let mut bits = default_secret();
    let mut rng = SplitMix64::new(seed);
    for i in (1..bits.len()).rev() {
        bits.swap(i, rng.below(i as u64 + 1) as usize);
    }
    bits
}

fn is_fs(s: SchedulerKind) -> bool {
    s.label().starts_with("FS_")
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// The gating `measure_cell` applies to a protocol run.
fn gate(job: Job, report: &CovertChannelReport) -> CapacityCell {
    let (device, scheduler, protocol) = job;
    let n = report.windows.len();
    let ones = report.windows.iter().filter(|&&(bit, _)| bit).count();
    let leaks = ones > 0
        && ones < n
        && decodes_above_chance(report.ber, n)
        && report.mutual_information_bits > mi_floor(n);
    let window_s = WINDOW_CYCLES as f64 * device.seconds_per_cycle();
    CapacityCell {
        device,
        scheduler,
        protocol,
        windows_used: n,
        ber: report.ber,
        adaptive_ber: adaptive_ber(&report.windows, 0.2),
        mi_bits: report.mutual_information_bits,
        capacity_bps: if leaks { binary_channel_capacity(report.ber) / window_s } else { 0.0 },
    }
}

/// One cell run from outside: the protocol simulation, then the gating,
/// each timed.
struct TracedCell {
    cell: CapacityCell,
    /// Sum of the receiver's window-mean read latencies.
    latency_sum: f64,
    sim_s: f64,
    estimator_s: f64,
}

fn traced_cell(job: Job, bits: &[bool]) -> Result<TracedCell, LeakageError> {
    let params = ChannelParams::new(job.0, WINDOW_CYCLES, WINDOWS);
    let (report, sim_s) = timed(None, || run_protocol(job.2, job.1, bits, params));
    let report = report?;
    let (cell, estimator_s) = timed(None, || gate(job, &report));
    let latency_sum = report.windows.iter().map(|&(_, lat)| lat).sum();
    Ok(TracedCell { cell, latency_sum, sim_s, estimator_s })
}

/// One cell of a pass: its result, its start and end in host seconds from
/// the start of the pass, and its time as `timed` reports it.
struct Cell<T> {
    out: T,
    begin: f64,
    end: f64,
    time_s: f64,
}

/// One pass over the grid, in job order, and its wall time.
struct Pass<T> {
    cells: Vec<Cell<T>>,
    wall_s: f64,
}

impl<T> Pass<T> {
    fn busy_s(&self) -> f64 {
        self.cells.iter().map(|c| c.end - c.begin).sum()
    }

    /// Cell time over worker time: how busy the engine kept its workers.
    fn busy_frac(&self) -> f64 {
        self.busy_s() / (self.wall_s * workers() as f64)
    }
}

fn pass<T: Send>(
    engine: &Engine,
    reference: Option<&Reference>,
    f: impl Fn(Job) -> T + Sync,
) -> Pass<T> {
    let start = Instant::now();
    let cells = engine.map(&jobs(), |_, &job| {
        let begin = start.elapsed().as_secs_f64();
        let (out, time_s) = timed(reference, || f(job));
        Cell { out, begin, end: start.elapsed().as_secs_f64(), time_s }
    });
    Pass { cells, wall_s: start.elapsed().as_secs_f64() }
}

/// Cell rows: every field of each cell, with every digit kept.
fn rows<'a>(cells: impl Iterator<Item = &'a CapacityCell>) -> Vec<String> {
    cells.map(|c| format!("{c:?}")).collect()
}

/// Records each cell of a pass as a check and returns the rows of those
/// that succeeded.
fn checked_rows<'a>(
    checks: &mut Checks,
    cells: impl Iterator<Item = &'a Result<CapacityCell, LeakageError>>,
) -> Vec<String> {
    let ok: Vec<&CapacityCell> =
        cells.filter_map(|c| checks.ok("covert cell", c.as_ref())).collect();
    rows(ok.into_iter())
}

/// Set-up: one controller per distinct (device, scheduler) of the grid.
fn build_controllers() {
    for device in DEVICES {
        for scheduler in SCHEDULERS {
            let cfg = SystemConfig::for_device(device, scheduler, 8);
            black_box(try_build_controller(&cfg).ok());
        }
    }
}

/// The verification pass: the grid through the benchmark's traced cell
/// on one engine thread must give `capacity_matrix`'s rows on `workers()`
/// threads, and every FS cell must gate to exactly 0 bits/s. Returns the
/// traced cells for the simulated outputs.
fn verify(bits: &[bool], expected: &[String], checks: &mut Checks) -> Vec<TracedCell> {
    let one = pass(&Engine::with_threads(1), None, |job| traced_cell(job, bits));
    let cells: Vec<TracedCell> =
        one.cells.into_iter().filter_map(|c| checks.ok("traced cell", c.out)).collect();
    let serial = rows(cells.iter().map(|c| &c.cell));
    checks.check(serial == expected, || {
        format!(
            "covert-grid: rows at 1 thread differ from capacity_matrix at {} threads",
            workers()
        )
    });
    for c in cells.iter().filter(|c| is_fs(c.cell.scheduler)) {
        checks.check(c.cell.capacity_bps == 0.0, || {
            format!("covert-grid: FS cell leaks {:?}", c.cell)
        });
    }
    cells
}

/// A pass of `measure_cell` on the engine, each cell checked against the
/// expected rows.
fn untraced_pass(
    engine: &Engine,
    reference: Option<&Reference>,
    bits: &[bool],
    expected: &[String],
    checks: &mut Checks,
) -> Pass<Result<CapacityCell, LeakageError>> {
    let p = pass(engine, reference, |(d, s, p)| {
        measure_cell(d, s, p, bits, WINDOW_CYCLES, WINDOWS, false)
    });
    let r = checked_rows(checks, p.cells.iter().map(|c| &c.out));
    checks.check(r == expected, || "covert-grid: a pass differs from the first pass".into());
    p
}

/// Simulated cycles in one pass over the grid.
fn grid_cycles() -> f64 {
    (jobs().len() as u64 * WINDOWS as u64 * WINDOW_CYCLES) as f64
}

pub fn run(args: &Args, checks: &mut Checks) -> Metrics {
    let bits = secret(args.seed);
    let engine = Engine::with_threads(workers());
    // The first pass warms the process and gives the rows every later
    // pass must reproduce exactly.
    let matrix = capacity_matrix(
        &engine,
        &DEVICES,
        &SCHEDULERS,
        &Protocol::all(),
        &bits,
        WINDOW_CYCLES,
        WINDOWS,
    );
    let expected = checked_rows(checks, matrix.iter());
    if args.trace {
        return run_traced(args, checks, &engine, &bits, &expected);
    }

    let reference = Reference::new();
    let mut cells = CellTimes::new(jobs().len());
    let (mut busy, mut setups) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || cells.repeats() < MIN_REPEATS {
        setups.push(setup_s(Some(&reference), build_controllers));
        let p = untraced_pass(&engine, Some(&reference), &bits, &expected, checks);
        busy.push(p.busy_frac());
        cells.push(p.cells.iter().map(|c| c.time_s));
    }
    let rss = checks.ok("peak RSS", peak_rss_mb()).unwrap_or(0.0);
    let traced = verify(&bits, &expected, checks);
    // The receiver's latency under FS does not depend on the sender, so
    // it is the grid's simulated output that the secret cannot move.
    let fs: Vec<&TracedCell> = traced.iter().filter(|c| is_fs(c.cell.scheduler)).collect();
    let windows: usize = fs.iter().map(|c| c.cell.windows_used).sum();
    let latency: f64 = fs.iter().map(|c| c.latency_sum).sum();
    // One pass's wall time: its cell time spread over the workers at the
    // engine's measured occupancy.
    let wall_s = cells.total() / (workers() as f64 * median(&busy));

    let mut m = Metrics::default();
    m.host("sim_cycles_per_s", ratio(grid_cycles(), wall_s), "cycles/s");
    m.host("setup_s", median(&setups), "s");
    m.host("peak_rss_mb", rss, "MiB");
    m.host("success_rate", 1.0 - checks.error_rate(), "ratio");
    m.host("cell_s_p50", cells.p50(), "s");
    m.host("cell_s_tail", cells.tail(), "s");
    m.sim("read_latency_cycles", ratio(latency, windows as f64), "cycles");
    m
}

/// Per-layer metrics: untraced and traced passes alternate for
/// `args.seconds`; every traced cell must equal `measure_cell`'s cell and
/// every traced pass must repeat the first one's window counts.
fn run_traced(
    args: &Args,
    checks: &mut Checks,
    engine: &Engine,
    bits: &[bool],
    expected: &[String],
) -> Metrics {
    verify(bits, expected, checks);
    let start = Instant::now();
    let (mut plain_s, mut traced, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    while start.elapsed().as_secs_f64() < args.seconds || traced.len() < 2 {
        builds.push(setup_s(None, build_controllers));
        plain_s.push(untraced_pass(engine, None, bits, expected, checks).wall_s);
        let p = pass(engine, None, |job| traced_cell(job, bits));
        let mut ok = Vec::new();
        for c in p.cells {
            if let Some(out) = checks.ok("traced cell", c.out) {
                ok.push(Cell { out, begin: c.begin, end: c.end, time_s: c.time_s });
            }
        }
        let r = rows(ok.iter().map(|c| &c.out.cell));
        checks.check(r == expected, || "covert-grid: traced cells differ from measure_cell".into());
        traced.push(Pass { cells: ok, wall_s: p.wall_s });
    }
    let windows_used = |p: &Pass<TracedCell>| -> Vec<usize> {
        p.cells.iter().map(|c| c.out.cell.windows_used).collect()
    };
    for p in &traced[1..] {
        checks.check(windows_used(p) == windows_used(&traced[0]), || {
            "covert-grid: window counts differ between two traced passes".into()
        });
    }

    let per_pass = |f: &dyn Fn(&Pass<TracedCell>) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let n = jobs().len();
    let distinct = (DEVICES.len() * SCHEDULERS.len()) as u64;
    let used: usize = windows_used(&traced[0]).iter().sum();

    let mut m = Metrics::default();
    m.host("solver.build_s", median(&builds) / distinct as f64, "s");
    m.count("solver.builds", distinct);
    m.host("engine.busy_frac", per_pass(&|p| p.busy_frac()), "ratio");
    m.host(
        "engine.queue_wait_s",
        per_pass(&|p| p.cells.iter().map(|c| c.begin).sum::<f64>() / n as f64),
        "s",
    );
    m.count("engine.cells", n as u64);
    m.count("engine.workers", workers() as u64);
    m.host(
        "leak.sim_share",
        per_pass(&|p| p.cells.iter().map(|c| c.out.sim_s).sum::<f64>() / p.busy_s()),
        "ratio",
    );
    m.host(
        "leak.estimator_ns_per_cell",
        per_pass(&|p| median(&p.cells.iter().map(|c| c.out.estimator_s * 1e9).collect::<Vec<_>>())),
        "ns",
    );
    m.sim("leak.windows_used_frac", used as f64 / (n * WINDOWS) as f64, "ratio");
    m.count("leak.windows_used", used as u64);
    m.count("leak.windows_run", (n * WINDOWS) as u64);
    m.count("system.cycles", grid_cycles() as u64);
    m.host("trace.overhead_frac", per_pass(&|p| p.wall_s) / median(&plain_s), "ratio");
    m
}
