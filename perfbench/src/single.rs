//! The three single-system workloads: one 8-core DDR3-1600 system,
//! built from the seed's traces and run for a fixed number of simulated
//! cycles per batch on one thread.

use crate::layers::{SchedProbe, Span, TimedController, TimedTrace};
use crate::report::{
    median, median_of, peak_rss_mb, ratio, setup_s, timed, CellTimes, Checks, Metrics, Reference,
    MIN_REPEATS,
};
use crate::Args;
use fsmc_core::sched::SchedulerKind;
use fsmc_cpu::trace::TraceSource;
use fsmc_dram::command::TimedCommand;
use fsmc_dram::{DeviceGeneration, DramDevice, TimingChecker};
use fsmc_sim::system::try_build_controller;
use fsmc_sim::{FsmcError, System, SystemConfig, SystemStats};
use fsmc_workload::{BenchProfile, SyntheticTrace, WorkloadMix};
use std::sync::Arc;
use std::time::Instant;

/// A single-system workload. A batch is `chunks` runs of `chunk_cycles`
/// simulated cycles on a freshly built system; each chunk is one timed
/// cell. Sizes are chosen so that a chunk takes roughly 15 ms on a 2-vCPU
/// Xeon (Sapphire Rapids).
pub struct Spec {
    pub name: &'static str,
    scheduler: SchedulerKind,
    mix: fn() -> WorkloadMix,
    chunk_cycles: u64,
    chunks: u64,
    /// Prefix simulated by the verification pass.
    verify_cycles: u64,
}

fn mcf8() -> WorkloadMix {
    WorkloadMix::rate(BenchProfile::mcf(), 8)
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "frfcfs-mcf",
        scheduler: SchedulerKind::Baseline,
        mix: mcf8,
        chunk_cycles: 20_000,
        chunks: 50,
        verify_cycles: 200_000,
    },
    Spec {
        name: "fs-rp-mix2",
        scheduler: SchedulerKind::FsRankPartitioned,
        mix: WorkloadMix::mix2,
        chunk_cycles: 40_000,
        chunks: 50,
        verify_cycles: 400_000,
    },
    Spec {
        name: "fs-np-mcf-idle",
        scheduler: SchedulerKind::FsNoPartitionNaive,
        mix: mcf8,
        chunk_cycles: 800_000,
        chunks: 50,
        verify_cycles: 2_000_000,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::for_device(DeviceGeneration::Ddr3_1600, self.scheduler, 8)
    }

    fn batch_cycles(&self) -> u64 {
        self.chunk_cycles * self.chunks
    }

    /// One trace per core, core `i` seeded `seed + i` as in
    /// `System::try_from_mix`.
    fn traces(&self, seed: u64) -> Vec<Box<dyn TraceSource>> {
        (self.mix)()
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Box::new(SyntheticTrace::new(*p, seed.wrapping_add(i as u64)))
                    as Box<dyn TraceSource>
            })
            .collect()
    }

    /// Set-up: the controller (FS variants solve and certify here),
    /// the traces, and the system around them.
    fn build(&self, cfg: &SystemConfig, seed: u64) -> Result<System, FsmcError> {
        let mc = try_build_controller(cfg)?;
        Ok(System::with_controller(cfg, self.traces(seed), mc))
    }

    /// The same system with every scheduler and trace call instrumented.
    fn build_traced(&self, seed: u64, probe: &Probe) -> Result<System, FsmcError> {
        let cfg = self.config();
        let mc = TimedController::new(try_build_controller(&cfg)?, probe.sched.clone());
        let traces = self
            .traces(seed)
            .into_iter()
            .map(|t| Box::new(TimedTrace::new(t, probe.next_op.clone())) as Box<dyn TraceSource>)
            .collect();
        Ok(System::with_controller(&cfg, traces, Box::new(mc)))
    }

    /// Runs one batch in chunks, timing each (see [`timed`]).
    fn run_batch(
        &self,
        sys: &mut System,
        reference: Option<&Reference>,
    ) -> Result<Batch, FsmcError> {
        let mut chunk_s = Vec::with_capacity(self.chunks as usize);
        let mut stats = SystemStats::default();
        for _ in 0..self.chunks {
            let (out, t) = timed(reference, || sys.try_run_cycles(self.chunk_cycles));
            stats = out?;
            chunk_s.push(t);
        }
        let fingerprint = format!("{stats:?} fastpath={:?}", sys.fastpath_counters());
        let counters = sys.controller().aggregate_counters();
        let cmds = counters
            .ranks()
            .iter()
            .map(|r| r.activates + r.reads + r.writes + r.precharges + r.refreshes + r.suppressed)
            .sum();
        Ok(Batch {
            run_s: chunk_s.iter().sum(),
            chunk_s,
            fastpath: sys.fastpath_counters(),
            cmds,
            activates: counters.total_activates(),
            fingerprint,
            stats,
        })
    }
}

struct Batch {
    chunk_s: Vec<f64>,
    run_s: f64,
    stats: SystemStats,
    /// `(skipped, elided)` from `System::fastpath_counters`.
    fastpath: (u64, u64),
    /// Device commands issued, summed over ranks and kinds.
    cmds: u64,
    activates: u64,
    /// Every simulated output of the batch, for exact comparison.
    fingerprint: String,
}

/// The instruments of one traced batch.
#[derive(Default)]
struct Probe {
    sched: Arc<SchedProbe>,
    next_op: Arc<Span>,
}

impl Probe {
    /// The exact work counts of a traced batch, which must repeat.
    fn counts(&self, b: &Batch) -> Vec<(&'static str, u64)> {
        use std::sync::atomic::Ordering::Relaxed;
        let s = &self.sched;
        vec![
            ("sched.ticks", s.tick.calls()),
            ("sched.issue_ticks", s.issue_ticks.load(Relaxed)),
            ("sched.next_event_calls", s.next_event.calls()),
            ("sched.enqueues", s.enqueue.calls()),
            ("sched.enqueue_errors", s.enqueue_errors.load(Relaxed)),
            ("sched.admission_probes", s.admission.calls()),
            ("sched.admission_refusals", s.refusals.load(Relaxed)),
            ("sched.event_hints", s.hints.calls()),
            ("sched.fast_forward_calls", s.fast_forward.calls()),
            ("sched.fast_forward_cycles", s.fast_forward_cycles.load(Relaxed)),
            ("workload.next_ops", self.next_op.calls()),
            ("system.skipped_cycles", b.fastpath.0),
            ("system.elided_ticks", b.fastpath.1),
            ("dram.cmds", b.cmds),
            ("dram.activates", b.activates),
        ]
    }
}

/// Builds, runs and checks one batch against `first`, whose simulated
/// outputs it must reproduce exactly; a failure is recorded and `None`.
fn checked_batch(
    spec: &Spec,
    checks: &mut Checks,
    sys: Result<System, FsmcError>,
    first: Option<&Batch>,
    reference: Option<&Reference>,
) -> Option<Batch> {
    let mut sys = checks.ok("build", sys)?;
    let b = checks.ok("batch", spec.run_batch(&mut sys, reference))?;
    if let Some(r) = first {
        checks.check(b.fingerprint == r.fingerprint, || {
            format!("{}: a batch's stats differ from the reference batch", spec.name)
        });
    }
    Some(b)
}

/// The verification pass: the fast path against per-cycle stepping on a
/// prefix, and the recorded command log against the timing checker and a
/// fresh device. Returns the log for the per-layer device timings.
fn verify(spec: &Spec, seed: u64, checks: &mut Checks) -> Vec<TimedCommand> {
    let cfg = spec.config();
    let run = |cfg: &SystemConfig, fast: bool| -> Result<(String, System), FsmcError> {
        let mut sys = spec.build(cfg, seed)?;
        if !fast {
            sys.disable_fastpath();
        }
        let stats = sys.try_run_cycles(spec.verify_cycles)?;
        Ok((format!("{stats:?}"), sys))
    };
    let Some((fast, _)) = checks.ok("fast-path prefix", run(&cfg, true)) else {
        return Vec::new();
    };
    if let Some((slow, _)) = checks.ok("per-cycle prefix", run(&cfg, false)) {
        checks.check(fast == slow, || {
            format!("{}: fast path and per-cycle stats differ on the prefix", spec.name)
        });
    }
    // Recording the command log disables FS fast-forward, so the log
    // comes from its own run, whose stats must still match.
    let recording = SystemConfig { record_commands: true, ..cfg };
    let Some((recorded, mut sys)) = checks.ok("recorded prefix", run(&recording, true)) else {
        return Vec::new();
    };
    checks.check(recorded == fast, || format!("{}: recording changed the stats", spec.name));
    let log = sys.take_command_log();
    checks.check(!log.is_empty(), || format!("{}: empty command log", spec.name));
    let checker = TimingChecker::new(cfg.geometry, cfg.timing);
    checks.ok("timing checker", checker.verify(&log));
    checks.ok("device replay", replay(&cfg, &sorted(&log)));
    log
}

fn sorted(log: &[TimedCommand]) -> Vec<TimedCommand> {
    let mut cmds = log.to_vec();
    cmds.sort_by_key(|c| c.cycle);
    cmds
}

/// Replays a cycle-sorted log on a fresh device, probing before issuing
/// as the schedulers do.
fn replay(cfg: &SystemConfig, cmds: &[TimedCommand]) -> Result<(), fsmc_dram::Violation> {
    let mut dev = DramDevice::new(cfg.geometry, cfg.timing);
    for tc in cmds {
        dev.can_issue(&tc.cmd, tc.cycle)?;
        dev.issue(&tc.cmd, tc.cycle)?;
    }
    Ok(())
}

pub fn run(spec: &Spec, args: &Args, checks: &mut Checks) -> Metrics {
    if args.trace {
        run_traced(spec, args, checks)
    } else {
        run_timed(spec, args, checks)
    }
}

/// End-to-end metrics: untraced batches for `args.seconds`.
fn run_timed(spec: &Spec, args: &Args, checks: &mut Checks) -> Metrics {
    let cfg = spec.config();
    // The first batch warms the process and is the reference every timed
    // batch must reproduce exactly.
    let first = checked_batch(spec, checks, spec.build(&cfg, args.seed), None, None);
    let reference = Reference::new();
    let (mut cells, mut setups) = (CellTimes::new(spec.chunks as usize), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || cells.repeats() < MIN_REPEATS {
        setups.push(setup_s(Some(&reference), || spec.build(&cfg, args.seed).ok()));
        let sys = spec.build(&cfg, args.seed);
        let Some(b) = checked_batch(spec, checks, sys, first.as_ref(), Some(&reference)) else {
            break;
        };
        cells.push(b.chunk_s);
    }
    let rss = checks.ok("peak RSS", peak_rss_mb()).unwrap_or(0.0);
    verify(spec, args.seed, checks);

    let mut m = Metrics::default();
    m.host("sim_cycles_per_s", ratio(spec.batch_cycles() as f64, cells.total()), "cycles/s");
    m.host("setup_s", median(&setups), "s");
    m.host("peak_rss_mb", rss, "MiB");
    m.host("success_rate", 1.0 - checks.error_rate(), "ratio");
    m.host("cell_s_p50", cells.p50(), "s");
    m.host("cell_s_tail", cells.tail(), "s");
    let stats = first.map(|r| r.stats).unwrap_or_default();
    m.sim("read_latency_cycles", stats.avg_read_latency(), "cycles");
    m
}

/// Per-layer metrics: untraced and traced batches alternate for
/// `args.seconds`; every traced batch must reproduce the untraced stats
/// exactly and repeat the first traced batch's counts exactly.
fn run_traced(spec: &Spec, args: &Args, checks: &mut Checks) -> Metrics {
    let cfg = spec.config();
    let log = verify(spec, args.seed, checks);
    let first = checked_batch(spec, checks, spec.build(&cfg, args.seed), None, None);
    let start = Instant::now();
    let (mut plain_s, mut traced, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    while start.elapsed().as_secs_f64() < args.seconds || traced.len() < 2 {
        builds.push(setup_s(None, || try_build_controller(&cfg).ok()));
        let f = first.as_ref();
        let Some(plain) = checked_batch(spec, checks, spec.build(&cfg, args.seed), f, None) else {
            break;
        };
        plain_s.push(plain.run_s);
        let probe = Probe::default();
        let traced_sys = spec.build_traced(args.seed, &probe);
        let Some(b) = checked_batch(spec, checks, traced_sys, f, None) else {
            break;
        };
        traced.push((probe, b));
    }
    let Some((first_probe, first)) = traced.first() else {
        return Metrics::default();
    };
    let counts = first_probe.counts(first);
    for (p, b) in &traced[1..] {
        checks.check(p.counts(b) == counts, || {
            format!("{}: traced work counts differ between two traced batches", spec.name)
        });
    }

    // Timings: per traced batch, then the median over batches.
    let per_batch = |f: &dyn Fn(&Probe, &Batch) -> f64| -> f64 {
        median(&traced.iter().map(|(p, b)| f(p, b)).collect::<Vec<_>>())
    };
    let run_ns = |b: &Batch| b.run_s * 1e9;
    let cycles = spec.batch_cycles() as f64;
    let kcycles = cycles / 1000.0;
    let count = |name| counts.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v) as f64;

    let mut m = Metrics::default();
    m.host(
        "sched.tick_ns",
        per_batch(&|p, _| ratio(p.sched.tick.nanos() as f64, p.sched.tick.calls() as f64)),
        "ns",
    );
    m.host("sched.tick_share", per_batch(&|p, b| p.sched.tick.nanos() as f64 / run_ns(b)), "ratio");
    m.sim("sched.ticks_per_kcycle", count("sched.ticks") / kcycles, "1/kcycle");
    m.sim("sched.issue_per_tick", ratio(count("sched.issue_ticks"), count("sched.ticks")), "ratio");
    m.host(
        "sched.next_event_ns",
        per_batch(&|p, _| {
            ratio(p.sched.next_event.nanos() as f64, p.sched.next_event.calls() as f64)
        }),
        "ns",
    );
    m.sim("sched.next_event_per_kcycle", count("sched.next_event_calls") / kcycles, "1/kcycle");
    m.sim("sched.enqueue_per_kcycle", count("sched.enqueues") / kcycles, "1/kcycle");
    m.sim(
        "sched.enqueue_reject_frac",
        ratio(count("sched.admission_refusals"), count("sched.admission_probes")),
        "ratio",
    );
    m.host(
        "sched.fast_forward_share",
        per_batch(&|p, b| p.sched.fast_forward.nanos() as f64 / run_ns(b)),
        "ratio",
    );
    m.sim(
        "sched.fast_forward_cycles_per_call",
        ratio(count("sched.fast_forward_cycles"), count("sched.fast_forward_calls")),
        "cycles",
    );
    m.host("solver.build_s", median(&builds), "s");
    m.count("solver.builds", 1);
    m.host(
        "workload.next_op_ns",
        per_batch(&|p, _| ratio(p.next_op.nanos() as f64, p.next_op.calls() as f64)),
        "ns",
    );
    m.sim("workload.next_op_per_kcycle", count("workload.next_ops") / kcycles, "1/kcycle");
    m.host("workload.share", per_batch(&|p, b| p.next_op.nanos() as f64 / run_ns(b)), "ratio");
    m.host(
        "system.self_share",
        per_batch(&|p, b| 1.0 - (p.sched.nanos() + p.next_op.nanos()) as f64 / run_ns(b)),
        "ratio",
    );
    m.sim("system.skipped_frac", count("system.skipped_cycles") / cycles, "ratio");
    m.sim("system.elided_frac", count("system.elided_ticks") / cycles, "ratio");
    m.sim("sim.ipc_sum", first.stats.ipc_sum(), "instr/cycle");
    m.sim("dram.cmds_per_kcycle", count("dram.cmds") / kcycles, "1/kcycle");
    let cmds = sorted(&log);
    let checker = TimingChecker::new(cfg.geometry, cfg.timing);
    let per_cmd = 1e9 / log.len().max(1) as f64;
    m.host(
        "dram.checker_ns_per_cmd",
        median_of(5, || checker.verify(&log).is_ok()) * per_cmd,
        "ns",
    );
    m.host("dram.replay_ns_per_cmd", median_of(5, || replay(&cfg, &cmds).is_ok()) * per_cmd, "ns");
    m.count("dram.logged_cmds", log.len() as u64);
    for (name, v) in counts {
        m.count(name, v);
    }
    m.count("system.cycles", spec.batch_cycles());
    m.host(
        "trace.overhead_frac",
        median(&traced.iter().map(|(_, b)| b.run_s).collect::<Vec<_>>()) / median(&plain_s),
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced system gives the untraced system's stats and fast-path
    /// counters exactly, and its counts repeat, on every workload.
    #[test]
    fn tracing_changes_no_simulated_output() {
        for spec in &SPECS {
            let short = Spec { chunks: 2, chunk_cycles: spec.chunk_cycles / 8, ..*spec };
            let plain =
                short.run_batch(&mut short.build(&short.config(), 3).unwrap(), None).unwrap();
            let probes = [Probe::default(), Probe::default()];
            let traced: Vec<Batch> = probes
                .iter()
                .map(|p| short.run_batch(&mut short.build_traced(3, p).unwrap(), None).unwrap())
                .collect();
            for b in &traced {
                assert_eq!(b.fingerprint, plain.fingerprint, "{}", spec.name);
                assert_eq!(b.fastpath, plain.fastpath, "{}", spec.name);
            }
            assert_eq!(probes[0].counts(&traced[0]), probes[1].counts(&traced[1]), "{}", spec.name);
            assert!(probes[0].sched.tick.calls() > 0, "{}", spec.name);
            assert!(probes[0].next_op.calls() > 0, "{}", spec.name);
        }
    }
}
