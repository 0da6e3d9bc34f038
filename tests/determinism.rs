//! Determinism: simulations are exactly reproducible given a seed — the
//! property that makes the non-interference comparisons meaningful.
//!
//! This includes the event-driven fast path: time-skipping must produce
//! *bit-identical* statistics, command logs and execution profiles to
//! per-cycle stepping for every scheduler, or it is not an optimisation
//! but a different simulator.

use fsmc::bench::weighted_ipc_suite_with;
use fsmc::core::sched::{ReconfigEvent, SchedulerKind as K};
use fsmc::cpu::TraceSource;
use fsmc::dram::command::TimedCommand;
use fsmc::dram::DeviceGeneration;
use fsmc::leak::{default_secret, Protocol};
use fsmc::sim::{Engine, ExperimentJob, FaultPlan, System, SystemConfig};
use fsmc::workload::{IdleTrace, ProbeTrace, WorkloadMix};

fn fingerprint(kind: K, seed: u64) -> (Vec<f64>, u64, u64) {
    let cfg = SystemConfig::paper_default(kind);
    let mix = WorkloadMix::mix2();
    let mut sys = System::from_mix(&cfg, &mix, seed);
    let stats = sys.run_cycles(10_000);
    (stats.ipcs(), stats.reads_completed, stats.mc.row_hits + stats.mc.row_misses)
}

#[test]
fn all_policies_are_bit_deterministic() {
    for kind in [
        K::Baseline,
        K::BaselinePrefetch,
        K::FsRankPartitioned,
        K::FsReorderedBankPartitioned,
        K::FsTripleAlternation,
        K::TpBankPartitioned { turn: 60 },
        K::TpNoPartition { turn: 172 },
    ] {
        assert_eq!(fingerprint(kind, 3), fingerprint(kind, 3), "{kind} not deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(K::Baseline, 3);
    let b = fingerprint(K::Baseline, 4);
    assert_ne!(a, b, "seeds should change the workload");
}

/// Every scheduler kind the simulator can build.
fn all_kinds() -> [K; 13] {
    [
        K::Baseline,
        K::BaselinePrefetch,
        K::FsRankPartitioned,
        K::FsRankPartitionedPrefetch,
        K::FsBankPartitioned,
        K::FsReorderedBankPartitioned,
        K::FsNoPartitionNaive,
        K::FsTripleAlternation,
        K::TpBankPartitioned { turn: 60 },
        K::TpNoPartition { turn: 172 },
        K::TpFence { period: 300 },
        K::ChannelPartitioned,
        K::FsMultiChannel { channels: 4 },
    ]
}

/// Runs `cycles` DRAM cycles of mix2 under `kind` with command
/// recording and the online monitor armed, with or without the
/// event-driven fast path, and returns everything observable: the full
/// statistics snapshot and the command log.
fn run_both_ways(kind: K, seed: u64, cycles: u64, fast: bool) -> (String, Vec<TimedCommand>) {
    run_both_ways_on(DeviceGeneration::Ddr3_1600, kind, seed, cycles, fast)
}

fn run_both_ways_on(
    device: DeviceGeneration,
    kind: K,
    seed: u64,
    cycles: u64,
    fast: bool,
) -> (String, Vec<TimedCommand>) {
    let mut cfg = SystemConfig::for_device(device, kind, 8);
    cfg.record_commands = true;
    cfg.monitor = true;
    let mix = WorkloadMix::mix2();
    let mut sys = System::from_mix(&cfg, &mix, seed);
    if !fast {
        sys.disable_fastpath();
    }
    let stats = sys.try_run_cycles(cycles).expect("clean run");
    (format!("{stats:?}"), sys.take_command_log())
}

/// The fast path's contract: skipping time changes nothing observable.
/// Statistics (per-core cycle and stall counts included) and the full
/// command log must be bit-identical for every policy and seed.
#[test]
fn fast_path_is_bit_identical_for_every_policy() {
    for kind in all_kinds() {
        for seed in [3, 7, 11] {
            let fast = run_both_ways(kind, seed, 8_000, true);
            let slow = run_both_ways(kind, seed, 8_000, false);
            assert_eq!(fast.0, slow.0, "{kind} seed {seed}: stats diverge");
            assert_eq!(fast.1, slow.1, "{kind} seed {seed}: command logs diverge");
        }
    }
}

/// The same contract on every device generation: the baseline's
/// quiet-tick bound folds the bank-group CAS floors and the LPDDR4/HBM
/// timing extremes into its skip bounds, so a single missed wake-up on
/// any profile would surface here as a stats or command-log diff.
#[test]
fn fast_path_is_bit_identical_on_every_device_generation() {
    for device in DeviceGeneration::all() {
        for kind in [
            K::Baseline,
            K::FsRankPartitioned,
            K::FsBankPartitioned,
            K::FsReorderedBankPartitioned,
            K::TpBankPartitioned { turn: 60 },
        ] {
            let fast = run_both_ways_on(device, kind, 3, 8_000, true);
            let slow = run_both_ways_on(device, kind, 3, 8_000, false);
            assert_eq!(fast.0, slow.0, "{device} {kind}: stats diverge");
            assert_eq!(fast.1, slow.1, "{device} {kind}: command logs diverge");
        }
    }
}

/// Execution profiles — the paper's attacker observable — must also be
/// unaffected: a bucket boundary landing one cycle off would fabricate
/// or mask leakage.
#[test]
fn fast_path_preserves_execution_profiles_and_read_runs() {
    for kind in [K::FsRankPartitioned, K::Baseline, K::TpBankPartitioned { turn: 60 }] {
        let cfg = SystemConfig::paper_default(kind);
        let mix = WorkloadMix::mix1();
        let mut fast = System::from_mix(&cfg, &mix, 5);
        let mut slow = System::from_mix(&cfg, &mix, 5);
        slow.disable_fastpath();
        assert_eq!(
            fast.run_profile(0, 500, 12),
            slow.run_profile(0, 500, 12),
            "{kind}: profiles diverge"
        );
        let mut fast = System::from_mix(&cfg, &mix, 6);
        let mut slow = System::from_mix(&cfg, &mix, 6);
        slow.disable_fastpath();
        fast.observe(0);
        slow.observe(0);
        let sf = fast.run_reads(600);
        let ss = slow.run_reads(600);
        assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{kind}: read-run stats diverge");
        assert_eq!(fast.take_observations(), slow.take_observations(), "{kind}: observations");
        assert_eq!(fast.dram_cycle(), slow.dram_cycle(), "{kind}: end cycles diverge");
    }
}

/// The covert set-up of the leak harness: a probe receiver, an
/// intensity sender and idle co-runners, which compute-sleep almost
/// throughout.
fn covert_system(cfg: &SystemConfig) -> System {
    let (sender, _) = Protocol::Intensity.build(&default_secret());
    let mut traces: Vec<Box<dyn TraceSource>> = vec![Box::new(ProbeTrace::new(20)), sender];
    traces.extend((2..cfg.cores).map(|_| Box::new(IdleTrace) as Box<dyn TraceSource>));
    System::new(cfg, traces)
}

/// The core sleep record is exact. On the covert set-up and on mix2,
/// `core_stats` after every `step()` — the leak harness's observation
/// tap, which reads it mid-sleep — matches per-cycle stepping for every
/// core, the compute advance runs on the fast path, and it never runs
/// with the fast path off. The generations' CPU-to-DRAM clock ratios
/// (4, 4, 2, 3) set how many core cycles one slept DRAM cycle covers.
#[test]
fn compute_advance_is_bit_identical_and_covers_compute_phases() {
    for device in DeviceGeneration::all() {
        for kind in [K::Baseline, K::FsRankPartitioned] {
            let cfg = SystemConfig::for_device(device, kind, 8);
            let covert = || covert_system(&cfg);
            let mix2 = || System::from_mix(&cfg, &WorkloadMix::mix2(), 3);
            let setups: [(&str, &dyn Fn() -> System); 2] = [("covert", &covert), ("mix2", &mix2)];
            for (name, build) in setups {
                let mut fast = build();
                let mut slow = build();
                slow.disable_fastpath();
                for cycle in 0..6_000 {
                    fast.step();
                    slow.step();
                    for i in 0..cfg.cores as usize {
                        assert_eq!(
                            fast.core_stats(i),
                            slow.core_stats(i),
                            "{device} {kind} {name}: core {i} after cycle {cycle}"
                        );
                    }
                }
                let (f, s) = (fast.run_cycles(4_000), slow.run_cycles(4_000));
                assert_eq!(format!("{f:?}"), format!("{s:?}"), "{device} {kind} {name}: stats");
                assert!(fast.advanced_core_cycles() > 0, "{device} {kind} {name}: no advance");
                assert_eq!(slow.advanced_core_cycles(), 0, "{device} {kind} {name}");
            }
        }
    }
}

/// A run split into uneven chunks equals one run: sleeps and skips
/// straddle the chunk ends, where every skip stops.
#[test]
fn chunked_runs_match_one_run() {
    let chunks = [1, 7, 500, 3, 1_024, 2, 2_463, 1, 5_999];
    let total: u64 = chunks.iter().sum();
    for kind in [K::FsRankPartitioned, K::Baseline] {
        let cfg = SystemConfig::paper_default(kind);
        let builds: [(&str, &dyn Fn() -> System); 2] = [
            ("covert", &|| covert_system(&cfg)),
            ("mix2", &|| System::from_mix(&cfg, &WorkloadMix::mix2(), 4)),
        ];
        for (name, build) in builds {
            let mut whole = build();
            let one = whole.run_cycles(total);
            let mut split = build();
            let last = chunks.map(|n| split.run_cycles(n)).into_iter().last();
            let last = last.expect("chunks are non-empty");
            assert_eq!(format!("{one:?}"), format!("{last:?}"), "{kind} {name}: stats");
            assert_eq!(whole.dram_cycle(), split.dram_cycle(), "{kind} {name}");
        }
    }
}

/// Churn that lands on a compute-sleeping tenant: an idle co-runner
/// leaves while it computes, and another is detached by a `DomainJoin`
/// scheduled mid-run (the join detaches its core at once) and joins at
/// the next boundary. Both paths give the same statistics. A detached
/// core sleeps on both paths, so two checks do not lean on the
/// per-cycle one: every core's clock covers every DRAM cycle, and no
/// core's counters ever fall.
#[test]
fn churn_on_a_compute_sleeping_tenant_is_bit_identical() {
    for kind in [K::FsRankPartitioned, K::FsBankPartitioned] {
        let cfg = SystemConfig::paper_default(kind);
        let ratio = cfg.timing.cpu_ratio as u64;
        let mut fast = covert_system(&cfg);
        let mut slow = covert_system(&cfg);
        slow.disable_fastpath();
        for sys in [&mut fast, &mut slow] {
            sys.schedule_reconfig(2_500, ReconfigEvent::DomainLeave { domain: 3 });
            sys.try_run_cycles(6_001).expect("clean run");
            sys.schedule_reconfig(8_000, ReconfigEvent::DomainJoin { domain: 4 });
        }
        let mut last = fast.try_run_cycles(0).expect("clean fast run").cores;
        for _ in 0..80 {
            let sf = fast.try_run_cycles(97).expect("clean fast run");
            let ss = slow.try_run_cycles(97).expect("clean slow run");
            assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{kind}: stats diverge");
            for (i, (now, before)) in sf.cores.iter().zip(&last).enumerate() {
                assert_eq!(now.cpu_cycles, fast.dram_cycle() * ratio, "{kind}: core {i} clock");
                assert!(
                    now.instructions_retired >= before.instructions_retired
                        && now.stall_cycles >= before.stall_cycles,
                    "{kind}: core {i} counters fell"
                );
            }
            last = sf.cores;
        }
        assert!(!fast.is_attached(3) && fast.is_attached(4), "{kind}: churn adopted");
        assert!(fast.advanced_core_cycles() > 0, "{kind}: idle tenants compute-sleep");
    }
}

/// Mutable controller access and armed fault plans drop to per-cycle
/// stepping automatically (the `FSMC_NO_FASTPATH=1` escape hatch is
/// pinned in `tests/no_fastpath_env.rs`, its own process).
#[test]
fn fast_path_disarms_on_env_mutation_and_faults() {
    let cfg = SystemConfig::paper_default(K::FsRankPartitioned);
    let mix = WorkloadMix::mix1();
    let mut sys = System::from_mix(&cfg, &mix, 1);
    assert!(sys.fastpath_enabled(), "fast path is the default");
    let _ = sys.controller_mut();
    assert!(!sys.fastpath_enabled(), "controller mutation must disarm the fast path");

    // A faulted job runs per-cycle, and stays deterministic.
    let plan = FaultPlan::parse_spec(9, "delay(50,5,1)").expect("valid spec");
    let job = ExperimentJob::new(mix, K::FsRankPartitioned, 6_000, 3).with_faults(plan);
    let a = job.run();
    let b = job.run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "faulted runs must be reproducible");
}

/// FS fast-forward straddles wall-clock refresh windows bit-identically:
/// with no monitor armed the span is replayed inside the controller,
/// and 30k cycles cross many tREFI boundaries (quiesce, refresh
/// commands, recovery) for every FS variant.
#[test]
fn fs_fast_forward_is_bit_identical_across_refresh_windows() {
    for kind in [
        K::FsRankPartitioned,
        K::FsRankPartitionedPrefetch,
        K::FsBankPartitioned,
        K::FsReorderedBankPartitioned,
        K::FsNoPartitionNaive,
        K::FsTripleAlternation,
    ] {
        let cfg = SystemConfig::paper_default(kind);
        let mix = WorkloadMix::mix1();
        let mut fast = System::from_mix(&cfg, &mix, 7);
        let mut slow = System::from_mix(&cfg, &mix, 7);
        slow.disable_fastpath();
        let sf = fast.run_cycles(30_000);
        let ss = slow.run_cycles(30_000);
        assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{kind}: stats diverge");
        assert_eq!(fast.dram_cycle(), slow.dram_cycle(), "{kind}: end cycles diverge");
    }
}

/// FS fast-forward around a reconfiguration epoch boundary: the skip
/// clamps at the event promotion and adoption cycles, so a domain
/// leaving and a bank dying mid-run reproduce per-cycle stepping
/// exactly.
#[test]
fn fs_fast_forward_is_bit_identical_across_reconfig_epochs() {
    for kind in [K::FsRankPartitioned, K::FsBankPartitioned] {
        let cfg = SystemConfig::paper_default(kind);
        let mix = WorkloadMix::mix1();
        let mut fast = System::from_mix(&cfg, &mix, 9);
        let mut slow = System::from_mix(&cfg, &mix, 9);
        slow.disable_fastpath();
        for sys in [&mut fast, &mut slow] {
            sys.schedule_reconfig(4_000, ReconfigEvent::DomainLeave { domain: 2 });
            sys.schedule_reconfig(9_000, ReconfigEvent::StuckBank { rank: 1, bank: 3 });
            sys.schedule_reconfig(14_000, ReconfigEvent::DomainJoin { domain: 2 });
        }
        let sf = fast.try_run_cycles(20_000).expect("clean fast run");
        let ss = slow.try_run_cycles(20_000).expect("clean slow run");
        assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{kind}: stats diverge");
        assert_eq!(fast.dram_cycle(), slow.dram_cycle(), "{kind}: end cycles diverge");
    }
}

/// The tentpole guarantee: the parallel experiment engine produces
/// byte-identical rendered tables and CSVs at any worker count.
#[test]
fn suite_output_is_byte_identical_across_thread_counts() {
    let mixes = [WorkloadMix::mix1(), WorkloadMix::mix2()];
    let kinds = [K::FsRankPartitioned, K::TpBankPartitioned { turn: 60 }];
    let t1 = weighted_ipc_suite_with(&Engine::with_threads(1), &mixes, &kinds, 4_000, 11, &[]);
    let t8 = weighted_ipc_suite_with(&Engine::with_threads(8), &mixes, &kinds, 4_000, 11, &[]);
    assert_eq!(t1.render("weighted IPC"), t8.render("weighted IPC"));
    assert_eq!(t1.to_csv(), t8.to_csv());
}
