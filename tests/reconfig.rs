//! Root-level reconfiguration checks: survivor non-interference across
//! domain churn and persistent faults (with FR-FCFS as the negative
//! control), drained-boundary adoption under the online monitor, and
//! fast-path vs per-cycle bit-identity for pure-reconfiguration runs.

use fsmc::core::sched::SchedulerKind as K;
use fsmc::security::Scenario;
use fsmc::sim::{ExperimentJob, FaultKind, FaultPlan, System, SystemConfig};
use fsmc::workload::{BenchProfile, WorkloadMix};

fn churn_job(kind: K, cycles: u64, plan: FaultPlan) -> ExperimentJob {
    let mut cfg = SystemConfig::with_cores(kind, 4);
    cfg.monitor = true;
    ExperimentJob::new(WorkloadMix::rate(BenchProfile::mcf(), 4), kind, cycles, 42)
        .with_config(cfg)
        .with_faults(plan)
}

#[test]
fn fs_survivor_profile_is_bit_identical_across_churn_environments() {
    // The hard requirement: a survivor's execution profile under FS is
    // byte-identical whether nothing happened, a co-domain left, a
    // co-domain joined mid-run, or a persistent bank fault in another
    // domain's rank forced a re-solved schedule adoption.
    let r = Scenario::new(K::FsRankPartitioned, 1_500, 6)
        .check_churn(800)
        .expect("churn must reconfigure cleanly under FS");
    assert!(
        r.is_non_interfering(),
        "FS survivor diverged under {:?}: {} cycles",
        r.divergent_envs(),
        r.max_divergence()
    );
    // Non-vacuous: every environment produced the full profile.
    for (env, p) in &r.profiles {
        assert_eq!(p.len(), 6, "{} profile truncated", env.name());
    }
}

#[test]
fn frfcfs_survivor_profile_diverges_under_the_same_probe() {
    // The negative control that keeps the FS test honest: FR-FCFS has
    // no fixed service schedule, so a flooding co-runner leaving (or
    // joining late) visibly changes the observer's timing.
    let r = Scenario::new(K::Baseline, 2_000, 10)
        .check_churn(800)
        .expect("baseline churn runs must complete");
    assert!(!r.is_non_interfering(), "baseline unexpectedly churn-independent");
    assert!(r.max_divergence() > 0);
}

#[test]
fn reconfiguration_adopts_at_drained_boundaries_under_the_monitor() {
    // A leave, a foreign stuck bank and a (re)join, spaced out so each
    // quiesces and adopts in its own epoch. The run must stay clean
    // under the online monitor — which checks cadence on both sides of
    // every boundary — and the controller must have re-solved (not
    // degraded) each time.
    let plan = FaultPlan::new(0)
        .with(FaultKind::DomainLeave { domain: 1, at: 1_000 })
        .with(FaultKind::StuckBank { rank: 3, bank: 2, at: 3_000 })
        .with(FaultKind::DomainJoin { domain: 1, at: 5_000 });
    let r = churn_job(K::FsRankPartitioned, 8_000, plan)
        .run()
        .expect("monitored churn run must not breach");
    assert_eq!(r.stats.mc.reconfigs, 3, "one adoption per event");
    assert!(!r.stats.mc.degraded, "reconfiguration must re-solve, not degrade");
}

#[test]
fn pure_reconfig_runs_keep_the_fast_path_and_stay_bit_identical() {
    // Pure-reconfiguration plans are the one faulted case that keeps
    // the event-driven fast path (adoption happens inside `step`, and
    // skips clamp at the next event / adoption cycle). Disabling it —
    // what `FSMC_NO_FASTPATH=1` does — must not change a single bit.
    let plan = FaultPlan::new(0)
        .with(FaultKind::DomainLeave { domain: 2, at: 1_200 })
        .with(FaultKind::DomainJoin { domain: 2, at: 4_200 });
    assert!(plan.is_pure_reconfig());
    let mk = || {
        let mut cfg = SystemConfig::with_cores(K::FsRankPartitioned, 4);
        cfg.monitor = true;
        let mut sys = System::homogeneous(&cfg, BenchProfile::mcf(), 42);
        for (at, ev) in plan.reconfig_events() {
            sys.schedule_reconfig(at, ev);
        }
        sys
    };
    let mut fast = mk();
    let mut slow = mk();
    slow.disable_fastpath();
    let a = fast.try_run_cycles(8_000).expect("fast run");
    let b = slow.try_run_cycles(8_000).expect("per-cycle run");
    let (skipped, elided) = fast.fastpath_counters();
    assert!(skipped + elided > 0, "fast path never engaged: the comparison is vacuous");
    assert_eq!(fast.fastpath_counters().0 + slow.fastpath_counters().0, skipped);
    assert_eq!(a.cores, b.cores, "per-core execution diverged");
    assert_eq!(a.mc, b.mc, "controller stats diverged");
    assert_eq!(a.reads_completed, b.reads_completed);
    assert_eq!(a.dram_cycles, b.dram_cycles);
}
