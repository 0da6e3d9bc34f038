//! The `FSMC_NO_FASTPATH=1` escape hatch: forcing per-cycle stepping
//! changes wall-clock time and nothing else.
//!
//! This lives in its own test binary on purpose: the env var is
//! process-global, so setting it must not race another test's `System`
//! construction. The two tests here take one lock so they cannot race
//! each other either.

use fsmc::core::sched::SchedulerKind as K;
use fsmc::sim::{Engine, ExperimentJob, ExperimentPlan, System, SystemConfig};
use fsmc::workload::WorkloadMix;
use std::sync::{Mutex, MutexGuard};

static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn no_fastpath_env_changes_no_engine_result() {
    let _env = env_lock();
    let kinds = [K::Baseline, K::FsRankPartitioned, K::FsReorderedBankPartitioned];
    let mut plan = ExperimentPlan::new();
    for &k in &kinds {
        plan.push(ExperimentJob::new(WorkloadMix::mix1(), k, 6_000, 11));
    }
    let fast = format!("{:?}", Engine::with_threads(1).run(&plan));
    std::env::set_var("FSMC_NO_FASTPATH", "1");
    let slow = format!("{:?}", Engine::with_threads(1).run(&plan));
    std::env::remove_var("FSMC_NO_FASTPATH");
    assert_eq!(fast, slow, "fast path diverged from per-cycle stepping");
}

#[test]
fn no_fastpath_env_forces_per_cycle_stepping() {
    let _env = env_lock();
    let cfg = SystemConfig::paper_default(K::FsRankPartitioned);
    let mix = WorkloadMix::mix1();
    std::env::set_var("FSMC_NO_FASTPATH", "1");
    let sys = System::from_mix(&cfg, &mix, 1);
    std::env::remove_var("FSMC_NO_FASTPATH");
    assert!(!sys.fastpath_enabled(), "FSMC_NO_FASTPATH=1 must force per-cycle stepping");
    assert!(System::from_mix(&cfg, &mix, 1).fastpath_enabled(), "fast path is the default");
}
