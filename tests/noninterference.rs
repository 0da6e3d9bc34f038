//! System-level non-interference: the executable analogue of the paper's
//! zero-leakage theorem, for every FS variant.

use fsmc::core::sched::SchedulerKind as K;
use fsmc::security::Scenario;

fn check(kind: K) -> fsmc::security::NonInterferenceReport {
    Scenario::new(kind, 2_000, 8).check().expect("scenario runs to completion")
}

fn assert_non_interfering(kind: K) {
    let report = check(kind);
    assert!(
        report.is_non_interfering(),
        "{kind} leaked: {} CPU cycles of divergence",
        report.max_divergence()
    );
}

#[test]
fn fs_rank_partitioned_is_non_interfering() {
    assert_non_interfering(K::FsRankPartitioned);
}

#[test]
fn fs_bank_partitioned_is_non_interfering() {
    assert_non_interfering(K::FsBankPartitioned);
}

#[test]
fn fs_reordered_bp_is_non_interfering() {
    assert_non_interfering(K::FsReorderedBankPartitioned);
}

#[test]
fn fs_np_naive_is_non_interfering() {
    assert_non_interfering(K::FsNoPartitionNaive);
}

#[test]
fn fs_triple_alternation_is_non_interfering() {
    assert_non_interfering(K::FsTripleAlternation);
}

#[test]
fn fs_with_prefetch_is_non_interfering() {
    // Prefetching fills *dummy* slots only; the victim's service must
    // remain co-runner-independent.
    assert_non_interfering(K::FsRankPartitionedPrefetch);
}

#[test]
fn fs_with_energy_optimisations_is_non_interfering() {
    use fsmc::core::sched::fs::EnergyOptions;
    use fsmc::cpu::trace::TraceSource;
    use fsmc::sim::{System, SystemConfig};
    use fsmc::workload::{BenchProfile, FloodTrace, IdleTrace, SyntheticTrace};

    let profile_under = |flood: bool| -> Vec<u64> {
        let mut cfg = SystemConfig::paper_default(K::FsRankPartitioned);
        cfg.energy_options = EnergyOptions::all();
        let mut traces: Vec<Box<dyn TraceSource>> = Vec::new();
        traces.push(Box::new(SyntheticTrace::new(BenchProfile::zeusmp(), 77)));
        for _ in 1..cfg.cores {
            if flood {
                traces.push(Box::new(FloodTrace::new()));
            } else {
                traces.push(Box::new(IdleTrace));
            }
        }
        let mut sys = System::new(&cfg, traces);
        sys.run_profile(0, 2_000, 8)
    };
    assert_eq!(profile_under(false), profile_under(true));
}

#[test]
fn baseline_interferes() {
    let report = check(K::Baseline);
    assert!(!report.is_non_interfering());
}

#[test]
fn tp_no_partition_is_non_interfering() {
    // Close-page TP with strict turn gating is fully deterministic.
    assert_non_interfering(K::TpNoPartition { turn: 172 });
}

#[test]
fn tp_fence_is_non_interfering() {
    // Flush-based TP: new starts stop a timing-derived fence before every
    // period boundary, in-flight work drains, and a precharge-all sweep
    // leaves the next owner the same all-banks-closed state regardless of
    // what the previous owner did.
    assert_non_interfering(K::TpFence { period: 300 });
}

#[test]
fn tp_bank_partitioned_leak_is_bounded_while_fs_is_exact() {
    // Bank-partitioned TP with the paper's ~12ns dead time retains a
    // small cross-turn rank-level coupling (tFAW/tRRD windows span the
    // turn boundary; closing them would need a 24-cycle dead time). Our
    // port bounds it to ~1% of execution time — in stark contrast to the
    // baseline's ~10x divergence and FS's *exact* zero.
    let report = check(K::TpBankPartitioned { turn: 60 });
    let total = *report.idle_profile.boundaries.last().expect("profile") as f64;
    let leak = report.max_divergence() as f64 / total;
    assert!(leak < 0.02, "TP-BP leak {:.3}% exceeds the expected bound", 100.0 * leak);
}
