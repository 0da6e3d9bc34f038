//! Determinism contract for the covert-channel harness: the capacity
//! CSV must be byte-identical at any thread count and on both
//! simulation paths (per-cycle and event-driven fast path) — the
//! decoder sees the exact same latencies either way.

use fsmc::core::sched::SchedulerKind as K;
use fsmc::dram::DeviceGeneration;
use fsmc::leak::{
    capacity_matrix, csv_row, default_secret, measure_cell, render_csv, run_leak_campaign,
    LeakCampaignConfig, Protocol,
};
use fsmc::sim::Engine;

const WINDOW_CYCLES: u64 = 2_500;
const WINDOWS: usize = 30;

fn small_matrix(engine: &Engine) -> String {
    let cells = capacity_matrix(
        engine,
        &[DeviceGeneration::Ddr3_1600, DeviceGeneration::Hbm2],
        &[K::Baseline, K::TpFence { period: 300 }, K::FsRankPartitioned],
        &[Protocol::Intensity, Protocol::BankConflict],
        &default_secret(),
        WINDOW_CYCLES,
        WINDOWS,
    );
    render_csv(&cells)
}

#[test]
fn capacity_csv_is_byte_identical_across_thread_counts() {
    let single = small_matrix(&Engine::with_threads(1));
    let threaded = small_matrix(&Engine::with_threads(8));
    assert_eq!(single, threaded, "capacity CSV depends on FSMC_THREADS");
    // Sanity: the CSV actually carries the matrix, not just a header.
    assert_eq!(single.lines().count(), 1 + 2 * 3 * 2);
}

#[test]
fn capacity_cell_is_byte_identical_with_and_without_fastpath() {
    let secret = default_secret();
    // The covert grid's two generations. Both run four CPU cycles per
    // DRAM cycle; `tests/determinism.rs` pins the idle co-runners'
    // compute advance at the other ratios (LPDDR4 two, HBM2 three).
    for device in [DeviceGeneration::Ddr3_1600, DeviceGeneration::Ddr4_2400] {
        for protocol in Protocol::all() {
            for kind in [K::Baseline, K::FsRankPartitioned] {
                let cell = |no_fastpath| {
                    measure_cell(
                        device,
                        kind,
                        protocol,
                        &secret,
                        WINDOW_CYCLES,
                        WINDOWS,
                        no_fastpath,
                    )
                    .unwrap()
                };
                let (fast, slow) = (cell(false), cell(true));
                assert_eq!(
                    csv_row(&fast),
                    csv_row(&slow),
                    "{device} {protocol:?} {kind:?}: decoder saw different latencies on the \
                     two simulation paths"
                );
                // Stronger than the rounded CSV: the raw window series matches.
                assert_eq!(fast.ber.to_bits(), slow.ber.to_bits());
                assert_eq!(fast.mi_bits.to_bits(), slow.mi_bits.to_bits());
            }
        }
    }
}

#[test]
fn leak_campaign_report_is_identical_across_thread_counts() {
    let mut cfg = LeakCampaignConfig::new(5);
    cfg.population = 6;
    cfg.windows = 30;
    let single = run_leak_campaign(&Engine::with_threads(1), &cfg).render();
    let threaded = run_leak_campaign(&Engine::with_threads(8), &cfg).render();
    assert_eq!(single, threaded, "campaign report depends on FSMC_THREADS");
}
