//! The side-channel experiment of Figure 4: an attacker (mcf) measures
//! its own progress to infer whether its co-runners are memory-intensive.
//!
//! Run with: `cargo run --release --example side_channel_attack`

use fsmc::core::sched::SchedulerKind;
use fsmc::security::noninterference::{CoRunners, Scenario};

fn main() {
    println!("An attacker measures the time to retire each 5k-instruction block.");
    println!("If the timing depends on co-runners, the memory controller leaks.\n");

    for kind in [SchedulerKind::Baseline, SchedulerKind::FsRankPartitioned] {
        let report = Scenario::new(kind, 5_000, 12).check().expect("paper configuration runs");
        println!("--- {kind} ---");
        println!(
            "attacker finish with idle co-runners:       {:>10} CPU cycles",
            report.idle_profile.boundaries.last().copied().unwrap_or(0)
        );
        println!(
            "attacker finish with flooding co-runners:   {:>10} CPU cycles",
            report.intensive_profile.boundaries.last().copied().unwrap_or(0)
        );
        println!(
            "worst-case divergence:                      {:>10} CPU cycles",
            report.max_divergence()
        );
        if report.is_non_interfering() {
            println!("=> ZERO leakage: the attacker cannot tell the environments apart.\n");
        } else {
            println!("=> LEAKS: the attacker can read its co-runners' memory intensity.\n");
        }
    }

    // The attack as a one-bit decision: is my neighbour using memory?
    let baseline = Scenario::new(SchedulerKind::Baseline, 5_000, 4);
    let probe = baseline.profile(CoRunners::MemoryIntensive).expect("baseline runs");
    let quiet = baseline.profile(CoRunners::Idle).expect("baseline runs");
    let slowdown = quiet.final_slowdown(&probe);
    println!("On the baseline the attacker runs {slowdown:.1}x slower next to a flooder —");
    println!("a trivially decodable signal. Under FS the ratio is exactly 1.0.");
}
