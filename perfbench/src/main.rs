//! The fsmc performance benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed batch of simulated work, repeated for
//! `--seconds`. `--trace 0` prints the end-to-end metrics (tracing off);
//! `--trace 1` runs the outside-in traced run and prints the per-layer
//! metrics. Every run also verifies the simulator's outputs. The last
//! stdout line is one JSON object; see `perfbench/README.md`.

mod grid;
mod layers;
mod report;
mod single;

use report::{Checks, Kind, Metric, Metrics};
use std::process::ExitCode;

const USAGE: &str = "usage: fsmc-perfbench --workload <frfcfs-mcf|fs-rp-mix2|fs-np-mcf-idle|\
covert-grid> --seed <n> --seconds <s> --trace <0|1>";

/// The end-to-end metrics every `--trace 0` run prints, in order.
const END_TO_END: [&str; 7] = [
    "sim_cycles_per_s",
    "setup_s",
    "peak_rss_mb",
    "success_rate",
    "cell_s_p50",
    "cell_s_tail",
    "read_latency_cycles",
];

/// The per-layer metrics every `--trace 1` run prints, with their units.
/// A layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("sched.tick_ns", "ns"),
    ("sched.tick_share", "ratio"),
    ("sched.ticks_per_kcycle", "1/kcycle"),
    ("sched.issue_per_tick", "ratio"),
    ("sched.next_event_ns", "ns"),
    ("sched.next_event_per_kcycle", "1/kcycle"),
    ("sched.enqueue_per_kcycle", "1/kcycle"),
    ("sched.enqueue_reject_frac", "ratio"),
    ("sched.fast_forward_share", "ratio"),
    ("sched.fast_forward_cycles_per_call", "cycles"),
    ("sched.ticks", "count"),
    ("sched.issue_ticks", "count"),
    ("sched.next_event_calls", "count"),
    ("sched.enqueues", "count"),
    ("sched.enqueue_errors", "count"),
    ("sched.admission_probes", "count"),
    ("sched.admission_refusals", "count"),
    ("sched.event_hints", "count"),
    ("sched.fast_forward_calls", "count"),
    ("sched.fast_forward_cycles", "count"),
    ("solver.build_s", "s"),
    ("solver.builds", "count"),
    ("workload.next_op_ns", "ns"),
    ("workload.next_op_per_kcycle", "1/kcycle"),
    ("workload.share", "ratio"),
    ("workload.next_ops", "count"),
    ("system.self_share", "ratio"),
    ("system.skipped_frac", "ratio"),
    ("system.elided_frac", "ratio"),
    ("system.skipped_cycles", "count"),
    ("system.elided_ticks", "count"),
    ("system.cycles", "count"),
    ("sim.ipc_sum", "instr/cycle"),
    ("dram.cmds_per_kcycle", "1/kcycle"),
    ("dram.checker_ns_per_cmd", "ns"),
    ("dram.replay_ns_per_cmd", "ns"),
    ("dram.cmds", "count"),
    ("dram.activates", "count"),
    ("dram.logged_cmds", "count"),
    ("engine.busy_frac", "ratio"),
    ("engine.queue_wait_s", "s"),
    ("engine.cells", "count"),
    ("engine.workers", "count"),
    ("leak.sim_share", "ratio"),
    ("leak.estimator_ns_per_cell", "ns"),
    ("leak.windows_used_frac", "ratio"),
    ("leak.windows_used", "count"),
    ("leak.windows_run", "count"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Puts `measured` into the order and set of names the mode prints,
/// reading 0 for a layer the workload does not exercise. A measured
/// value that is unexpected or not a finite number fails the run.
fn canonical(measured: Metrics, trace: bool, checks: &mut Checks) -> Metrics {
    let names: Vec<(&'static str, &'static str)> =
        if trace { PER_LAYER.to_vec() } else { END_TO_END.iter().map(|&n| (n, "")).collect() };
    let bad: Vec<&Metric> = measured
        .0
        .iter()
        .filter(|m| {
            !m.value.is_finite()
                || !names.iter().any(|&(n, u)| n == m.name && (u.is_empty() || u == m.unit))
        })
        .collect();
    checks.check(bad.is_empty(), || format!("unexpected metrics {bad:?}"));
    let mut out = Metrics::default();
    for (name, unit) in names {
        out.0.push(match measured.0.iter().find(|m| m.name == name) {
            Some(m) => m.clone(),
            None => Metric { name, value: 0.0, unit, kind: Kind::NotRun },
        });
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let measured = if args.workload == "covert-grid" {
        grid::run(&args, &mut checks)
    } else if let Some(spec) = single::Spec::by_name(&args.workload) {
        single::run(spec, &args, &mut checks)
    } else {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let metrics = canonical(measured, args.trace, &mut checks);
    report::print(&args.workload, &checks, &metrics);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit `BENCHMARK.json` declares for `name`, if it lists it.
    fn declared_unit<'a>(json: &'a str, name: &str) -> Option<&'a str> {
        let entry = &json[json.find(&format!("\"name\": \"{name}\""))?..];
        let unit = &entry[entry.find("\"unit\": \"")? + 9..];
        Some(&unit[..unit.find('"')?])
    }

    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for name in END_TO_END {
            assert!(declared_unit(json, name).is_some(), "{name} missing");
        }
        for (name, unit) in PER_LAYER {
            assert_eq!(declared_unit(json, name), Some(unit), "{name}");
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload covert-grid --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 20.0, true));
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 1").is_err());
    }
}
