//! Exact work counts: how many times the simulator asks the controller
//! to act, on one fixed run. Every count here is deterministic — it
//! depends on the seed and the code, never on the host — so a change
//! that does more scheduler work per simulated cycle, or that changes a
//! single scheduling decision, fails this test on any machine.
//!
//! The run is the FR-FCFS benchmark configuration: 8 × mcf on
//! DDR3-1600 under the `Baseline` scheduler, seed 1, 200k DRAM cycles.
//! A forwarding wrapper counts the controller calls; the wrapped
//! controller answers every call exactly as the bare one does.

use fsmc::core::domain::DomainId;
use fsmc::core::error::CoreError;
use fsmc::core::queues::QueueFull;
use fsmc::core::sched::{
    CadenceSpec, CmdFaultSpec, Completion, McStats, MemoryController, ReconfigEvent, SchedEvent,
    SchedulerKind,
};
use fsmc::core::txn::Transaction;
use fsmc::cpu::TraceSource;
use fsmc::dram::checker::Violation;
use fsmc::dram::command::TimedCommand;
use fsmc::dram::{ActivityCounters, Cycle, DeviceGeneration, DramDevice, ObsCommand, TimingParams};
use fsmc::sim::system::try_build_controller;
use fsmc::sim::{System, SystemConfig};
use fsmc::workload::{BenchProfile, SyntheticTrace};
use std::cell::Cell;
use std::rc::Rc;

/// Controller calls made during one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Calls {
    ticks: u64,
    /// Ticks after which the device's last command is that cycle's.
    issue_ticks: u64,
    next_event: u64,
    fast_forward: u64,
    fast_forward_cycles: u64,
    enqueues: u64,
}

/// Forwards every `MemoryController` method, defaulted ones included,
/// and counts the ones that drive scheduling work.
struct Counting {
    inner: Box<dyn MemoryController>,
    calls: Rc<Cell<Calls>>,
}

impl Counting {
    fn note(&self, f: impl FnOnce(&mut Calls)) {
        let mut c = self.calls.get();
        f(&mut c);
        self.calls.set(c);
    }

    fn note_tick(&self, now: Cycle) {
        let issued = self.inner.device().last_issue_at() == Some(now);
        self.note(|c| {
            c.ticks += 1;
            c.issue_ticks += issued as u64;
        });
    }
}

impl MemoryController for Counting {
    fn can_accept(&self, domain: DomainId) -> bool {
        self.inner.can_accept(domain)
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        self.note(|c| c.enqueues += 1);
        self.inner.enqueue(txn)
    }

    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let out = self.inner.tick(now);
        self.note_tick(now);
        out
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        self.inner.tick_into(now, out);
        self.note_tick(now);
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        self.note(|c| c.next_event += 1);
        self.inner.next_event(now)
    }

    fn fast_forward(&mut self, from: Cycle, until: Cycle, out: &mut Vec<Completion>) -> Cycle {
        let reached = self.inner.fast_forward(from, until, out);
        self.note(|c| {
            c.fast_forward += 1;
            c.fast_forward_cycles += reached.saturating_sub(from);
        });
        reached
    }

    fn enqueue_event_hint(&self, txn: &Transaction, now: Cycle) -> Cycle {
        self.inner.enqueue_event_hint(txn, now)
    }

    fn device(&self) -> &DramDevice {
        self.inner.device()
    }

    fn aggregate_counters(&self) -> ActivityCounters {
        self.inner.aggregate_counters()
    }

    fn finish(&mut self, now: Cycle) {
        self.inner.finish(now)
    }

    fn stats(&self) -> &McStats {
        self.inner.stats()
    }

    fn kind(&self) -> SchedulerKind {
        self.inner.kind()
    }

    fn record_commands(&mut self) {
        self.inner.record_commands()
    }

    fn take_command_log(&mut self) -> Vec<TimedCommand> {
        self.inner.take_command_log()
    }

    fn has_pending_log(&self) -> bool {
        self.inner.has_pending_log()
    }

    fn take_command_log_into(&mut self, out: &mut Vec<TimedCommand>) {
        self.inner.take_command_log_into(out)
    }

    fn record_obs(&mut self) {
        self.inner.record_obs()
    }

    fn has_obs(&self) -> bool {
        self.inner.has_obs()
    }

    fn take_obs_into(&mut self, out: &mut Vec<ObsCommand>) {
        self.inner.take_obs_into(out)
    }

    fn has_sched_events(&self) -> bool {
        self.inner.has_sched_events()
    }

    fn take_sched_events_into(&mut self, out: &mut Vec<SchedEvent>) {
        self.inner.take_sched_events_into(out)
    }

    fn fault(&self) -> Option<Violation> {
        self.inner.fault()
    }

    fn inject_command_faults(&mut self, spec: CmdFaultSpec) {
        self.inner.inject_command_faults(spec)
    }

    fn set_device_timing(&mut self, t: TimingParams) {
        self.inner.set_device_timing(t)
    }

    fn cadence_spec(&self) -> Option<CadenceSpec> {
        self.inner.cadence_spec()
    }

    fn reconfig_boundary(&self, now: Cycle) -> Cycle {
        self.inner.reconfig_boundary(now)
    }

    fn reconfigure(&mut self, events: &[ReconfigEvent], now: Cycle) -> Result<(), CoreError> {
        self.inner.reconfigure(events, now)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

#[test]
fn frfcfs_mcf_work_counts_are_pinned() {
    let cfg = SystemConfig::for_device(DeviceGeneration::Ddr3_1600, SchedulerKind::Baseline, 8);
    let seed = 1u64;
    let traces = (0..8u64)
        .map(|i| {
            Box::new(SyntheticTrace::new(BenchProfile::mcf(), seed + i)) as Box<dyn TraceSource>
        })
        .collect();
    let calls = Rc::new(Cell::new(Calls::default()));
    let mc = Counting { inner: try_build_controller(&cfg).unwrap(), calls: calls.clone() };
    let mut sys = System::with_controller(&cfg, traces, Box::new(mc));
    let stats = sys.run_cycles(200_000);

    let counters = sys.controller().aggregate_counters();
    let cmds = [
        counters.total_activates(),
        counters.total_reads(),
        counters.total_writes(),
        counters.ranks().iter().map(|r| r.precharges).sum(),
        counters.total_refreshes(),
    ];
    let got = (calls.get(), sys.fastpath_counters(), sys.advanced_core_cycles(), cmds);
    let want = (
        Calls {
            ticks: 134_297,
            issue_ticks: 93_962,
            next_event: 38_167,
            fast_forward: 25_777,
            fast_forward_cycles: 0,
            enqueues: 35_461,
        },
        // (skipped cycles, elided ticks)
        (126_549, 44_930),
        2_860,
        // activates, reads, writes, precharges, refreshes
        [30_032, 30_054, 5_369, 28_251, 256],
    );
    assert_eq!(got, want, "work counts moved (reads completed: {})", stats.reads_completed);
}
