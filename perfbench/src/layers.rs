//! Outside-in instrumentation of the simulator's layers.
//!
//! `System::with_controller` accepts any `MemoryController` and any
//! `TraceSource`, so the traced run hands it forwarding wrappers that
//! count every call and time the ones that do work. Nothing inside the
//! program changes: the wrapped controller and traces answer every call
//! exactly as the bare ones do, which `single::tests` checks.

use fsmc_core::domain::DomainId;
use fsmc_core::error::CoreError;
use fsmc_core::queues::QueueFull;
use fsmc_core::sched::{
    CadenceSpec, CmdFaultSpec, Completion, McStats, MemoryController, ReconfigEvent, SchedEvent,
    SchedulerKind,
};
use fsmc_core::txn::Transaction;
use fsmc_cpu::trace::{TraceOp, TraceSource};
use fsmc_dram::checker::Violation;
use fsmc_dram::command::TimedCommand;
use fsmc_dram::{ActivityCounters, Cycle, DramDevice, ObsCommand, TimingParams};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls into one entry point and the host nanoseconds spent inside them.
/// Both are plain statistics that publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn count(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// What the simulator asked of the scheduler during one run.
#[derive(Debug, Default)]
pub struct SchedProbe {
    /// `tick` and `tick_into` together.
    pub tick: Span,
    /// Ticks after which the device's last issue is this cycle's.
    pub issue_ticks: AtomicU64,
    pub next_event: Span,
    pub enqueue: Span,
    /// `enqueue` calls that returned `QueueFull`.
    pub enqueue_errors: AtomicU64,
    /// `can_accept` probes (counted, not timed: they are a few
    /// instructions each and a clock read would dwarf them).
    pub admission: Span,
    /// Probes answered "no": the back-pressure a core sees.
    pub refusals: AtomicU64,
    /// `enqueue_event_hint` calls (counted only, as above).
    pub hints: Span,
    pub fast_forward: Span,
    /// Cycles `fast_forward` calls advanced past their `from`.
    pub fast_forward_cycles: AtomicU64,
}

impl SchedProbe {
    /// Host nanoseconds inside every timed scheduler entry point.
    pub fn nanos(&self) -> u64 {
        self.tick.nanos()
            + self.next_event.nanos()
            + self.enqueue.nanos()
            + self.fast_forward.nanos()
    }
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// A controller that forwards every `MemoryController` method, defaulted
/// ones included, to the controller it wraps.
pub struct TimedController {
    inner: Box<dyn MemoryController>,
    probe: Arc<SchedProbe>,
}

impl TimedController {
    pub fn new(inner: Box<dyn MemoryController>, probe: Arc<SchedProbe>) -> Self {
        TimedController { inner, probe }
    }

    fn note_issue(&self, now: Cycle) {
        if self.inner.device().last_issue_at() == Some(now) {
            bump(&self.probe.issue_ticks, 1);
        }
    }
}

impl MemoryController for TimedController {
    fn can_accept(&self, domain: DomainId) -> bool {
        self.probe.admission.count();
        let ok = self.inner.can_accept(domain);
        if !ok {
            bump(&self.probe.refusals, 1);
        }
        ok
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        let out = self.probe.enqueue.time(|| self.inner.enqueue(txn));
        if out.is_err() {
            bump(&self.probe.enqueue_errors, 1);
        }
        out
    }

    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let out = self.probe.tick.time(|| self.inner.tick(now));
        self.note_issue(now);
        out
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        self.probe.tick.time(|| self.inner.tick_into(now, out));
        self.note_issue(now);
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        self.probe.next_event.time(|| self.inner.next_event(now))
    }

    fn fast_forward(&mut self, from: Cycle, until: Cycle, out: &mut Vec<Completion>) -> Cycle {
        let reached = self.probe.fast_forward.time(|| self.inner.fast_forward(from, until, out));
        bump(&self.probe.fast_forward_cycles, reached.saturating_sub(from));
        reached
    }

    fn enqueue_event_hint(&self, txn: &Transaction, now: Cycle) -> Cycle {
        self.probe.hints.count();
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

/// A trace source that times every `next_op` of the source it wraps.
/// All cores of one system share one span.
pub struct TimedTrace {
    inner: Box<dyn TraceSource>,
    span: Arc<Span>,
}

impl TimedTrace {
    pub fn new(inner: Box<dyn TraceSource>, span: Arc<Span>) -> Self {
        TimedTrace { inner, span }
    }
}

impl TraceSource for TimedTrace {
    fn next_op(&mut self) -> TraceOp {
        self.span.time(|| self.inner.next_op())
    }
}
