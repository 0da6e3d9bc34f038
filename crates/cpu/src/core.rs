//! The out-of-order core model: ROB occupancy, fetch/retire width, posted
//! writes, reads blocking retirement.
//!
//! This is the USIMM timing model with the paper's Table-1 core
//! parameters: 64-entry ROB, 4-wide fetch/dispatch/retire, 3.2 GHz.
//! Memory reads occupy a ROB slot until their data returns from the
//! memory controller; writes retire through a posted write path and only
//! stall the core via controller back-pressure.
//!
//! The ROB is stored run-length encoded, so a compute-bound core costs
//! one group per fetch cycle rather than one entry per instruction, and
//! [`OooCore::steady_cycles`] / [`OooCore::advance_compute`] move a core
//! in its steady full-width compute state forward many cycles at once.

use crate::trace::{MemOp, TraceOp, TraceSource};
use std::collections::VecDeque;

/// Result of offering a memory operation to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitResult {
    /// Accepted; the read will complete via [`OooCore::complete_read`]
    /// with this tag.
    Accepted { tag: u64 },
    /// Queue full: retry next cycle (core stalls).
    Rejected,
    /// Served without a memory transaction (prefetch-buffer or MSHR
    /// merge hit). Reads retire after the pipeline latency.
    Hit,
}

/// What the core can do before some external event, as classified by
/// [`OooCore::idle_until`] after a call to [`OooCore::cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreIdle {
    /// The next cycle performs real work (retire, fetch, or a memory
    /// submit) — it must be executed normally.
    Active,
    /// ROB full behind an outstanding read: every cycle until
    /// [`OooCore::complete_read`] is called is provably stall-only.
    BlockedOnMemory,
    /// ROB full behind a non-memory instruction: every CPU cycle strictly
    /// before this one is provably stall-only.
    WakeAt(u64),
}

/// Core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    pub rob_size: usize,
    /// Fetch/retire width per CPU cycle.
    pub width: u32,
    /// Pipeline depth: cycles from fetch to earliest retirement for
    /// non-memory instructions.
    pub pipeline_depth: u32,
}

impl CoreConfig {
    /// Table 1: 64-entry ROB, 4-wide.
    pub fn paper_default() -> Self {
        CoreConfig { rob_size: 64, width: 4, pipeline_depth: 10 }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper_default()
    }
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    pub instructions_retired: u64,
    pub cpu_cycles: u64,
    pub reads_issued: u64,
    pub writes_issued: u64,
    pub stall_cycles: u64,
}

impl CoreStats {
    /// Instructions per CPU cycle.
    pub fn ipc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.instructions_retired as f64 / self.cpu_cycles as f64
        }
    }
}

/// A run of `count` consecutive ROB entries that retire together: the
/// same `retire_at` and no outstanding read. A read stays a singleton
/// group carrying its tag in `waiting_on` until its data returns; no
/// later fetch ever merges into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RobGroup {
    /// CPU cycle at which the group's instructions may retire.
    retire_at: u64,
    count: u32,
    /// For a read: the tag we are waiting on (`None` once data returned).
    waiting_on: Option<u64>,
}

/// A single out-of-order core consuming a trace.
///
/// The ROB is run-length encoded: fetching a cycle's worth of
/// non-memory instructions pushes one `RobGroup`, and retiring takes
/// `min(count, width - retired)` off the front one. Per-instruction
/// semantics are exact; `rob_len` counts instructions, not groups.
pub struct OooCore {
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    rob: VecDeque<RobGroup>,
    /// Instructions in the ROB (the sum of the groups' counts).
    rob_len: usize,
    /// Non-memory instructions still to fetch before the pending mem op.
    nonmem_left: u64,
    pending_mem: Option<MemOp>,
    /// An op read from the trace by [`OooCore::steady_cycles`] that it
    /// could not fold into `nonmem_left`; fetch consumes it before
    /// asking the trace again.
    lookahead: Option<TraceOp>,
    completed_tags: Vec<u64>,
    next_tag: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for OooCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OooCore")
            .field("cfg", &self.cfg)
            .field("rob_occupancy", &self.rob_len)
            .field("stats", &self.stats)
            .finish()
    }
}

impl OooCore {
    pub fn new(cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        OooCore {
            cfg,
            trace,
            rob: VecDeque::with_capacity(cfg.rob_size),
            rob_len: 0,
            nonmem_left: 0,
            pending_mem: None,
            lookahead: None,
            completed_tags: Vec::new(),
            next_tag: 0,
            stats: CoreStats::default(),
        }
    }

    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Data for the read tagged `tag` has arrived.
    pub fn complete_read(&mut self, tag: u64) {
        self.completed_tags.push(tag);
    }

    /// Classifies what the *next* cycles would do, so a simulator can
    /// skip provably stall-only spans in bulk via
    /// [`OooCore::skip_stalled`]. Sound only when queried after
    /// [`OooCore::cycle`] has run for the current cycle and no completion
    /// has been delivered since.
    ///
    /// A stall-only cycle touches exactly two stats (`cpu_cycles`,
    /// `stall_cycles`) and nothing else: that requires a full ROB (no
    /// fetch, so the trace is never consulted), no pending completions,
    /// and a head entry that cannot retire.
    pub fn idle_until(&self) -> CoreIdle {
        if !self.completed_tags.is_empty() || self.rob_len < self.cfg.rob_size {
            return CoreIdle::Active;
        }
        match self.rob.front() {
            Some(g) => match g.waiting_on {
                Some(_) => CoreIdle::BlockedOnMemory,
                None => CoreIdle::WakeAt(g.retire_at),
            },
            // Unreachable for rob_size > 0, but an empty ROB fetches.
            None => CoreIdle::Active,
        }
    }

    /// Accounts `skipped` stall-only CPU cycles in bulk, advancing the
    /// clock to `next_cpu_cycle` (the first cycle that will run normally
    /// again). Bit-identical to executing each skipped cycle, *provided*
    /// [`OooCore::idle_until`] proved the whole span stall-only.
    pub fn skip_stalled(&mut self, skipped: u64, next_cpu_cycle: u64) {
        self.stats.stall_cycles += skipped;
        self.stats.cpu_cycles = self.stats.cpu_cycles.max(next_cpu_cycle);
    }

    /// How many of the CPU cycles `now_cpu..now_cpu + cap` the core
    /// provably spends in its steady full-width compute state, none of
    /// them offering a memory operation. [`OooCore::advance_compute`] runs
    /// any prefix of them in one step.
    ///
    /// The steady state: no completions pending and `k ≥ pipeline_depth`
    /// groups (at least one), each exactly `width` instructions and none
    /// a read, with group `i` retirable by cycle `now_cpu + i` and the
    /// back group retiring before `now_cpu + pipeline_depth`. Each cycle
    /// then retires the front group and fetches one retiring at
    /// `now + pipeline_depth` that cannot merge into the back, which
    /// keeps the shape — provided fetch has `width` non-memory
    /// instructions to take. Compute-only ops are pulled from the trace
    /// and folded into that budget up to `cap·width` instructions
    /// (per-cycle fetch would read them in the same order); a memory or
    /// empty op ends the fold and is kept for fetch.
    ///
    /// Returns 0 outside the steady state. Either way nothing a later
    /// cycle observes has changed: only ops fetch would have read next
    /// may have moved into the core.
    pub fn steady_cycles(&mut self, now_cpu: u64, cap: u64) -> u64 {
        let (width, depth) = (self.cfg.width, self.cfg.pipeline_depth as u64);
        let k = self.rob.len() as u64;
        let steady = k > 0
            && k >= depth
            && self.completed_tags.is_empty()
            && self.rob.back().is_some_and(|g| g.retire_at < now_cpu + depth)
            && self
                .rob
                .iter()
                .zip(now_cpu..)
                .all(|(g, by)| g.count == width && g.waiting_on.is_none() && g.retire_at <= by);
        if !steady {
            return 0;
        }
        let width = width as u64;
        while self.nonmem_left < cap * width && self.pending_mem.is_none() {
            let op = self.lookahead.take().unwrap_or_else(|| self.trace.next_op());
            if op.mem.is_some() || op.nonmem == 0 {
                self.lookahead = Some(op);
                break;
            }
            self.nonmem_left += op.nonmem as u64;
        }
        (self.nonmem_left / width).min(cap)
    }

    /// Runs CPU cycles `now_cpu..now_cpu + n` in one step. Bit-identical
    /// to `n` calls of [`OooCore::cycle`], provided
    /// [`OooCore::steady_cycles`] returned at least `n` at `now_cpu` and
    /// nothing has reached the core since.
    ///
    /// Cycle `j` pops the front group and pushes one retiring at
    /// `now_cpu + j + pipeline_depth`, so only the last `min(n, k)`
    /// pushes survive: O(min(n, k)) for `k` groups.
    pub fn advance_compute(&mut self, now_cpu: u64, n: u64) {
        let (width, depth) = (self.cfg.width, self.cfg.pipeline_depth as u64);
        let need = n * width as u64;
        debug_assert!(self.nonmem_left >= need, "advance past the folded fetch budget");
        let popped = n.min(self.rob.len() as u64);
        self.rob.drain(..popped as usize);
        for j in n - popped..n {
            let retire_at = now_cpu + j + depth;
            self.rob.push_back(RobGroup { retire_at, count: width, waiting_on: None });
        }
        self.nonmem_left -= need;
        self.stats.instructions_retired += need;
        self.stats.cpu_cycles = self.stats.cpu_cycles.max(now_cpu + n);
    }

    /// Appends `count` instructions that retire at `retire_at` without
    /// waiting on memory, extending the back group when it matches.
    fn push_ready(&mut self, retire_at: u64, count: u32) {
        self.rob_len += count as usize;
        if let Some(back) = self.rob.back_mut() {
            if back.waiting_on.is_none() && back.retire_at == retire_at {
                back.count += count;
                return;
            }
        }
        self.rob.push_back(RobGroup { retire_at, count, waiting_on: None });
    }

    /// Advances one CPU cycle. `submit` offers memory operations to the
    /// memory system (the system simulator routes them to the controller)
    /// and reports acceptance; tags are assigned by the core and echoed
    /// back through [`OooCore::complete_read`].
    pub fn cycle<F>(&mut self, now_cpu: u64, mut submit: F)
    where
        F: FnMut(MemOp, u64) -> SubmitResult,
    {
        self.stats.cpu_cycles = self.stats.cpu_cycles.max(now_cpu + 1);
        let (width, ready_at) = (self.cfg.width, now_cpu + self.cfg.pipeline_depth as u64);

        // Drain completions into the ROB.
        if !self.completed_tags.is_empty() {
            for g in self.rob.iter_mut() {
                if let Some(t) = g.waiting_on {
                    if self.completed_tags.contains(&t) {
                        g.waiting_on = None;
                        g.retire_at = g.retire_at.max(now_cpu);
                    }
                }
            }
            self.completed_tags.clear();
        }

        // Retire in order, up to `width` per cycle.
        let mut retired = 0;
        while retired < width {
            match self.rob.front_mut() {
                Some(g) if g.waiting_on.is_none() && g.retire_at <= now_cpu => {
                    let k = g.count.min(width - retired);
                    g.count -= k;
                    if g.count == 0 {
                        self.rob.pop_front();
                    }
                    self.rob_len -= k as usize;
                    self.stats.instructions_retired += k as u64;
                    retired += k;
                }
                _ => break,
            }
        }

        // Fetch, up to `width` per cycle, while ROB space remains.
        let mut fetched = 0;
        let mut stalled = false;
        while fetched < width && self.rob_len < self.cfg.rob_size && !stalled {
            if self.nonmem_left == 0 && self.pending_mem.is_none() {
                let op = self.lookahead.take().unwrap_or_else(|| self.trace.next_op());
                self.nonmem_left = op.nonmem as u64;
                self.pending_mem = op.mem;
                if op.nonmem == 0 && op.mem.is_none() {
                    // Degenerate empty op; avoid an infinite loop.
                    break;
                }
            }
            if self.nonmem_left > 0 {
                let room = ((width - fetched) as usize).min(self.cfg.rob_size - self.rob_len);
                let k = self.nonmem_left.min(room as u64) as u32;
                self.nonmem_left -= k as u64;
                self.push_ready(ready_at, k);
                fetched += k;
                continue;
            }
            if let Some(mem) = self.pending_mem {
                let tag = self.next_tag;
                match submit(mem, tag) {
                    SubmitResult::Accepted { tag: t } => {
                        debug_assert_eq!(t, tag, "memory system must echo the core's tag");
                        self.next_tag += 1;
                        if mem.is_write {
                            self.stats.writes_issued += 1;
                            self.push_ready(ready_at, 1);
                        } else {
                            self.stats.reads_issued += 1;
                            self.rob_len += 1;
                            self.rob.push_back(RobGroup {
                                retire_at: now_cpu,
                                count: 1,
                                waiting_on: Some(tag),
                            });
                        }
                        self.pending_mem = None;
                        fetched += 1;
                    }
                    SubmitResult::Hit => {
                        self.next_tag += 1;
                        self.push_ready(ready_at, 1);
                        self.pending_mem = None;
                        fetched += 1;
                    }
                    SubmitResult::Rejected => {
                        stalled = true;
                    }
                }
            }
        }
        if stalled || (self.rob_len >= self.cfg.rob_size && fetched == 0) {
            self.stats.stall_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn compute_only_core() -> OooCore {
        OooCore::new(
            CoreConfig::paper_default(),
            Box::new(VecTrace::new(vec![TraceOp::compute(100)])),
        )
    }

    #[test]
    fn compute_bound_core_reaches_full_width_ipc() {
        let mut core = compute_only_core();
        for c in 0..10_000 {
            core.cycle(c, |_, _| unreachable!("no memory ops in this trace"));
        }
        let ipc = core.stats().ipc();
        assert!(ipc > 3.8, "IPC {ipc} should approach width 4");
    }

    #[test]
    fn read_blocks_retirement_until_completion() {
        let trace =
            VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(1)), TraceOp::compute(200)]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        let issued = Rc::new(RefCell::new(Vec::new()));
        let issued2 = issued.clone();
        // Run 50 cycles without completing the read: the ROB fills and
        // retirement stops after the read reaches the head.
        for c in 0..50 {
            core.cycle(c, |op, tag| {
                issued2.borrow_mut().push((op, tag));
                SubmitResult::Accepted { tag }
            });
        }
        assert_eq!(issued.borrow().len(), 1);
        assert_eq!(core.stats().instructions_retired, 0);
        assert!(core.stats().stall_cycles > 0, "ROB should have filled");
        // Complete the read: retirement resumes.
        core.complete_read(0);
        for c in 50..200 {
            core.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert!(core.stats().instructions_retired > 100);
    }

    #[test]
    fn writes_are_posted_and_do_not_block() {
        let trace = VecTrace::new(vec![TraceOp::with_mem(3, MemOp::write(1))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        for c in 0..1000 {
            core.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert!(core.stats().instructions_retired > 3000);
        assert!(core.stats().writes_issued > 700);
    }

    #[test]
    fn rejected_memory_op_stalls_fetch_and_retries() {
        let trace = VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(7))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        let accept_after = 20u64;
        let mut first_accept = None;
        for c in 0..40 {
            core.cycle(c, |_, tag| {
                if c < accept_after {
                    SubmitResult::Rejected
                } else {
                    if first_accept.is_none() {
                        first_accept = Some(c);
                    }
                    SubmitResult::Accepted { tag }
                }
            });
        }
        assert_eq!(first_accept, Some(accept_after));
        assert!(core.stats().stall_cycles >= accept_after);
    }

    #[test]
    fn hit_responses_retire_like_compute() {
        let trace = VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(3))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        for c in 0..1000 {
            core.cycle(c, |_, _| SubmitResult::Hit);
        }
        // All reads served as hits: the core never waits on memory.
        assert!(core.stats().ipc() > 3.0, "ipc = {}", core.stats().ipc());
    }

    #[test]
    fn skip_stalled_matches_per_cycle_execution() {
        // Two identical cores blocked on the same never-completing read:
        // one steps every cycle, the other accounts the stall span in
        // bulk. Stats must match exactly.
        let mk = || {
            let trace =
                VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(5)), TraceOp::compute(500)]);
            OooCore::new(CoreConfig::paper_default(), Box::new(trace))
        };
        let (mut stepped, mut skipped) = (mk(), mk());
        let warmup = 40u64; // enough to fill the 64-entry ROB
        for c in 0..warmup {
            stepped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
            skipped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert_eq!(stepped.idle_until(), CoreIdle::BlockedOnMemory);
        assert_eq!(skipped.idle_until(), CoreIdle::BlockedOnMemory);
        let span = 10_000u64;
        for c in warmup..warmup + span {
            stepped.cycle(c, |_, _| unreachable!("full ROB never fetches"));
        }
        skipped.skip_stalled(span, warmup + span);
        assert_eq!(stepped.stats(), skipped.stats());
        // Both resume identically once the read completes.
        stepped.complete_read(0);
        skipped.complete_read(0);
        for c in warmup + span..warmup + span + 200 {
            stepped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
            skipped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert_eq!(stepped.stats(), skipped.stats());
    }

    #[test]
    fn mlp_is_bounded_by_rob() {
        // All-read trace, nothing completes: the number of issued reads
        // can never exceed the ROB size.
        let trace = VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(9))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        let mut issued = 0;
        for c in 0..500 {
            core.cycle(c, |_, tag| {
                issued += 1;
                SubmitResult::Accepted { tag }
            });
        }
        assert_eq!(issued, 64);
    }

    #[test]
    fn advance_compute_matches_stepping_a_compute_bound_core() {
        let mk = || {
            let trace = VecTrace::new(vec![TraceOp::compute(64), TraceOp::compute(7)]);
            OooCore::new(CoreConfig::paper_default(), Box::new(trace))
        };
        let (mut stepped, mut advanced) = (mk(), mk());
        // The steady state needs `pipeline_depth` cycles of fetch first.
        let mut now = 0;
        while now < 10 {
            assert_eq!(advanced.steady_cycles(now, 4), 0);
            stepped.cycle(now, |_, _| unreachable!("no memory ops in this trace"));
            advanced.cycle(now, |_, _| unreachable!("no memory ops in this trace"));
            now += 1;
        }
        // Spans cross op boundaries (64 + 7 instructions per loop).
        for _ in 0..1000 {
            assert_eq!(advanced.steady_cycles(now, 3), 3);
            advanced.advance_compute(now, 3);
            for c in now..now + 3 {
                stepped.cycle(c, |_, _| unreachable!());
            }
            now += 3;
        }
        assert_eq!(stepped.stats(), advanced.stats());
        assert_eq!(stepped.stats().stall_cycles, 0);
        assert_eq!(stepped.idle_until(), advanced.idle_until());
        assert_eq!(stepped.rob, advanced.rob);
    }

    #[test]
    fn advance_compute_covers_a_full_rob_draining_after_a_read() {
        // A read blocks the head while fetch fills all 64 entries; once
        // it retires the core runs at full width with 16 groups of 4 in
        // the ROB, all retirable on arrival at the head — `k > depth`.
        let mk = || {
            let trace = VecTrace::new(vec![
                TraceOp::with_mem(0, MemOp::read(1)),
                TraceOp::compute(2_000),
                TraceOp::compute(500),
            ]);
            OooCore::new(CoreConfig::paper_default(), Box::new(trace))
        };
        let (mut stepped, mut advanced) = (mk(), mk());
        for core in [&mut stepped, &mut advanced] {
            for c in 0..40 {
                core.cycle(c, |_, tag| SubmitResult::Accepted { tag });
            }
            core.complete_read(0);
            for c in 40..42 {
                core.cycle(c, |_, _| unreachable!("compute only after the read"));
            }
        }
        let mut now = 42;
        assert_eq!(advanced.rob.len(), 16);
        for n in [1, 5, 17, 40, 3, 16, 90] {
            assert_eq!(advanced.steady_cycles(now, n), n);
            advanced.advance_compute(now, n);
            for c in now..now + n {
                stepped.cycle(c, |_, _| unreachable!());
            }
            now += n;
            assert_eq!(stepped.stats(), advanced.stats());
            assert_eq!(stepped.rob, advanced.rob);
        }
    }

    #[test]
    fn steady_cycles_stops_at_the_next_memory_op() {
        // A memory op next in the trace ends the state: the cycles the
        // remaining compute budget covers are steady, the op stays
        // queued for fetch and the core is left as it was.
        let trace = VecTrace::new(vec![TraceOp::compute(48), TraceOp::with_mem(0, MemOp::read(1))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        for c in 0..10 {
            core.cycle(c, |_, _| unreachable!("the read is not fetched yet"));
        }
        let (stats, rob) = (*core.stats(), core.rob.clone());
        assert_eq!(core.steady_cycles(10, 3), 2, "8 instructions left before the read");
        assert_eq!((*core.stats(), &core.rob), (stats, &rob));
        assert!(core.lookahead.is_some());
        assert_eq!(core.steady_cycles(10, 3), 2);
        // An empty ROB retires nothing next cycle, whatever the depth.
        let cfg = CoreConfig { pipeline_depth: 0, ..CoreConfig::paper_default() };
        let mut core = OooCore::new(cfg, Box::new(VecTrace::new(vec![TraceOp::compute(64)])));
        assert_eq!(core.steady_cycles(0, 1), 0);
        core.cycle(0, |_, _| unreachable!());
        assert_eq!(core.steady_cycles(1, 5), 5, "one group suffices at depth 0");
    }

    /// The per-instruction ROB the run-length one replaced, kept as the
    /// differential oracle for [`rle_core_matches_per_instruction_reference`].
    struct RefCore {
        cfg: CoreConfig,
        trace: Box<dyn TraceSource>,
        rob: VecDeque<(u64, Option<u64>)>,
        nonmem_left: u32,
        pending_mem: Option<MemOp>,
        completed_tags: Vec<u64>,
        next_tag: u64,
        stats: CoreStats,
    }

    impl RefCore {
        fn new(cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
            RefCore {
                cfg,
                trace,
                rob: VecDeque::new(),
                nonmem_left: 0,
                pending_mem: None,
                completed_tags: Vec::new(),
                next_tag: 0,
                stats: CoreStats::default(),
            }
        }

        fn idle_until(&self) -> CoreIdle {
            if !self.completed_tags.is_empty() || self.rob.len() < self.cfg.rob_size {
                return CoreIdle::Active;
            }
            match self.rob.front() {
                Some((_, Some(_))) => CoreIdle::BlockedOnMemory,
                Some(&(retire_at, None)) => CoreIdle::WakeAt(retire_at),
                None => CoreIdle::Active,
            }
        }

        fn cycle(&mut self, now_cpu: u64, mut submit: impl FnMut(MemOp, u64) -> SubmitResult) {
            self.stats.cpu_cycles = self.stats.cpu_cycles.max(now_cpu + 1);
            let ready_at = now_cpu + self.cfg.pipeline_depth as u64;
            if !self.completed_tags.is_empty() {
                for (retire_at, waiting_on) in self.rob.iter_mut() {
                    if waiting_on.is_some_and(|t| self.completed_tags.contains(&t)) {
                        *waiting_on = None;
                        *retire_at = (*retire_at).max(now_cpu);
                    }
                }
                self.completed_tags.clear();
            }
            let mut retired = 0;
            while retired < self.cfg.width {
                match self.rob.front() {
                    Some(&(retire_at, None)) if retire_at <= now_cpu => {
                        self.rob.pop_front();
                        self.stats.instructions_retired += 1;
                        retired += 1;
                    }
                    _ => break,
                }
            }
            let mut fetched = 0;
            let mut stalled = false;
            while fetched < self.cfg.width && self.rob.len() < self.cfg.rob_size && !stalled {
                if self.nonmem_left == 0 && self.pending_mem.is_none() {
                    let op = self.trace.next_op();
                    self.nonmem_left = op.nonmem;
                    self.pending_mem = op.mem;
                    if op.nonmem == 0 && op.mem.is_none() {
                        break;
                    }
                }
                if self.nonmem_left > 0 {
                    self.nonmem_left -= 1;
                    self.rob.push_back((ready_at, None));
                    fetched += 1;
                    continue;
                }
                if let Some(mem) = self.pending_mem {
                    let tag = self.next_tag;
                    match submit(mem, tag) {
                        SubmitResult::Accepted { .. } => {
                            self.next_tag += 1;
                            if mem.is_write {
                                self.stats.writes_issued += 1;
                                self.rob.push_back((ready_at, None));
                            } else {
                                self.stats.reads_issued += 1;
                                self.rob.push_back((now_cpu, Some(tag)));
                            }
                            self.pending_mem = None;
                            fetched += 1;
                        }
                        SubmitResult::Hit => {
                            self.next_tag += 1;
                            self.rob.push_back((ready_at, None));
                            self.pending_mem = None;
                            fetched += 1;
                        }
                        SubmitResult::Rejected => stalled = true,
                    }
                }
            }
            if stalled || (self.rob.len() >= self.cfg.rob_size && fetched == 0) {
                self.stats.stall_cycles += 1;
            }
        }
    }

    /// A scripted memory system: the k-th offer gets `outcomes[k % len]`
    /// (accept, hit, reject), and the k-th accepted read completes
    /// `delays[k % len]` cycles after it was accepted.
    struct ScriptedMemory {
        outcomes: Vec<u8>,
        delays: Vec<u64>,
        offers: Vec<(MemOp, u64)>,
        reads: usize,
        inflight: Vec<(u64, u64)>,
    }

    impl ScriptedMemory {
        fn new(outcomes: &[u8], delays: &[u64]) -> Self {
            let (outcomes, delays) = (outcomes.to_vec(), delays.to_vec());
            ScriptedMemory { outcomes, delays, offers: Vec::new(), reads: 0, inflight: Vec::new() }
        }

        fn submit(&mut self, now: u64, op: MemOp, tag: u64) -> SubmitResult {
            let outcome = self.outcomes[self.offers.len() % self.outcomes.len()];
            self.offers.push((op, tag));
            match outcome {
                0 => {
                    if !op.is_write {
                        let delay = self.delays[self.reads % self.delays.len()];
                        self.inflight.push((now + delay, tag));
                        self.reads += 1;
                    }
                    SubmitResult::Accepted { tag }
                }
                1 => SubmitResult::Hit,
                _ => SubmitResult::Rejected,
            }
        }

        /// Tags whose data is due by `now`, in acceptance order.
        fn due(&mut self, now: u64) -> Vec<u64> {
            let due = self.inflight.iter().filter(|&&(at, _)| at <= now).map(|&(_, t)| t).collect();
            self.inflight.retain(|&(at, _)| at > now);
            due
        }
    }

    /// The run-length core's ROB, one `(retire_at, waiting_on)` per
    /// instruction, after checking the group invariants.
    fn expanded(core: &OooCore) -> Vec<(u64, Option<u64>)> {
        assert!(core.rob.iter().all(|g| g.count > 0 && (g.waiting_on.is_none() || g.count == 1)));
        assert_eq!(core.rob_len, core.rob.iter().map(|g| g.count as usize).sum::<usize>());
        core.rob.iter().flat_map(|g| (0..g.count).map(|_| (g.retire_at, g.waiting_on))).collect()
    }

    /// A trace op from a `(kind, nonmem, line)` draw: mostly compute,
    /// plus empty `compute(0)` ops, reads and writes after `nonmem`
    /// instructions, and mem-only reads and writes.
    fn trace_op((kind, nonmem, line): (u8, u32, u64)) -> TraceOp {
        match kind {
            0..=3 => TraceOp::compute(nonmem.max(1)),
            4 => TraceOp::compute(0),
            5 => TraceOp::with_mem(nonmem, MemOp::read(line)),
            6 => TraceOp::with_mem(nonmem, MemOp::write(line)),
            7 => TraceOp::with_mem(0, MemOp::read(line)),
            _ => TraceOp::with_mem(0, MemOp::write(line)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Lockstep against the per-instruction reference: after every
        /// cycle the stats, `idle_until`, ROB contents and offered
        /// `(MemOp, tag)` sequence agree. `steady_cycles` changes nothing
        /// observable, and an advance over any prefix of the cycles it
        /// grants equals that many stepped cycles.
        #[test]
        fn rle_core_matches_per_instruction_reference(
            (width, pipeline_depth, rob_size) in (1u32..=8, 0u32..=20, 1usize..=192),
            ops in proptest::collection::vec((0u8..9, 0u32..160, 0u64..64), 1..10),
            outcomes in proptest::collection::vec(0u8..3, 1..8),
            delays in proptest::collection::vec(0u64..40, 1..8),
            script in proptest::collection::vec((0u8..4, 1u64..64, 0u64..3), 1..400),
        ) {
            // The steady compute state needs `rob_size >= depth·width`;
            // in a share of the cases it can never form, and above it a
            // ROB that filled behind a read drains with `k > depth`.
            let cfg = CoreConfig { rob_size, width, pipeline_depth };
            let ops: Vec<TraceOp> = ops.into_iter().map(trace_op).collect();
            let mut reference = RefCore::new(cfg, Box::new(VecTrace::new(ops.clone())));
            let mut core = OooCore::new(cfg, Box::new(VecTrace::new(ops)));
            let mut ref_mem = ScriptedMemory::new(&outcomes, &delays);
            let mut mem = ScriptedMemory::new(&outcomes, &delays);
            let mut now = 0;
            for (action, cap, short) in script {
                for tag in ref_mem.due(now) {
                    reference.completed_tags.push(tag);
                }
                for tag in mem.due(now) {
                    core.complete_read(tag);
                }
                if action == 0 {
                    let before = (*core.stats(), core.idle_until(), expanded(&core));
                    let steady = core.steady_cycles(now, cap);
                    proptest::prop_assert!(steady <= cap);
                    proptest::prop_assert_eq!(
                        (*core.stats(), core.idle_until(), expanded(&core)),
                        before
                    );
                    let n = steady - steady.min(short);
                    if n == 0 {
                        continue;
                    }
                    core.advance_compute(now, n);
                    proptest::prop_assert!(mem.inflight.is_empty());
                    let offers = ref_mem.offers.len();
                    for c in now..now + n {
                        reference.cycle(c, |op, tag| ref_mem.submit(c, op, tag));
                    }
                    proptest::prop_assert_eq!(ref_mem.offers.len(), offers);
                    now += n;
                } else {
                    reference.cycle(now, |op, tag| ref_mem.submit(now, op, tag));
                    core.cycle(now, |op, tag| mem.submit(now, op, tag));
                    now += 1;
                }
                proptest::prop_assert_eq!(&reference.stats, core.stats());
                proptest::prop_assert_eq!(reference.idle_until(), core.idle_until());
                proptest::prop_assert!(reference.rob.iter().copied().eq(expanded(&core)));
                proptest::prop_assert_eq!(&ref_mem.offers, &mem.offers);
            }
        }
    }
}
