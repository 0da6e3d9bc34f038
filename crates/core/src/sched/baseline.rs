//! The non-secure baseline: FR-FCFS open-page scheduling with
//! watermark-driven write draining and optional sandbox prefetching.
//!
//! This is the normalisation denominator for every figure in the paper.
//! (The paper uses the MSC-2012 winner; FR-FCFS open-page with write
//! drain is the same class of aggressive row-hit-first scheduler — see
//! DESIGN.md for the substitution note.)

use crate::domain::{DomainId, PartitionPolicy};
use crate::prefetch::SandboxPrefetcher;
use crate::queues::QueueFull;
use crate::refresh::RefreshManager;
use crate::sched::{Completion, McStats, MemoryController, SchedulerKind};
use crate::txn::{Transaction, TxnId, TxnKind};
use fsmc_dram::command::{Command, CommandKind, TimedCommand};
use fsmc_dram::device::IssueOutcome;
use fsmc_dram::geometry::{Geometry, LineAddr, RankId};
use fsmc_dram::{Cycle, DramDevice, TimingParams, Violation, NO_ROW};

/// What a queued transaction's next command is, given its bank's row
/// buffer: a CAS (row hit), an ACT (closed bank) or a PRE (another row
/// open — a row conflict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Closed,
    Conflict,
}

/// The candidate index entry of one queued transaction: its bank, its
/// class, and the cycle at which the rank and bank legality floors of
/// the class's next command clear — for a row hit, the bank group's
/// tCCD_L floor too. Floors and row state move only when this
/// controller issues a command to the transaction's rank, so a slot
/// re-derived after every such command always equals a fresh
/// [`Slot::of`] — the scheduler's passes and its `next_event` bound
/// read it instead of re-classifying every queued entry on every tick.
///
/// A floor past `now` makes `can_issue` fail for that class, so
/// `ready <= now` is a sound prefilter: the passes attempt the same
/// candidates, in the same order, with identical outcomes. For a row
/// command (ACT, PRE) `ready` is exactly the rank- and bank-level part
/// of [`DramDevice::next_legal_at`]; a CAS additionally waits for the
/// data bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    ready: Cycle,
    /// Flat bank index, `rank * banks_per_rank + bank`.
    gbi: u16,
    rank: u8,
    class: Class,
}

/// A rank's legality floors `(precharge, activate, read, write)`, from
/// [`DramDevice::rank_floor_parts`].
type Floors = (Cycle, Cycle, Cycle, Cycle);

impl Slot {
    /// Classifies `txn` against the device's current row state and
    /// floors.
    fn of(device: &DramDevice, txn: &Transaction) -> Slot {
        Slot::with_floors(device, device.rank_floor_parts(txn.loc.rank), txn)
    }

    /// [`Slot::of`] with the rank floors of `txn`'s rank already read,
    /// so a re-derivation of one rank reads them once.
    fn with_floors(
        device: &DramDevice,
        (pre_f, act_f, rd_f, wr_f): Floors,
        txn: &Transaction,
    ) -> Slot {
        let l = txn.loc;
        let b = l.bank.0 as usize;
        let banks = device.banks_of(l.rank);
        let (class, ready) = match banks.open_rows_slice()[b] {
            open if open == l.row.0 => {
                let rank_f = if txn.is_write { wr_f } else { rd_f };
                let group_f = device.cas_group_floor(l.rank, l.bank, !txn.is_write);
                (Class::Hit, rank_f.max(group_f).max(banks.next_cas_slice()[b]))
            }
            NO_ROW => (Class::Closed, act_f.max(banks.next_activate_slice()[b])),
            _ => (Class::Conflict, pre_f.max(banks.next_precharge_slice()[b])),
        };
        let gbi = l.rank.0 as u16 * device.geometry().banks_per_rank() as u16 + l.bank.0 as u16;
        Slot { ready, gbi, rank: l.rank.0, class }
    }

    /// The next command `txn` needs, given this slot's class.
    fn command(&self, txn: &Transaction) -> Command {
        let l = txn.loc;
        match self.class {
            Class::Hit if txn.is_write => Command::write(l.rank, l.bank, l.row, l.col),
            Class::Hit => Command::read(l.rank, l.bank, l.row, l.col),
            Class::Closed => Command::activate(l.rank, l.bank, l.row),
            Class::Conflict => Command::precharge(l.rank, l.bank),
        }
    }
}

/// One queued transaction and its command progress.
#[derive(Debug, Clone, Copy)]
struct Pending {
    txn: Transaction,
    issued_act: bool,
}

/// One FR-FCFS queue in age order, with each entry's [`Slot`] at the
/// same position in a parallel array the passes sweep.
#[derive(Debug, Default)]
struct Queue {
    entries: Vec<Pending>,
    slots: Vec<Slot>,
}

impl Queue {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn push(&mut self, slot: Slot, txn: Transaction) {
        self.slots.push(slot);
        self.entries.push(Pending { txn, issued_act: false });
    }

    fn remove(&mut self, i: usize) -> Pending {
        self.slots.remove(i);
        self.entries.remove(i)
    }
}

/// FR-FCFS open-page controller for one channel.
#[derive(Debug)]
pub struct BaselineScheduler {
    device: DramDevice,
    t: TimingParams,
    refresh: RefreshManager,
    stats: McStats,
    kind: SchedulerKind,
    reads: Queue,
    writes: Queue,
    /// Queued row hits per flat bank index, over both queues: the
    /// FR-FCFS guard that keeps a conflict from precharging a row some
    /// pending transaction still hits.
    pending_hits: Vec<u16>,
    /// Per rank, the minimum `ready` over queued row hits, `[reads,
    /// writes]` (indexed by `is_write`). Kept with the slots: set on
    /// push, re-derived with the rank after every command.
    hit_ready: Vec<[Cycle; 2]>,
    /// Per rank, `[reads, writes]`: a cycle before which the data bus
    /// admits no CAS of that direction on the rank — the last
    /// [`DramDevice::next_data_slot`] answer. New bursts only add
    /// conflicts, so the cycles before it stay blocked; pass 1 probes
    /// the bus again only once `now` reaches it.
    bus_ready: Vec<[Cycle; 2]>,
    read_capacity: usize,
    write_capacity: usize,
    drain_hi: usize,
    drain_lo: usize,
    draining: bool,
    prefetchers: Vec<SandboxPrefetcher>,
    next_prefetch_id: u64,
    domains: u8,
    /// Cached provable-no-op bound: every tick at a cycle strictly below
    /// this issues nothing and mutates nothing. Taken from `next_event`
    /// after a tick that issued no command; cleared (0) by anything that
    /// could create a new issue candidate — an enqueue, or any tick that
    /// touched the device. Queue contents and row state are constant
    /// while it holds, so both `tick_into` and `next_event` answer in
    /// O(1) instead of re-reading the index per idle cycle.
    idle_until: Cycle,
    /// Candidates that passed the slot and bus prefilters but failed
    /// `can_issue`. The prefilters cover every rule of that class, so
    /// the tests hold this at zero: one validation per issued command.
    #[cfg(test)]
    prefilter_misses: u64,
}

impl BaselineScheduler {
    /// Creates a baseline controller; `prefetch` enables the sandbox
    /// prefetcher (the `Baseline_Prefetch` design point of Figure 7).
    pub fn new(geom: Geometry, t: TimingParams, domains: u8, prefetch: bool) -> Self {
        let device = DramDevice::new(geom, t);
        let refresh = RefreshManager::new(&t, geom.ranks_per_channel());
        let ranks = geom.ranks_per_channel() as usize;
        let banks = ranks * geom.banks_per_rank() as usize;
        BaselineScheduler {
            device,
            t,
            refresh,
            stats: McStats::new(domains as usize),
            kind: if prefetch { SchedulerKind::BaselinePrefetch } else { SchedulerKind::Baseline },
            reads: Queue::default(),
            writes: Queue::default(),
            pending_hits: vec![0; banks],
            hit_ready: vec![[Cycle::MAX; 2]; ranks],
            bus_ready: vec![[0; 2]; ranks],
            read_capacity: 64,
            write_capacity: 64,
            drain_hi: 40,
            drain_lo: 16,
            draining: false,
            prefetchers: (0..domains).map(|_| SandboxPrefetcher::new()).collect(),
            next_prefetch_id: 1 << 62,
            domains,
            idle_until: 0,
            #[cfg(test)]
            prefilter_misses: 0,
        }
    }

    fn prefetch_enabled(&self) -> bool {
        matches!(self.kind, SchedulerKind::BaselinePrefetch)
    }

    /// Generate prefetch transactions while there is queue headroom.
    fn pump_prefetches(&mut self, now: Cycle) {
        if !self.prefetch_enabled() {
            return;
        }
        let geom = *self.device.geometry();
        // Prefetches only ride on an otherwise lightly-loaded read queue;
        // under load they would steal bandwidth from demand misses.
        for d in 0..self.domains {
            while self.reads.len() < self.domains as usize {
                let Some(local) = self.prefetchers[d as usize].next_prefetch() else { break };
                let loc = PartitionPolicy::None.map(&geom, DomainId(d), local);
                let txn = Transaction {
                    id: TxnId(self.next_prefetch_id),
                    domain: DomainId(d),
                    loc,
                    local_addr: local,
                    is_write: false,
                    arrival: now,
                    kind: TxnKind::Prefetch,
                };
                self.next_prefetch_id += 1;
                self.push(txn);
                self.stats.domain_mut(DomainId(d)).prefetches += 1;
            }
        }
    }

    /// Queues `txn` with a fresh slot.
    fn push(&mut self, txn: Transaction) {
        let slot = Slot::of(&self.device, &txn);
        if slot.class == Class::Hit {
            self.pending_hits[slot.gbi as usize] += 1;
            let best = &mut self.hit_ready[slot.rank as usize][txn.is_write as usize];
            *best = (*best).min(slot.ready);
        }
        let queue = if txn.is_write { &mut self.writes } else { &mut self.reads };
        queue.push(slot, txn);
    }

    /// Issues `cmd`, then re-derives the slots, bank hit counts and hit
    /// minima of its rank — the only ones a command can move. (A CAS
    /// removes its transaction first; the recount drops its hit.)
    fn issue(&mut self, cmd: &Command, now: Cycle) -> Result<IssueOutcome, Violation> {
        let out = self.device.issue(cmd, now)?;
        let bpr = self.device.geometry().banks_per_rank() as usize;
        let rank = cmd.rank.0;
        let floors = self.device.rank_floor_parts(cmd.rank);
        self.pending_hits[rank as usize * bpr..][..bpr].fill(0);
        for (dir, q) in [&mut self.reads, &mut self.writes].into_iter().enumerate() {
            let mut best = Cycle::MAX;
            for (p, s) in q.entries.iter().zip(q.slots.iter_mut()) {
                if s.rank == rank {
                    *s = Slot::with_floors(&self.device, floors, &p.txn);
                    if s.class == Class::Hit {
                        self.pending_hits[s.gbi as usize] += 1;
                        best = best.min(s.ready);
                    }
                }
            }
            self.hit_ready[rank as usize][dir] = best;
        }
        Ok(out)
    }

    /// The FR-FCFS precharge guard: a conflict waits while some queued
    /// transaction still hits its bank's open row.
    fn guarded(&self, s: &Slot) -> bool {
        s.class == Class::Conflict && self.pending_hits[s.gbi as usize] != 0
    }

    /// During the pre-refresh quiesce, close banks that are still open so
    /// the refresh window starts with every bank precharged.
    fn quiesce_precharge(&mut self, now: Cycle) {
        let Some((start, _)) = self.refresh.next_window(now) else { return };
        if now + self.t.t_rp as Cycle > start {
            return; // too late for a precharge to recover before the REF
        }
        for r in 0..self.device.geometry().ranks_per_channel() {
            if self.device.banks_of(RankId(r)).any_open() {
                let pre = Command::precharge_all(RankId(r));
                if self.device.can_issue(&pre, now).is_ok() {
                    self.issue(&pre, now).expect("validated precharge-all");
                    return;
                }
            }
        }
    }

    /// Attempts FR-FCFS issue from one queue; returns a completion if a
    /// CAS retired a transaction. At most one command is issued.
    fn try_issue(&mut self, is_write_queue: bool, now: Cycle) -> (bool, Option<Completion>) {
        // Pass 1: floor-ready row hits, oldest first. Candidates that
        // clear the rank/bank floors mostly fail on the data bus
        // (cross-rank tRTRS gaps around in-flight bursts). That verdict
        // depends only on (direction, rank, cycle) — and one queue holds
        // one direction — so the rank's bus-ready cycle answers it, and
        // the bus is probed again only once `now` reaches that cycle.
        // The same sweep remembers pass 2's first candidate.
        let dir = is_write_queue as usize;
        let queue = if is_write_queue { &self.writes } else { &self.reads };
        let mut cas_idx = None;
        let mut row_from = queue.len();
        for (i, s) in queue.slots.iter().enumerate() {
            if s.ready > now {
                continue;
            }
            if s.class != Class::Hit {
                if row_from == queue.len() && !self.guarded(s) {
                    row_from = i;
                }
                continue;
            }
            let bus = &mut self.bus_ready[s.rank as usize][dir];
            if *bus > now {
                continue;
            }
            *bus = self.device.next_data_slot(!is_write_queue, RankId(s.rank), now);
            if *bus > now {
                continue;
            }
            let cas = s.command(&queue.entries[i].txn);
            if self.device.can_issue(&cas, now).is_ok() {
                cas_idx = Some((i, cas));
                break;
            }
            #[cfg(test)]
            {
                self.prefilter_misses += 1;
            }
        }
        if let Some((i, cas)) = cas_idx {
            let p = if is_write_queue { self.writes.remove(i) } else { self.reads.remove(i) };
            let out = self.issue(&cas, now).expect("validated CAS");
            if p.issued_act {
                self.stats.row_misses += 1;
            } else {
                self.stats.row_hits += 1;
            }
            let finish = out.data_done.expect("CAS produces data");
            if !p.txn.is_write && p.txn.kind == TxnKind::Demand {
                let ds = self.stats.domain_mut(p.txn.domain);
                ds.read_latency_sum += finish.saturating_sub(p.txn.arrival);
                ds.reads_completed += 1;
            }
            // Writes complete too: the producer uses this to retire its
            // store-to-load forwarding window.
            return (true, Some(Completion { txn: p.txn, finish }));
        }

        // Pass 2: oldest floor-ready transaction whose next command (ACT
        // to a closed bank, PRE on a conflict) can issue, resuming where
        // pass 1 saw the first one. Never precharge a row some pending
        // transaction still hits.
        let queue = if is_write_queue { &self.writes } else { &self.reads };
        let mut next = None;
        for i in row_from..queue.len() {
            let s = &queue.slots[i];
            if s.class == Class::Hit || s.ready > now || self.guarded(s) {
                continue;
            }
            let cmd = s.command(&queue.entries[i].txn);
            if self.device.can_issue(&cmd, now).is_ok() {
                next = Some((i, cmd));
                break;
            }
            #[cfg(test)]
            {
                self.prefilter_misses += 1;
            }
        }
        let Some((i, cmd)) = next else { return (false, None) };
        self.issue(&cmd, now).expect("validated row command");
        if cmd.kind == CommandKind::Activate {
            let queue = if is_write_queue { &mut self.writes } else { &mut self.reads };
            queue.entries[i].issued_act = true;
        }
        (true, None)
    }

    /// The quiet-tick bound of [`MemoryController::next_event`] without
    /// its cached shortcut, with the FR-FCFS candidates bounded by
    /// `candidates(self, now + 1)`.
    fn quiet_bound(&self, now: Cycle, candidates: fn(&Self, Cycle) -> Cycle) -> Cycle {
        // The prefetcher can inject new work on any tick with headroom.
        if self.prefetchers.iter().any(|p| p.has_prefetch()) {
            return now + 1;
        }
        // Wall-clock refresh: the staggered REF commands themselves, and
        // (outside a window) the quiesce onset where ACTs stop and open
        // rows get swept closed.
        let mut next = self.refresh.next_command_cycle(now);
        if self.refresh.in_window(now + 1) {
            // Inside the window nothing but REFs issue; the first
            // transaction command can come no earlier than the window end.
            if let Some((_, end)) = self.refresh.next_window(now + 1) {
                next = next.min(end);
            }
            return next.max(now + 1);
        }
        next = next.min(self.refresh.next_blocked_cycle(now + 1));
        next.min(candidates(self, now + 1)).max(now + 1)
    }

    /// The first cycle `>= from` at which some queued transaction's next
    /// command could become device-legal and pass the scheduler's own
    /// guards. Row state and queue contents only change when a command
    /// issues (the simulator lowers the cached bound via
    /// `enqueue_event_hint` on every enqueue), so no tick before it can
    /// issue anything. A precharge deferred because pending row hits
    /// still target the open row is excluded: it stays deferred until
    /// one of those hits' CAS — a candidate in its own right — issues
    /// first.
    ///
    /// Everything but the shared buses is already in the slot index. A
    /// row command carries no data, so an ACT or unguarded PRE slot is
    /// legal from `max(ready, from)`. A CAS also needs a data-bus slot,
    /// which is one monotone function per (rank, direction), so the
    /// rank's minimum hit `ready` achieves that pair's minimum: one bus
    /// scan per pair, and only when the pair could still lower the
    /// bound. The command bus admits one command per cycle; that bump
    /// commutes with the minimum, so it applies once, at the end.
    fn candidate_bound(&self, from: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        for q in [&self.reads, &self.writes] {
            for s in &q.slots {
                if s.class != Class::Hit && !self.guarded(s) {
                    next = next.min(s.ready);
                }
            }
        }
        let mut next = next.max(from);
        for (r, (hit, bus)) in self.hit_ready.iter().zip(&self.bus_ready).enumerate() {
            for dir in 0..2 {
                // Every cycle before the bus-ready cycle stays blocked.
                let at = hit[dir].max(from).max(bus[dir]);
                if at < next {
                    let rank = RankId(r as u8);
                    next = next.min(self.device.next_data_slot(dir == 0, rank, at));
                }
            }
        }
        self.device.command_bus_free(next)
    }

    /// The bound [`BaselineScheduler::candidate_bound`] must equal: the
    /// minimum of [`DramDevice::next_legal_at`] over the next command of
    /// every queued transaction the precharge guard does not hold back.
    #[cfg(test)]
    fn reference_candidate_bound(&self, from: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        for q in [&self.reads, &self.writes] {
            for (p, s) in q.entries.iter().zip(&q.slots) {
                if !self.guarded(s) {
                    next = next.min(self.device.next_legal_at(&s.command(&p.txn), from));
                }
            }
        }
        next
    }

    /// Asserts that every slot equals a fresh classification of its
    /// transaction — the index invariant — and that `next_event` equals
    /// the per-transaction reference bound.
    #[cfg(test)]
    fn assert_index_fresh(&self, now: Cycle) {
        let mut hits = vec![0u16; self.pending_hits.len()];
        let mut hit_ready = vec![[Cycle::MAX; 2]; self.hit_ready.len()];
        for (dir, q) in [&self.reads, &self.writes].into_iter().enumerate() {
            assert_eq!(q.entries.len(), q.slots.len());
            for (p, s) in q.entries.iter().zip(&q.slots) {
                assert_eq!(*s, Slot::of(&self.device, &p.txn), "stale slot for {:?}", p.txn);
                if s.class == Class::Hit {
                    hits[s.gbi as usize] += 1;
                    let best = &mut hit_ready[s.rank as usize][dir];
                    *best = (*best).min(s.ready);
                }
            }
        }
        assert_eq!(hits, self.pending_hits, "stale bank hit counts");
        assert_eq!(hit_ready, self.hit_ready, "stale hit minima");
        assert_eq!(self.prefilter_misses, 0, "a prefiltered candidate failed validation");
        assert_eq!(
            self.next_event(now),
            self.quiet_bound(now, Self::reference_candidate_bound),
            "next_event differs from the per-transaction bound at {now}"
        );
    }
}

impl MemoryController for BaselineScheduler {
    fn can_accept(&self, _domain: DomainId) -> bool {
        self.reads.len() < self.read_capacity && self.writes.len() < self.write_capacity
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        let queue_full = if txn.is_write {
            self.writes.len() >= self.write_capacity
        } else {
            self.reads.len() >= self.read_capacity
        };
        if queue_full {
            return Err(QueueFull { domain: txn.domain });
        }
        let ds = self.stats.domain_mut(txn.domain);
        if txn.is_write {
            ds.demand_writes += 1;
        } else {
            ds.demand_reads += 1;
            if self.prefetch_enabled() {
                self.prefetchers[txn.domain.0 as usize].on_access(txn.local_addr);
            }
        }
        self.push(txn);
        self.idle_until = 0;
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.tick_into(now, &mut completions);
        completions
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        // Provably-idle tick: the cached bound was a full `next_event`
        // scan of this exact state (every mutation since would have
        // cleared it), and that scan folded in the refresh command
        // cycles, the quiesce onset, and every FR-FCFS candidate — so
        // nothing below could fire either. Skip the queue scans.
        if now < self.idle_until {
            return;
        }
        // Refresh window handling (identical across policies).
        if let Some(cmd) = self.refresh.command_at(now) {
            self.issue(&cmd, now).expect("refresh must be legal after quiesce");
            self.idle_until = 0;
            return;
        }
        if self.refresh.in_window(now) {
            return;
        }
        if !self.refresh.allows_transaction(now) {
            self.quiesce_precharge(now);
            // CAS to already-open rows could run past the window; stop
            // everything except the precharges above. The quiesce may
            // have touched the device, so drop any cached bound.
            self.idle_until = 0;
            return;
        }

        self.pump_prefetches(now);

        // Write-drain hysteresis.
        if self.writes.len() >= self.drain_hi {
            self.draining = true;
        } else if self.writes.len() <= self.drain_lo {
            self.draining = false;
        }
        let drain = self.draining || self.reads.entries.is_empty();

        let (issued, c) = self.try_issue(drain, now);
        if let Some(c) = c {
            out.push(c);
        }
        let mut any = issued;
        if !issued {
            // Opportunistic issue from the other queue.
            let (issued2, c2) = self.try_issue(!drain, now);
            any = issued2;
            if let Some(c2) = c2 {
                out.push(c2);
            }
        }
        self.idle_until = if any {
            0
        } else {
            // Nothing issued and nothing mutated: the state this tick
            // scanned stays exactly as-is until the bound (or an
            // enqueue clears it), so the scans need not repeat.
            self.next_event(now)
        };
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        // Same reasoning as in `tick_into`: the cached bound is the
        // result of scanning this exact (unchanged) state, so a fresh
        // scan could only return the same cycle.
        if now < self.idle_until {
            return self.idle_until;
        }
        self.quiet_bound(now, Self::candidate_bound)
    }

    fn enqueue_event_hint(&self, txn: &Transaction, now: Cycle) -> Cycle {
        // A demand read may just have trained the prefetcher (see
        // `enqueue`); fresh prefetches are pumped on the very next tick.
        if self.prefetchers.iter().any(|p| p.has_prefetch()) {
            return now + 1;
        }
        // The only *new* issue candidate is this transaction's own next
        // command: both queues are tried opportunistically every tick,
        // so existing entries' candidacy is unchanged, and every other
        // enqueue side effect (row-hit guards on deferred precharges,
        // drain-priority flips) can only *delay* issues. The precharge
        // guard is deliberately ignored — a too-early bound merely
        // costs one no-op tick.
        let cmd = Slot::of(&self.device, txn).command(txn);
        let at = self.device.next_legal_at(&cmd, now + 1);
        if at == Cycle::MAX {
            // Legality hinges on some other command issuing first; fall
            // back to a plain re-tick rather than claiming "never".
            return now + 1;
        }
        at.max(now + 1)
    }

    fn device(&self) -> &DramDevice {
        &self.device
    }

    fn finish(&mut self, now: Cycle) {
        self.device.finish(now);
    }

    fn stats(&self) -> &McStats {
        &self.stats
    }

    fn kind(&self) -> SchedulerKind {
        self.kind
    }

    fn record_commands(&mut self) {
        self.device.record_commands();
    }

    fn take_command_log(&mut self) -> Vec<TimedCommand> {
        self.device.take_log()
    }

    fn has_pending_log(&self) -> bool {
        self.device.has_log()
    }

    fn take_command_log_into(&mut self, out: &mut Vec<TimedCommand>) {
        self.device.take_log_into(out);
    }

    fn record_obs(&mut self) {
        self.device.record_obs();
    }

    fn has_obs(&self) -> bool {
        self.device.has_obs()
    }

    fn take_obs_into(&mut self, out: &mut Vec<fsmc_dram::ObsCommand>) {
        self.device.take_obs_into(out);
    }
}

/// Convenience: map a domain-local address for this controller's
/// (unpartitioned) address space.
pub fn map_local(geom: &Geometry, domain: DomainId, local: LineAddr) -> fsmc_dram::Location {
    PartitionPolicy::None.map(geom, domain, local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmc_dram::{DeviceGeneration, TimingChecker};
    use proptest::prelude::*;

    fn mk() -> BaselineScheduler {
        BaselineScheduler::new(Geometry::paper_default(), TimingParams::ddr3_1600(), 8, false)
    }

    fn txn(id: u64, domain: u8, local: u64, write: bool) -> Transaction {
        txn_on(&Geometry::paper_default(), id, domain, local, write)
    }

    fn txn_on(geom: &Geometry, id: u64, domain: u8, local: u64, write: bool) -> Transaction {
        let loc = PartitionPolicy::None.map(geom, DomainId(domain), LineAddr(local));
        if write {
            Transaction::write(TxnId(id), DomainId(domain), loc, 0)
        } else {
            Transaction::read(TxnId(id), DomainId(domain), loc, 0).with_local_addr(LineAddr(local))
        }
    }

    fn run(mc: &mut BaselineScheduler, cycles: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        for c in 0..cycles {
            all.extend(mc.tick(c));
        }
        all
    }

    #[test]
    fn single_read_completes_with_act_plus_cas_latency() {
        let mut mc = mk();
        mc.enqueue(txn(1, 0, 100, false)).unwrap();
        let done = run(&mut mc, 60);
        assert_eq!(done.len(), 1);
        // ACT at 0, CAS at 11, data done at 11 + 11 + 4 = 26.
        assert_eq!(done[0].finish, 26);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn second_read_to_same_row_is_a_row_hit() {
        let mut mc = mk();
        mc.enqueue(txn(1, 0, 100, false)).unwrap();
        mc.enqueue(txn(2, 0, 101, false)).unwrap();
        let done = run(&mut mc, 80);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.stats().row_misses, 1);
        // The hit's CAS follows tCCD after the first CAS.
        assert_eq!(done[1].finish - done[0].finish, 4);
    }

    #[test]
    fn writes_drain_when_reads_are_absent() {
        let mut mc = mk();
        for i in 0..4 {
            mc.enqueue(txn(i, 0, i * 1000, true)).unwrap();
        }
        run(&mut mc, 400);
        let w: u64 = mc.device().counters().total_writes();
        assert_eq!(w, 4);
    }

    #[test]
    fn command_stream_is_legal() {
        let mut mc = mk();
        mc.record_commands();
        for i in 0..32u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 37, i % 3 == 0)).unwrap();
        }
        run(&mut mc, 3000);
        let log = mc.take_command_log();
        assert!(log.len() >= 32);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let violations = checker.check(&log);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn refresh_windows_interleave_without_violations() {
        let mut mc = mk();
        mc.record_commands();
        let mut id = 0;
        let mut completions = 0;
        for c in 0..14_000u64 {
            if c % 50 == 0 && mc.can_accept(DomainId(0)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 53, false)).unwrap();
                id += 1;
            }
            completions += mc.tick(c).len();
        }
        assert!(completions > 100);
        // Two refresh windows elapsed; all 8 ranks refreshed in each.
        assert_eq!(mc.device().counters().total_refreshes(), 16);
        let log = mc.take_command_log();
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let violations = checker.check(&log);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Feeds `arrivals` (in cycle order) to `mc` at their cycles,
    /// dropping any that find a queue full, and ticks until `horizon`:
    /// every cycle when `dense`, else only at `next_event` bounds and
    /// arrival cycles (the simulator never skips a cycle at which a core
    /// could enqueue). Checks the slot index against a fresh
    /// classification, and `next_event` against the per-transaction
    /// reference bound, after every tick.
    fn drive(
        mc: &mut BaselineScheduler,
        arrivals: &[(Cycle, Transaction)],
        horizon: Cycle,
        dense: bool,
    ) -> Vec<Completion> {
        let (mut done, mut ai, mut c) = (Vec::new(), 0, 0);
        while c < horizon {
            while ai < arrivals.len() && arrivals[ai].0 <= c {
                let t = arrivals[ai].1;
                if mc.can_accept(t.domain) {
                    mc.enqueue(t).unwrap();
                }
                ai += 1;
            }
            done.extend(mc.tick(c));
            mc.assert_index_fresh(c);
            c = if dense {
                c + 1
            } else {
                let next = mc.next_event(c);
                arrivals.get(ai).map_or(next, |a| next.min(a.0.max(c + 1)))
            };
        }
        done
    }

    /// Runs `arrivals` per-cycle and with `next_event` skipping: both
    /// must give identical completions, command logs and stats, and the
    /// log must be legal.
    fn assert_skipping_is_exact(
        geom: Geometry,
        t: TimingParams,
        prefetch: bool,
        arrivals: &[(Cycle, Transaction)],
        horizon: Cycle,
    ) {
        let mk = || {
            let mut mc = BaselineScheduler::new(geom, t, 8, prefetch);
            mc.record_commands();
            mc
        };
        let (mut dense, mut sparse) = (mk(), mk());
        let dense_done = drive(&mut dense, arrivals, horizon, true);
        assert_eq!(dense_done, drive(&mut sparse, arrivals, horizon, false));
        let log = dense.take_command_log();
        assert_eq!(log, sparse.take_command_log());
        assert_eq!(dense.stats(), sparse.stats());
        let violations = TimingChecker::new(geom, t).check(&log);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn next_event_skips_are_sound_across_idle_refresh_spans() {
        // A short burst drains, then the controller idles across two
        // refresh windows.
        let arrivals: Vec<_> =
            (0..8u64).map(|i| (0, txn(i, (i % 8) as u8, i * 37, i % 3 == 0))).collect();
        let (geom, t) = (Geometry::paper_default(), TimingParams::ddr3_1600());
        assert_skipping_is_exact(geom, t, false, &arrivals, 14_000);
    }

    #[test]
    fn next_event_skips_are_sound_under_sustained_load() {
        // A steady mixed read/write stream keeps the queues busy across
        // refresh windows, write-drain flips, row conflicts and tFAW
        // pressure — exercising the slot-derived candidate bound rather
        // than the idle wall-clock one, on the paper's geometry and on a
        // 16-rank x 16-bank one.
        let t = TimingParams::ddr3_1600();
        for geom in [Geometry::paper_default(), Geometry::new(1, 16, 16, 32768, 128)] {
            let arrivals: Vec<_> = (0..120u64)
                .map(|i| (40 * (i / 4), txn_on(&geom, i, (i % 8) as u8, i * 97, i % 4 == 3)))
                .collect();
            assert_skipping_is_exact(geom, t, false, &arrivals, 14_000);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The slot index never goes stale, and `next_event` skipping
        /// stays exact, on random traffic across every device generation
        /// (bank groups on DDR4/HBM2), refresh windows and prefetching.
        #[test]
        fn index_stays_fresh_and_skipping_stays_exact(
            generation in prop::sample::select(DeviceGeneration::all().to_vec()),
            prefetch in any::<bool>(),
            ops in prop::collection::vec(
                (0u64..120, 0u8..4, any::<bool>(), 0u64..1 << 15, any::<bool>()),
                1..400,
            ),
        ) {
            let p = generation.profile();
            // With prefetching on, a 400-read stream first trains domain
            // 0's prefetcher (its sandbox accepts a stride only after a
            // 256-access round). Then each domain walks its own line
            // stream (row hits) unless an op jumps to a random line (row
            // conflicts).
            let train = if prefetch { 400 } else { 0 };
            let mut arrivals: Vec<_> =
                (0..train).map(|k| (10 * k, txn_on(&p.geometry, k, 0, k, false))).collect();
            let (mut at, mut cursor) = (10 * train, [train, 0, 0, 0]);
            for (i, &(gap, d, jump, line, write)) in ops.iter().enumerate() {
                at += gap;
                let local = if jump { line } else { cursor[d as usize] };
                cursor[d as usize] = local + 1;
                arrivals.push((at, txn_on(&p.geometry, train + i as u64, d, local, write)));
            }
            assert_skipping_is_exact(p.geometry, p.timing, prefetch, &arrivals, 24_000);
        }
    }

    #[test]
    fn backpressure_on_full_read_queue() {
        let mut mc = mk();
        for i in 0..64 {
            mc.enqueue(txn(i, 0, i, false)).unwrap();
        }
        assert!(!mc.can_accept(DomainId(0)));
        assert!(mc.enqueue(txn(99, 0, 99, false)).is_err());
    }

    #[test]
    fn prefetcher_injects_prefetch_reads_on_streaming_pattern() {
        let mut mc =
            BaselineScheduler::new(Geometry::paper_default(), TimingParams::ddr3_1600(), 8, true);
        let mut cycle = 0u64;
        for i in 0..600u64 {
            mc.enqueue(txn(i, 0, i, false)).unwrap();
            for _ in 0..12 {
                mc.tick(cycle);
                cycle += 1;
            }
        }
        let pf = mc.stats().domain(DomainId(0)).prefetches;
        assert!(pf > 0, "sandbox prefetcher never activated");
    }
}
