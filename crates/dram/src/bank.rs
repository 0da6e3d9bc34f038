//! Per-bank DRAM state machine: row-buffer state and bank-local timing.
//!
//! The hot state is laid out struct-of-arrays: one [`BankArrays`] holds
//! every bank of a rank as flat, cache-line-friendly vectors of ready
//! cycles and open-row registers, so scheduler classification, the
//! issue loop, and `TimingChecker`-style probes walk contiguous memory
//! instead of chasing per-bank structs.

use crate::checker::Violation;
use crate::command::{Command, CommandKind};
use crate::geometry::RowId;
use crate::timing::TimingParams;
use crate::Cycle;

/// Sentinel in the open-row register meaning "no row open". Row ids are
/// physical row indices (far below `u32::MAX` on every modelled part).
pub const NO_ROW: u32 = u32::MAX;

/// The banks of one rank in struct-of-arrays layout: which row (if any)
/// each row buffer holds and the earliest cycles at which each command
/// class may next be issued, one flat array per field.
///
/// Banks do not know about rank-level constraints (tRRD, tFAW, CAS
/// turnarounds) — those live in [`crate::rank::RankState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankArrays {
    /// Open-row register per bank ([`NO_ROW`] when precharged).
    open_row: Vec<u32>,
    /// Earliest legal `Activate` per bank.
    next_activate: Vec<Cycle>,
    /// Earliest legal CAS to the open row (tRCD-gated) per bank.
    next_cas: Vec<Cycle>,
    /// Earliest legal `Precharge` (tRAS / tRTP / write-recovery gated).
    next_precharge: Vec<Cycle>,
    /// Cycle of the most recent `Activate`, for tRC accounting.
    last_activate: Vec<Cycle>,
}

impl BankArrays {
    /// `banks` closed, immediately-usable banks.
    pub fn new(banks: usize) -> Self {
        BankArrays {
            open_row: vec![NO_ROW; banks],
            next_activate: vec![0; banks],
            next_cas: vec![0; banks],
            next_precharge: vec![0; banks],
            last_activate: vec![0; banks],
        }
    }

    /// Number of banks held.
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// True when holding no banks (never the case for a real rank).
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// The row currently held in `bank`'s row buffer, if any.
    #[inline]
    pub fn open_row(&self, bank: usize) -> Option<RowId> {
        let r = self.open_row[bank];
        (r != NO_ROW).then_some(RowId(r))
    }

    /// True if any bank holds an open row.
    #[inline]
    pub fn any_open(&self) -> bool {
        self.open_row.iter().any(|&r| r != NO_ROW)
    }

    /// Earliest cycle at which an `Activate` to `bank` is legal.
    #[inline]
    pub fn next_activate_at(&self, bank: usize) -> Cycle {
        self.next_activate[bank]
    }

    /// Earliest cycle at which a CAS to `bank`'s open row is legal.
    #[inline]
    pub fn next_cas_at(&self, bank: usize) -> Cycle {
        self.next_cas[bank]
    }

    /// Earliest cycle at which a `Precharge` of `bank` is legal.
    #[inline]
    pub fn next_precharge_at(&self, bank: usize) -> Cycle {
        self.next_precharge[bank]
    }

    /// The raw open-row registers ([`NO_ROW`] = precharged), for
    /// schedulers that classify whole queues against row state with
    /// plain array loads instead of per-entry accessor calls.
    #[inline]
    pub fn open_rows_slice(&self) -> &[u32] {
        &self.open_row
    }

    /// Flat per-bank CAS readiness.
    #[inline]
    pub fn next_cas_slice(&self) -> &[Cycle] {
        &self.next_cas
    }

    /// Flat per-bank precharge readiness.
    #[inline]
    pub fn next_precharge_slice(&self) -> &[Cycle] {
        &self.next_precharge
    }

    /// Flat per-bank activate readiness.
    #[inline]
    pub fn next_activate_slice(&self) -> &[Cycle] {
        &self.next_activate
    }

    /// True if `bank` is precharged and past its recovery window, i.e. a
    /// refresh or activate could start at `cycle`.
    #[inline]
    pub fn idle_at(&self, bank: usize, cycle: Cycle) -> bool {
        self.open_row[bank] == NO_ROW && cycle >= self.next_activate[bank]
    }

    /// True if every bank is precharged and past recovery at `cycle`.
    pub fn all_idle(&self, cycle: Cycle) -> bool {
        (0..self.len()).all(|b| self.idle_at(b, cycle))
    }

    /// Checks bank-local legality of `cmd` at `cycle` against `bank`.
    pub fn can_issue(
        &self,
        bank: usize,
        cmd: &Command,
        cycle: Cycle,
        _t: &TimingParams,
    ) -> Result<(), Violation> {
        match cmd.kind {
            CommandKind::Activate => {
                if self.open_row[bank] != NO_ROW {
                    return Err(Violation::state(*cmd, cycle, "activate while a row is open"));
                }
                Violation::check_earliest(*cmd, cycle, self.next_activate[bank], "tRC/tRP")
            }
            k if k.is_cas() => {
                match self.open_row[bank] {
                    NO_ROW => return Err(Violation::state(*cmd, cycle, "CAS on a closed bank")),
                    r if r != cmd.row.0 => {
                        return Err(Violation::state(*cmd, cycle, "CAS to a row that is not open"))
                    }
                    _ => {}
                }
                Violation::check_earliest(*cmd, cycle, self.next_cas[bank], "tRCD")
            }
            CommandKind::Precharge | CommandKind::PrechargeAll => {
                if self.open_row[bank] == NO_ROW {
                    // Precharging an already-precharged bank is a legal NOP.
                    return Ok(());
                }
                Violation::check_earliest(*cmd, cycle, self.next_precharge[bank], "tRAS/tRTP/tWR")
            }
            CommandKind::Refresh => {
                if self.open_row[bank] != NO_ROW {
                    return Err(Violation::state(*cmd, cycle, "refresh with a row open"));
                }
                Violation::check_earliest(*cmd, cycle, self.next_activate[bank], "tRP before REF")
            }
            // Power-down legality is rank-level.
            _ => Ok(()),
        }
    }

    /// Applies `cmd` at `cycle` to `bank`, updating row state and
    /// earliest-issue times. Caller must have validated with
    /// [`BankArrays::can_issue`].
    pub fn apply(&mut self, bank: usize, cmd: &Command, cycle: Cycle, t: &TimingParams) {
        match cmd.kind {
            CommandKind::Activate => {
                self.open_row[bank] = cmd.row.0;
                self.last_activate[bank] = cycle;
                self.next_cas[bank] = cycle + t.t_rcd as Cycle;
                self.next_precharge[bank] = cycle + t.t_ras as Cycle;
                self.next_activate[bank] = cycle + t.t_rc as Cycle;
            }
            CommandKind::Read | CommandKind::ReadAp => {
                self.next_precharge[bank] = self.next_precharge[bank].max(cycle + t.t_rtp as Cycle);
                if cmd.kind == CommandKind::ReadAp {
                    self.auto_precharge(bank, t);
                }
            }
            CommandKind::Write | CommandKind::WriteAp => {
                self.next_precharge[bank] =
                    self.next_precharge[bank].max(cycle + t.write_ap_pre_offset() as Cycle);
                if cmd.kind == CommandKind::WriteAp {
                    self.auto_precharge(bank, t);
                }
            }
            CommandKind::Precharge | CommandKind::PrechargeAll => {
                if self.open_row[bank] != NO_ROW {
                    let pre_start = cycle.max(self.next_precharge[bank]);
                    self.close(bank, pre_start, t);
                }
            }
            CommandKind::Refresh => {
                self.next_activate[bank] = self.next_activate[bank].max(cycle + t.t_rfc as Cycle);
            }
            CommandKind::PowerDownEnter | CommandKind::PowerDownExit => {}
        }
    }

    /// Earliest cycle at which `cmd` could pass [`BankArrays::can_issue`]
    /// against `bank`, assuming no further commands touch the bank in the
    /// meantime. `Cycle::MAX` when the row-buffer state rules the command
    /// out entirely (CAS on a closed bank or the wrong row, ACT/REF with
    /// a row open) — only another command can change that.
    pub fn next_legal_at(&self, bank: usize, cmd: &Command) -> Cycle {
        match cmd.kind {
            CommandKind::Activate | CommandKind::Refresh | CommandKind::PowerDownEnter => {
                if self.open_row[bank] != NO_ROW {
                    return Cycle::MAX;
                }
                self.next_activate[bank]
            }
            k if k.is_cas() => {
                if self.open_row[bank] == cmd.row.0 {
                    self.next_cas[bank]
                } else {
                    Cycle::MAX
                }
            }
            CommandKind::Precharge | CommandKind::PrechargeAll => {
                if self.open_row[bank] == NO_ROW {
                    0 // legal NOP at any cycle
                } else {
                    self.next_precharge[bank]
                }
            }
            _ => 0,
        }
    }

    /// Internal precharge triggered by a `ReadAp`/`WriteAp`: the DRAM
    /// closes the row as soon as tRAS and the CAS recovery window allow.
    fn auto_precharge(&mut self, bank: usize, t: &TimingParams) {
        let pre_start = self.next_precharge[bank];
        self.close(bank, pre_start, t);
    }

    fn close(&mut self, bank: usize, pre_start: Cycle, t: &TimingParams) {
        self.open_row[bank] = NO_ROW;
        self.next_activate[bank] = self.next_activate[bank].max(pre_start + t.t_rp as Cycle);
        // No CAS is legal until the next activate re-opens a row.
        self.next_cas[bank] = Cycle::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BankId, ColId, RankId};

    fn t() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    fn mk() -> BankArrays {
        BankArrays::new(1)
    }

    fn act(row: u32) -> Command {
        Command::activate(RankId(0), BankId(0), RowId(row))
    }
    fn rda(row: u32) -> Command {
        Command::read_ap(RankId(0), BankId(0), RowId(row), ColId(0))
    }
    fn wra(row: u32) -> Command {
        Command::write_ap(RankId(0), BankId(0), RowId(row), ColId(0))
    }

    #[test]
    fn fresh_bank_accepts_activate() {
        let b = mk();
        assert!(b.can_issue(0, &act(1), 0, &t()).is_ok());
        assert!(b.idle_at(0, 0));
    }

    #[test]
    fn cas_requires_trcd() {
        let timing = t();
        let mut b = mk();
        b.apply(0, &act(1), 100, &timing);
        assert!(b.can_issue(0, &rda(1), 110, &timing).is_err());
        assert!(b.can_issue(0, &rda(1), 111, &timing).is_ok());
    }

    #[test]
    fn cas_to_wrong_row_rejected() {
        let timing = t();
        let mut b = mk();
        b.apply(0, &act(1), 0, &timing);
        let err = b.can_issue(0, &rda(2), 50, &timing).unwrap_err();
        assert!(err.to_string().contains("not open"));
    }

    #[test]
    fn read_ap_closes_row_and_respects_trp() {
        let timing = t();
        let mut b = mk();
        b.apply(0, &act(1), 0, &timing);
        b.apply(0, &rda(1), 11, &timing);
        assert_eq!(b.open_row(0), None);
        // pre starts at max(tRAS=28, 11+tRTP=17) = 28; +tRP=11 => 39 = tRC.
        assert_eq!(b.next_activate_at(0), 39);
        assert!(b.can_issue(0, &act(2), 38, &timing).is_err());
        assert!(b.can_issue(0, &act(2), 39, &timing).is_ok());
    }

    #[test]
    fn write_ap_turnaround_is_43_from_activate() {
        let timing = t();
        let mut b = mk();
        b.apply(0, &act(1), 0, &timing);
        b.apply(0, &wra(1), 11, &timing);
        // pre at 11 + (tCWD+tBURST+tWR)=21 => 32; +tRP => 43. The paper's
        // same-bank write turnaround.
        assert_eq!(b.next_activate_at(0), 43);
    }

    #[test]
    fn explicit_precharge_then_activate() {
        let timing = t();
        let mut b = mk();
        b.apply(0, &act(1), 0, &timing);
        let pre = Command::precharge(RankId(0), BankId(0));
        // tRAS = 28 gates the precharge.
        assert!(b.can_issue(0, &pre, 27, &timing).is_err());
        assert!(b.can_issue(0, &pre, 28, &timing).is_ok());
        b.apply(0, &pre, 28, &timing);
        assert_eq!(b.open_row(0), None);
        assert_eq!(b.next_activate_at(0), 39); // max(tRC, 28 + tRP)
    }

    #[test]
    fn activate_while_open_rejected() {
        let timing = t();
        let mut b = mk();
        b.apply(0, &act(1), 0, &timing);
        assert!(b.can_issue(0, &act(2), 100, &timing).is_err());
    }

    #[test]
    fn cas_on_closed_bank_rejected() {
        let b = mk();
        assert!(b.can_issue(0, &rda(1), 0, &t()).is_err());
    }

    #[test]
    fn precharge_on_closed_bank_is_nop() {
        let timing = t();
        let mut b = mk();
        let pre = Command::precharge(RankId(0), BankId(0));
        assert!(b.can_issue(0, &pre, 5, &timing).is_ok());
        b.apply(0, &pre, 5, &timing);
        assert!(b.can_issue(0, &act(1), 5, &timing).is_ok());
    }

    #[test]
    fn refresh_needs_all_closed_and_blocks_activate() {
        let timing = t();
        let mut b = mk();
        let refr = Command::refresh(RankId(0));
        assert!(b.can_issue(0, &refr, 0, &timing).is_ok());
        b.apply(0, &refr, 0, &timing);
        assert!(b.can_issue(0, &act(1), timing.t_rfc as u64 - 1, &timing).is_err());
        assert!(b.can_issue(0, &act(1), timing.t_rfc as u64, &timing).is_ok());
    }

    #[test]
    fn soa_slices_mirror_accessors() {
        let timing = t();
        let mut b = BankArrays::new(4);
        b.apply(1, &Command::activate(RankId(0), BankId(1), RowId(7)), 0, &timing);
        b.apply(3, &Command::activate(RankId(0), BankId(3), RowId(9)), 5, &timing);
        for bank in 0..4 {
            assert_eq!(b.next_cas_slice()[bank], b.next_cas_at(bank));
            assert_eq!(b.next_precharge_slice()[bank], b.next_precharge_at(bank));
            assert_eq!(b.next_activate_slice()[bank], b.next_activate_at(bank));
        }
        assert_eq!(b.open_row(1), Some(RowId(7)));
        assert_eq!(b.open_row(0), None);
        assert!(b.any_open());
    }
}
