//! Device generations as first-class profiles.
//!
//! The paper solves and certifies its fixed-service pipelines against a
//! single DDR3-1600 Table-1 parameter set. A [`DeviceProfile`] bundles the
//! timing parameters and geometry of one device generation so every layer
//! — the device model, the pipeline solver, the certifier, the monitors,
//! the simulator and the benches — can be re-parameterized and re-verified
//! per generation instead of inheriting DDR3 implicitly.

use std::fmt;

use crate::geometry::Geometry;
use crate::timing::TimingParams;

/// The device generations shipped with the workspace.
///
/// Each maps to one (timing, geometry) pair via [`DeviceProfile::of`].
/// The CLI spelling (`cli_name`) is what `--device` / `FSMC_DEVICE`
/// accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceGeneration {
    /// The paper's Table-1 DDR3-1600 part: no bank groups, 8 banks/rank.
    Ddr3_1600,
    /// DDR4-2400: 16 banks in 4 bank groups, tCCD_S/tCCD_L split.
    Ddr4_2400,
    /// LPDDR4-3200: no bank groups, long tRFC/tWR at a fast I/O clock.
    Lpddr4_3200,
    /// HBM2: 8 narrow channels, 16 banks in 4 groups per rank.
    Hbm2,
}

impl DeviceGeneration {
    /// Every shipped generation, in presentation order.
    pub fn all() -> [DeviceGeneration; 4] {
        [
            DeviceGeneration::Ddr3_1600,
            DeviceGeneration::Ddr4_2400,
            DeviceGeneration::Lpddr4_3200,
            DeviceGeneration::Hbm2,
        ]
    }

    /// The CLI/env spelling of this generation.
    pub fn cli_name(self) -> &'static str {
        match self {
            DeviceGeneration::Ddr3_1600 => "ddr3-1600",
            DeviceGeneration::Ddr4_2400 => "ddr4-2400",
            DeviceGeneration::Lpddr4_3200 => "lpddr4-3200",
            DeviceGeneration::Hbm2 => "hbm2",
        }
    }

    /// Parses a CLI/env spelling (case-insensitive; `_` accepted for
    /// `-`). Returns `None` for anything that is not a shipped
    /// generation.
    pub fn parse(s: &str) -> Option<DeviceGeneration> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        DeviceGeneration::all().into_iter().find(|g| g.cli_name() == norm)
    }

    /// The profile (timing + geometry) for this generation.
    pub fn profile(self) -> DeviceProfile {
        DeviceProfile::of(self)
    }

    /// The memory-clock frequency in MHz — the rate DRAM cycles tick at
    /// (half the MT/s of the double-data-rate parts; HBM2 runs 2 Gbps
    /// pins off a 1 GHz clock).
    pub fn bus_mhz(self) -> u32 {
        match self {
            DeviceGeneration::Ddr3_1600 => 800,
            DeviceGeneration::Ddr4_2400 => 1200,
            DeviceGeneration::Lpddr4_3200 => 1600,
            DeviceGeneration::Hbm2 => 1000,
        }
    }

    /// The wall-clock length of one DRAM cycle in seconds (e.g. 1.25 ns
    /// for DDR3-1600) — what converts measured per-cycle capacities into
    /// bits per second.
    pub fn seconds_per_cycle(self) -> f64 {
        1.0e-6 / self.bus_mhz() as f64
    }
}

impl fmt::Display for DeviceGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cli_name())
    }
}

/// One device generation's complete description: its JEDEC-style timing
/// parameters and its channel/rank/bank-group geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    pub generation: DeviceGeneration,
    pub timing: TimingParams,
    pub geometry: Geometry,
}

impl DeviceProfile {
    /// The profile for `generation`.
    ///
    /// Every geometry keeps 8 ranks per channel so the paper's 8-domain
    /// rank-partitioned pipelines stay constructible on all generations;
    /// what varies is bank count, bank groups, channel count and row
    /// width:
    ///
    /// * DDR3-1600 — the paper's system: 1 channel, 8 banks, no groups.
    /// * DDR4-2400 — 16 banks in 4 groups, 8 KB rows.
    /// * LPDDR4-3200 — 8 banks, no groups, 4 KB rows.
    /// * HBM2 — 8 narrow channels, 16 banks in 4 groups, 2 KB rows.
    pub fn of(generation: DeviceGeneration) -> DeviceProfile {
        let (timing, geometry) = match generation {
            DeviceGeneration::Ddr3_1600 => (TimingParams::ddr3_1600(), Geometry::paper_default()),
            DeviceGeneration::Ddr4_2400 => {
                (TimingParams::ddr4_2400(), Geometry::with_bank_groups(1, 8, 16, 4, 32768, 128))
            }
            DeviceGeneration::Lpddr4_3200 => {
                (TimingParams::lpddr4_3200(), Geometry::with_bank_groups(1, 8, 8, 1, 32768, 64))
            }
            DeviceGeneration::Hbm2 => {
                (TimingParams::hbm2(), Geometry::with_bank_groups(8, 8, 16, 4, 16384, 32))
            }
        };
        DeviceProfile { generation, timing, geometry }
    }

    /// The paper's DDR3-1600 profile (the default throughout the
    /// workspace when no device is selected).
    pub fn paper_default() -> DeviceProfile {
        DeviceProfile::of(DeviceGeneration::Ddr3_1600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_generation() {
        for g in DeviceGeneration::all() {
            assert_eq!(DeviceGeneration::parse(g.cli_name()), Some(g));
            assert_eq!(DeviceGeneration::parse(&g.cli_name().to_uppercase()), Some(g));
            assert_eq!(DeviceGeneration::parse(&g.cli_name().replace('-', "_")), Some(g));
            assert_eq!(g.to_string(), g.cli_name());
        }
        assert_eq!(DeviceGeneration::parse("ddr5-4800"), None);
        assert_eq!(DeviceGeneration::parse(""), None);
    }

    #[test]
    fn profiles_are_internally_consistent() {
        for g in DeviceGeneration::all() {
            let p = g.profile();
            assert_eq!(p.generation, g);
            // Bank groups only exist where tCCD_S != tCCD_L and
            // vice versa: a flat part must not claim grouped geometry.
            let grouped = p.geometry.bank_groups() > 1;
            let split = p.timing.t_ccd_l > p.timing.t_ccd;
            assert_eq!(grouped, split, "{g}: bank-group geometry must match tCCD split");
            // 8 ranks everywhere keeps 8-domain rank partitioning viable.
            assert_eq!(p.geometry.ranks_per_channel(), 8, "{g}");
        }
    }

    #[test]
    fn cycle_lengths_match_the_clock() {
        assert_eq!(DeviceGeneration::Ddr3_1600.bus_mhz(), 800);
        let ns = DeviceGeneration::Ddr3_1600.seconds_per_cycle() * 1e9;
        assert!((ns - 1.25).abs() < 1e-12, "DDR3-1600 cycle should be 1.25 ns, got {ns}");
        for g in DeviceGeneration::all() {
            let s = g.seconds_per_cycle();
            assert!(s > 0.0 && s < 2e-9, "{g}: implausible cycle length {s}");
        }
    }

    #[test]
    fn ddr3_profile_matches_paper_defaults() {
        let p = DeviceProfile::paper_default();
        assert_eq!(p.timing, TimingParams::ddr3_1600());
        assert_eq!(p.geometry, Geometry::paper_default());
        assert_eq!(p.geometry.bank_groups(), 1);
    }
}
