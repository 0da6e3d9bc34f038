//! The non-interference harness: does a thread's timing depend on its
//! co-runners?

use crate::profile::ExecutionProfile;
use fsmc_core::sched::SchedulerKind;
use fsmc_cpu::trace::TraceSource;
use fsmc_dram::DeviceGeneration;
use fsmc_sim::{FaultKind, FaultPlan, FsmcError, System, SystemConfig};
use fsmc_workload::{BenchProfile, FloodTrace, IdleTrace, SyntheticTrace};

/// What the attacker thread ran against (Figure 4's two environments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoRunners {
    /// "Synthetic threads that make no memory accesses."
    Idle,
    /// "Highly memory-intensive" synthetic threads.
    MemoryIntensive,
}

/// Outcome of a non-interference check.
#[derive(Debug, Clone)]
pub struct NonInterferenceReport {
    pub scheduler: SchedulerKind,
    pub idle_profile: ExecutionProfile,
    pub intensive_profile: ExecutionProfile,
}

impl NonInterferenceReport {
    /// Zero leakage: the two profiles are bit-identical.
    pub fn is_non_interfering(&self) -> bool {
        self.idle_profile.identical(&self.intensive_profile)
    }

    /// Worst-case timing divergence between environments, in CPU cycles.
    pub fn max_divergence(&self) -> u64 {
        self.idle_profile.max_divergence(&self.intensive_profile)
    }
}

/// One non-interference experiment: an mcf-like observer on core 0 of
/// an 8-core system under `scheduler` on `device`, seven co-runners, and
/// optionally a fault plan.
///
/// Without a plan the run is the bare Figure 4 measurement: no monitor,
/// no health checks. With a plan (even an empty one) the online
/// invariant monitor is armed, the plan is armed through
/// [`FaultPlan::arm_config`] and [`FaultPlan::arm_system`] exactly as
/// the experiment engine arms a job, and any stall, poisoning or
/// invariant breach surfaces as a structured error carrying the plan's
/// repro provenance. Trace-corruption faults do not apply: the harness
/// owns its traces, because the observer's instruction stream must stay
/// identical across environments for profiles to be comparable at all.
///
/// ```no_run
/// use fsmc_core::sched::SchedulerKind;
/// use fsmc_security::Scenario;
///
/// let report = Scenario::new(SchedulerKind::FsRankPartitioned, 10_000, 20).check().unwrap();
/// assert!(report.is_non_interfering()); // divergence is exactly zero
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    pub scheduler: SchedulerKind,
    /// Defaults to the paper's DDR3-1600: the FS guarantee is a property
    /// of the scheduling discipline, not of one part's datasheet, so the
    /// harness probes every generation.
    pub device: DeviceGeneration,
    pub plan: Option<FaultPlan>,
    /// Instructions per profile bucket.
    pub bucket_instrs: u64,
    pub buckets: usize,
}

impl Scenario {
    /// A DDR3-1600 scenario without a fault plan.
    pub fn new(scheduler: SchedulerKind, bucket_instrs: u64, buckets: usize) -> Self {
        Scenario {
            scheduler,
            device: DeviceGeneration::Ddr3_1600,
            plan: None,
            bucket_instrs,
            buckets,
        }
    }

    /// The same scenario on another device generation.
    #[must_use]
    pub fn on(mut self, device: DeviceGeneration) -> Self {
        self.device = device;
        self
    }

    /// The same scenario under `plan`, with the invariant monitor armed.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The observer's execution profile against seven `co` threads.
    ///
    /// # Errors
    ///
    /// Construction failures (e.g. infeasible perturbed timing); with a
    /// plan, also whatever [`fsmc_sim::System::try_run_profile`] reports,
    /// with the plan's provenance attached.
    pub fn profile(&self, co: CoRunners) -> Result<ExecutionProfile, FsmcError> {
        let mut cfg = SystemConfig::for_device(self.device, self.scheduler, 8);
        if let Some(plan) = &self.plan {
            cfg.monitor = true;
            plan.arm_config(&mut cfg);
        }
        let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(cfg.cores as usize);
        // The observer (the paper uses mcf) always uses the same seed, so
        // its own instruction stream is identical across environments.
        traces.push(Box::new(SyntheticTrace::new(BenchProfile::mcf(), 0xA77AC)));
        for _ in 1..cfg.cores {
            match co {
                CoRunners::Idle => traces.push(Box::new(IdleTrace)),
                CoRunners::MemoryIntensive => traces.push(Box::new(FloodTrace::new())),
            }
        }
        let mut sys = System::try_new(&cfg, traces)?;
        let (b, n) = (self.bucket_instrs, self.buckets);
        let boundaries = match &self.plan {
            None => sys.run_profile(0, b, n),
            Some(plan) => {
                plan.arm_system(&mut sys);
                sys.try_run_profile(0, b, n).map_err(|e| e.with_provenance(plan))?
            }
        };
        Ok(ExecutionProfile::new(boundaries, b))
    }

    /// Runs the observer against idle and against flooding co-runners.
    /// Under a plan this is security under fault: a fault that demotes
    /// the controller to the conservative pipeline demotes it
    /// *identically* regardless of co-runner behaviour, so even a
    /// degraded FS system must leak nothing.
    ///
    /// # Errors
    ///
    /// Whichever environment's run fails first (see
    /// [`Scenario::profile`]).
    pub fn check(&self) -> Result<NonInterferenceReport, FsmcError> {
        Ok(NonInterferenceReport {
            scheduler: self.scheduler,
            idle_profile: self.profile(CoRunners::Idle)?,
            intensive_profile: self.profile(CoRunners::MemoryIntensive)?,
        })
    }

    /// Runs the observer through every [`ChurnEnv`] churning at DRAM
    /// cycle `at` (memory-intensive co-runners throughout, the monitor
    /// armed across the epoch boundary) and reports whether its profile
    /// is independent of domain churn and foreign persistent faults. The
    /// scenario's own plan, if any, applies in every environment.
    ///
    /// # Errors
    ///
    /// Whichever environment's run fails first, with provenance
    /// attached: a stall, timing poisoning, cadence breach on either
    /// side of the transition, or a failed re-certification.
    pub fn check_churn(&self, at: u64) -> Result<ChurnReport, FsmcError> {
        let base = self.plan.clone().unwrap_or_default();
        let mut profiles = Vec::with_capacity(ChurnEnv::ALL.len());
        for env in ChurnEnv::ALL {
            let mut plan = base.clone();
            plan.faults.extend(env.plan(at).faults);
            let churned = self.clone().with_plan(plan);
            profiles.push((env, churned.profile(CoRunners::MemoryIntensive)?));
        }
        Ok(ChurnReport { scheduler: self.scheduler, profiles })
    }
}

/// What churns around the observer mid-run (the reconfiguration probe).
///
/// The observer is always domain 0; each environment differs only in a
/// reconfiguration event pinned to the same absolute DRAM cycle, so any
/// difference in the observer's profile is attributable to the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEnv {
    /// Nothing churns: the reference environment.
    Static,
    /// Co-domain 1 leaves mid-run (its slots decay to dummies).
    CoLeave,
    /// Co-domain 1 is absent from the start and joins mid-run.
    CoJoin,
    /// A persistent stuck-bank fault lands in domain 7's rank, forcing
    /// a re-solved, re-certified schedule adoption the observer is not
    /// party to.
    ForeignBankFault,
}

impl ChurnEnv {
    pub const ALL: [ChurnEnv; 4] =
        [ChurnEnv::Static, ChurnEnv::CoLeave, ChurnEnv::CoJoin, ChurnEnv::ForeignBankFault];

    pub fn name(self) -> &'static str {
        match self {
            ChurnEnv::Static => "static",
            ChurnEnv::CoLeave => "co-leave",
            ChurnEnv::CoJoin => "co-join",
            ChurnEnv::ForeignBankFault => "foreign-bank-fault",
        }
    }

    /// The fault plan realising this environment, churning at `at`.
    pub fn plan(self, at: u64) -> FaultPlan {
        let plan = FaultPlan::new(0);
        match self {
            ChurnEnv::Static => plan,
            ChurnEnv::CoLeave => plan.with(FaultKind::DomainLeave { domain: 1, at }),
            ChurnEnv::CoJoin => plan.with(FaultKind::DomainJoin { domain: 1, at }),
            ChurnEnv::ForeignBankFault => plan.with(FaultKind::StuckBank { rank: 7, bank: 0, at }),
        }
    }
}

/// Outcome of a churn non-interference check: the observer's profile in
/// every [`ChurnEnv`], first entry the [`ChurnEnv::Static`] reference.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    pub scheduler: SchedulerKind,
    pub profiles: Vec<(ChurnEnv, ExecutionProfile)>,
}

impl ChurnReport {
    /// Zero leakage: the survivor's profile is bit-identical whether or
    /// not anything churned.
    pub fn is_non_interfering(&self) -> bool {
        self.divergent_envs().is_empty()
    }

    /// Environments whose profile differs from the static reference.
    pub fn divergent_envs(&self) -> Vec<ChurnEnv> {
        let reference = &self.profiles[0].1;
        self.profiles
            .iter()
            .skip(1)
            .filter(|(_, p)| !reference.identical(p))
            .map(|&(env, _)| env)
            .collect()
    }

    /// Worst-case divergence from the static reference, in CPU cycles.
    pub fn max_divergence(&self) -> u64 {
        let reference = &self.profiles[0].1;
        self.profiles.iter().skip(1).map(|(_, p)| reference.max_divergence(p)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(scenario: Scenario) -> NonInterferenceReport {
        scenario.check().expect("scenario runs to completion")
    }

    #[test]
    fn fs_rank_partitioned_is_non_interfering() {
        let r = check(Scenario::new(SchedulerKind::FsRankPartitioned, 2000, 10));
        assert!(r.is_non_interfering(), "FS leaked: divergence {} cycles", r.max_divergence());
    }

    #[test]
    fn fs_triple_alternation_is_non_interfering() {
        let r = check(Scenario::new(SchedulerKind::FsTripleAlternation, 1000, 5));
        assert!(r.is_non_interfering(), "divergence {}", r.max_divergence());
    }

    #[test]
    fn fs_is_non_interfering_on_every_device_generation() {
        // The FS guarantee must not be an artifact of DDR3-1600's
        // parameters: the bit-identity holds on grouped DDR4, slow-core
        // LPDDR4 and wide HBM2 alike.
        for device in DeviceGeneration::all() {
            let r = check(Scenario::new(SchedulerKind::FsRankPartitioned, 1000, 5).on(device));
            assert!(
                r.is_non_interfering(),
                "FS leaked on {device}: divergence {} cycles",
                r.max_divergence()
            );
        }
    }

    #[test]
    fn baseline_leaks_on_ddr4_too() {
        // Negative control off-DDR3: bank-grouped FR-FCFS still leaks
        // co-runner intensity, so the per-device FS assertion above is
        // not vacuous.
        let r =
            check(Scenario::new(SchedulerKind::Baseline, 2000, 10).on(DeviceGeneration::Ddr4_2400));
        assert!(!r.is_non_interfering(), "ddr4 baseline unexpectedly non-interfering");
    }

    #[test]
    fn fs_survivor_profile_is_churn_independent_on_ddr4() {
        // The reconfiguration story must survive the device swap: joins,
        // leaves and foreign persistent faults on a bank-grouped part
        // reconfigure without perturbing the observer.
        let r = Scenario::new(SchedulerKind::FsRankPartitioned, 1000, 5)
            .on(DeviceGeneration::Ddr4_2400)
            .check_churn(800)
            .expect("churn must reconfigure cleanly under FS on ddr4");
        assert!(
            r.is_non_interfering(),
            "FS survivor diverged on ddr4 under {:?}: {} cycles",
            r.divergent_envs(),
            r.max_divergence()
        );
    }

    #[test]
    fn monitored_profile_matches_unmonitored_on_clean_runs() {
        // Arming the monitor (via an empty fault plan) observes without
        // perturbing: the observer's profile is unchanged and no breach
        // fires on a healthy FS run.
        let plain = Scenario::new(SchedulerKind::FsRankPartitioned, 1000, 5);
        let armed = plain.clone().with_plan(FaultPlan::new(0));
        let co = CoRunners::Idle;
        let armed = armed.profile(co).expect("clean run must not breach the monitor");
        assert!(plain.profile(co).unwrap().identical(&armed), "monitoring changed the profile");
    }

    #[test]
    fn planned_scenario_runs_on_its_own_device() {
        // A plan must not pull the run back onto the paper's DDR3 part:
        // the planned DDR4 profile is the unplanned DDR4 profile, and
        // differs from DDR3's.
        let ddr4 = Scenario::new(SchedulerKind::FsRankPartitioned, 1000, 5)
            .on(DeviceGeneration::Ddr4_2400);
        let co = CoRunners::Idle;
        let planned = ddr4.clone().with_plan(FaultPlan::new(0)).profile(co).unwrap();
        assert!(ddr4.profile(co).unwrap().identical(&planned), "plan changed the device");
        let ddr3 = Scenario::new(SchedulerKind::FsRankPartitioned, 1000, 5).profile(co).unwrap();
        assert!(!ddr3.identical(&planned), "DDR4 and DDR3 profiles coincide: the check is vacuous");
    }

    #[test]
    fn shared_arbiter_plan_interferes_under_fs() {
        // The misconfiguration fault wires FR-FCFS behind an FS request:
        // the probe must see the leak, not the scheduler the config named.
        let plan = FaultPlan::new(0).with(FaultKind::SharedArbiter);
        let r = check(Scenario::new(SchedulerKind::FsRankPartitioned, 2000, 10).with_plan(plan));
        assert!(!r.is_non_interfering(), "shared arbiter went unnoticed");
        assert!(r.max_divergence() > 0);
    }

    #[test]
    fn fs_stays_bit_identical_under_graceful_degradation() {
        // A 3x-stretched refresh forces the controller onto the
        // conservative pipeline mid-run. Degradation is triggered by the
        // wall-clock refresh cadence, so it happens identically in both
        // environments — and the degraded pipeline is still FS: the
        // profiles must remain bit-identical even while degraded.
        let plan = FaultPlan::new(11).with(FaultKind::StretchRefresh { factor: 3 });
        let r = Scenario::new(SchedulerKind::FsRankPartitioned, 1000, 5)
            .with_plan(plan)
            .check()
            .expect("stretch-refresh must degrade gracefully, not fail");
        assert!(
            r.is_non_interfering(),
            "degraded FS leaked: divergence {} cycles",
            r.max_divergence()
        );
    }

    #[test]
    fn fs_survivor_profile_is_churn_independent() {
        let r = Scenario::new(SchedulerKind::FsRankPartitioned, 1000, 5)
            .check_churn(800)
            .expect("churn must reconfigure cleanly under FS");
        assert!(
            r.is_non_interfering(),
            "FS survivor diverged under {:?}: {} cycles",
            r.divergent_envs(),
            r.max_divergence()
        );
    }

    #[test]
    fn baseline_survivor_profile_leaks_churn() {
        // The negative control that keeps the FS test honest: under
        // FR-FCFS the same probe sees co-domain churn, because a flooder
        // leaving (or being absent until it joins) frees real bandwidth.
        let r = Scenario::new(SchedulerKind::Baseline, 2000, 10)
            .check_churn(800)
            .expect("baseline churn runs must complete");
        assert!(!r.is_non_interfering(), "baseline unexpectedly churn-independent");
    }

    #[test]
    fn baseline_leaks_co_runner_intensity() {
        let r = check(Scenario::new(SchedulerKind::Baseline, 2000, 10));
        assert!(!r.is_non_interfering(), "baseline unexpectedly non-interfering");
        // The divergence is large: flooding co-runners slow the attacker
        // substantially (the visible gap of Figure 4).
        assert!(r.max_divergence() > 1000, "divergence only {}", r.max_divergence());
        assert!(r.idle_profile.final_slowdown(&r.intensive_profile) > 1.2);
    }
}
