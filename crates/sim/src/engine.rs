//! The deterministic parallel experiment engine.
//!
//! The paper's evaluation is a grid of *independent* `(workload mix ×
//! scheduler policy)` simulations. Callers declare that grid as an
//! [`ExperimentPlan`] of [`ExperimentJob`]s; the [`Engine`] executes the
//! jobs on a scoped worker pool sized by `FSMC_THREADS` (default: the
//! machine's available parallelism) and delivers each outcome into the
//! slot its job was declared in. Three properties hold by construction:
//!
//! * **Determinism** — every job is a self-contained single-threaded
//!   simulation with a fixed seed; results land by declared index, so
//!   output is byte-identical at any thread count and under any
//!   scheduling order. Parallelism lives entirely *outside* the
//!   simulator core, which stays single-threaded and untouched.
//! * **Failure isolation** — a job that fails keeps its [`FsmcError`]
//!   in its own slot; the other slots complete normally.
//! * **Work sharing** — jobs replaying the same `(profile, seed)`
//!   stream share one memoized [`TraceCache`] tape instead of
//!   re-synthesizing identical traces per policy run.

use crate::config::SystemConfig;
use crate::error::FsmcError;
use crate::faults::FaultPlan;
use crate::runner::{build_traces, RunResult};
use crate::system::System;
use fsmc_core::error::ConfigError;
use fsmc_core::sched::{MemoryController, SchedulerKind};
use fsmc_workload::{TraceCache, WorkloadMix};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Builds a controller for a job from the (possibly perturbed) system
/// configuration — the hook non-standard experiments (e.g. the anchor
/// ablation's hand-solved pipelines) use to supply custom controllers
/// while still running on the engine.
pub type ControllerFactory = std::sync::Arc<
    dyn Fn(&SystemConfig) -> Result<Box<dyn MemoryController>, FsmcError> + Send + Sync,
>;

/// One independent simulation: a mix under a scheduler for a number of
/// cycles with a seed, optionally faulted, optionally with a bespoke
/// system configuration or controller.
#[derive(Clone)]
pub struct ExperimentJob {
    pub mix: WorkloadMix,
    pub scheduler: SchedulerKind,
    pub cycles: u64,
    pub seed: u64,
    pub faults: FaultPlan,
    /// Collect per-domain observability metrics (latency histograms, row
    /// locality, queue occupancy) into [`RunResult::metrics`].
    pub metrics: bool,
    /// Overrides the derived `SystemConfig::with_cores(scheduler, mix
    /// cores)` — for geometry/energy-option/core-count experiments. The
    /// job's `scheduler` is written into the override before use.
    pub config: Option<SystemConfig>,
    /// Overrides controller construction (see [`ControllerFactory`]).
    pub controller: Option<ControllerFactory>,
}

impl std::fmt::Debug for ExperimentJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentJob")
            .field("mix", &self.mix.name)
            .field("scheduler", &self.scheduler)
            .field("cycles", &self.cycles)
            .field("seed", &self.seed)
            .field("custom_config", &self.config.is_some())
            .field("custom_controller", &self.controller.is_some())
            .finish()
    }
}

impl ExperimentJob {
    pub fn new(mix: WorkloadMix, scheduler: SchedulerKind, cycles: u64, seed: u64) -> Self {
        ExperimentJob {
            mix,
            scheduler,
            cycles,
            seed,
            faults: FaultPlan::default(),
            metrics: false,
            config: None,
            controller: None,
        }
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Collect per-domain observability metrics during the run.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    pub fn with_config(mut self, config: SystemConfig) -> Self {
        self.config = Some(config);
        self
    }

    pub fn with_controller(mut self, factory: ControllerFactory) -> Self {
        self.controller = Some(factory);
        self
    }

    /// Runs the job in isolation (fresh trace cache).
    ///
    /// # Errors
    ///
    /// Any [`FsmcError`] the run surfaces: solver infeasibility, bad
    /// configuration, trace corruption, runtime timing poisoning, or a
    /// watchdog-detected stall.
    pub fn run(&self) -> Result<RunResult, FsmcError> {
        self.run_with(&TraceCache::new())
    }

    /// Runs the job against a shared trace cache, so concurrent jobs on
    /// the same `(profile, seed)` streams replay one memoized tape.
    ///
    /// # Errors
    ///
    /// As for [`ExperimentJob::run`].
    pub fn run_with(&self, cache: &TraceCache) -> Result<RunResult, FsmcError> {
        self.run_inner(cache).map_err(|e| e.with_provenance(&self.faults))
    }

    /// Builds the system, arms the fault plan, runs, and collects.
    fn run_inner(&self, cache: &TraceCache) -> Result<RunResult, FsmcError> {
        let mut cfg = self
            .config
            .unwrap_or_else(|| SystemConfig::with_cores(self.scheduler, self.mix.cores() as u8));
        cfg.scheduler = self.scheduler;
        self.faults.arm_config(&mut cfg);
        let traces = build_traces(&self.mix, self.seed, &self.faults, Some(cache))?;
        if traces.len() != cfg.cores as usize {
            return Err(ConfigError::new(format!(
                "job mix {:?} supplies {} traces for a {}-core configuration",
                self.mix.name,
                traces.len(),
                cfg.cores
            ))
            .into());
        }
        let mut sys = match &self.controller {
            Some(factory) => System::with_controller(&cfg, traces, factory(&cfg)?),
            None => System::try_new(&cfg, traces)?,
        };
        if self.metrics {
            sys.enable_metrics();
        }
        self.faults.arm_system(&mut sys);
        sys.try_run_cycles(self.cycles)?;
        let stats = sys.stats();
        let metrics = if self.metrics { sys.metrics_report() } else { None };
        Ok(RunResult {
            mix_name: self.mix.name,
            scheduler: self.scheduler,
            ipcs: stats.ipcs(),
            stats,
            metrics,
        })
    }
}

/// An ordered grid of jobs; result slot `i` belongs to the `i`-th push.
#[derive(Debug, Clone, Default)]
pub struct ExperimentPlan {
    jobs: Vec<ExperimentJob>,
}

impl ExperimentPlan {
    pub fn new() -> Self {
        ExperimentPlan::default()
    }

    /// Declares a job, returning the index its result will occupy.
    pub fn push(&mut self, job: ExperimentJob) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// The full `mixes × schedulers` grid, row-major (all schedulers of
    /// mix 0, then mix 1, ...).
    pub fn grid(
        mixes: &[WorkloadMix],
        schedulers: &[SchedulerKind],
        cycles: u64,
        seed: u64,
    ) -> Self {
        let mut plan = ExperimentPlan::new();
        for mix in mixes {
            for &k in schedulers {
                plan.push(ExperimentJob::new(mix.clone(), k, cycles, seed));
            }
        }
        plan
    }

    pub fn jobs(&self) -> &[ExperimentJob] {
        &self.jobs
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

// Environment parsing lives in [`crate::env`]; re-exported here because
// the helpers were born in this module and callers still import them
// from it.
pub use crate::env::{env_flag, env_u64};

/// The deterministic parallel executor.
///
/// Worker count comes from `FSMC_THREADS` ([`Engine::from_env`]) or an
/// explicit [`Engine::with_threads`]; either way, results are identical —
/// only wall-clock time changes.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    threads: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::from_env()
    }
}

impl Engine {
    /// Sized by `FSMC_THREADS` ([`crate::env::threads`]), defaulting to
    /// the machine's available parallelism. A malformed or zero value is
    /// reported and replaced by the default.
    pub fn from_env() -> Self {
        Engine { threads: crate::env::threads() }
    }

    pub fn with_threads(threads: usize) -> Self {
        Engine { threads: threads.max(1) }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item on the worker pool, returning results
    /// in item order regardless of which worker ran which item. The
    /// generic primitive [`Engine::run`] is built on; also used directly
    /// by experiment binaries whose unit of work is not a plain
    /// mix-under-policy simulation (profiles, covert channels,
    /// certification).
    ///
    /// A panicking item propagates the panic after workers are joined.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            produced.push((i, f(i, &items[i])));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(produced) => {
                        for (i, result) in produced {
                            slots[i] = Some(result);
                        }
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        slots.into_iter().map(|slot| slot.expect("every declared slot is filled")).collect()
    }

    /// Executes the plan; slot `i` of the output is job `i`'s outcome.
    /// Failures stay per-slot — no job can abort another.
    pub fn run(&self, plan: &ExperimentPlan) -> Vec<Result<RunResult, FsmcError>> {
        let cache = TraceCache::new();
        self.run_with_cache(plan, &cache)
    }

    /// [`Engine::run`] against a caller-owned [`TraceCache`], letting
    /// several plans share memoized traces.
    pub fn run_with_cache(
        &self,
        plan: &ExperimentPlan,
        cache: &TraceCache,
    ) -> Vec<Result<RunResult, FsmcError>> {
        self.map(plan.jobs(), |_, job| job.run_with(cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmc_workload::BenchProfile;

    #[test]
    fn map_preserves_item_order_at_any_width() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 8, 64] {
            let out = Engine::with_threads(threads).map(&items, |i, item| {
                assert_eq!(i, *item);
                item * 3
            });
            assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_width_engine_clamps_to_one() {
        assert_eq!(Engine::with_threads(0).threads(), 1);
    }

    #[test]
    fn grid_plan_enumerates_row_major() {
        let mixes =
            [WorkloadMix::rate(BenchProfile::mcf(), 2), WorkloadMix::rate(BenchProfile::milc(), 2)];
        let kinds = [SchedulerKind::Baseline, SchedulerKind::FsRankPartitioned];
        let plan = ExperimentPlan::grid(&mixes, &kinds, 1000, 1);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.jobs()[0].mix.name, "mcf");
        assert_eq!(plan.jobs()[1].scheduler, SchedulerKind::FsRankPartitioned);
        assert_eq!(plan.jobs()[2].mix.name, "milc");
    }

    #[test]
    fn env_u64_rejects_garbage_with_default() {
        std::env::set_var("FSMC_ENGINE_TEST_KNOB", "not-a-number");
        assert_eq!(env_u64("FSMC_ENGINE_TEST_KNOB", 17), 17);
        std::env::set_var("FSMC_ENGINE_TEST_KNOB", " 23 ");
        assert_eq!(env_u64("FSMC_ENGINE_TEST_KNOB", 17), 23);
        std::env::remove_var("FSMC_ENGINE_TEST_KNOB");
        assert_eq!(env_u64("FSMC_ENGINE_TEST_KNOB", 17), 17);
    }
}
