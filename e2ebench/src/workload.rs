//! The benchmark's workloads and the three ways it runs each one:
//!
//! * [`Bench::run_plain`] — exactly what `hetsched run` (or `hetsched run
//!   --replicates N --manifest PATH`) calls, with nothing attached;
//! * [`Bench::run_wrapped`] — the same populations evolved through
//!   [`TimedProblem`], for the `sim`, `alloc`, `moea` and `heuristics`
//!   layers;
//! * [`Bench::run_observed`] — the same cells as a [`Campaign`] with the
//!   benchmark's [`CellProbe`] attached and a fresh manifest, followed by a
//!   replay pass, for the `core.campaign` and `core.manifest` layers.

use crate::probe::{field_str, field_u64, span_id, CellProbe, LayerTotals, SpanLog, TimedProblem};
use crate::procfs::CpuTimes;
use hetsched::alloc::AllocationProblem;
use hetsched::analysis::{metrics::hypervolume, ParetoFront};
use hetsched::core::{
    Campaign, CampaignObserver, CampaignOutcome, CampaignSpec, DatasetId, Engine, ExperimentConfig,
    Framework, PopulationRun, SeedKind,
};
use hetsched::moea::{Individual, NullObserver};
use hetsched::sim::{Allocation, Evaluator};
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named workload. Every input is derived from the seed given to
/// [`Bench::new`]; the program receives only the generated inputs.
///
/// The data set workloads keep the paper's fixed inputs (one system and
/// one trace per figure, built from the data set's default master seed)
/// and let the seed pick the engine streams, as a replicate of `hetsched
/// run` does. The campaign's seed is its master seed, as `hetsched run
/// --rng-seed` takes it: it picks the trace and every replicate's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Data set 1 (real 9-machine system, 250 tasks), five populations.
    Ds1Fig3,
    /// Data set 2 (synthetic 30-machine system, 1000 tasks), five
    /// populations.
    Ds2Fig4,
    /// A campaign of many tiny data set 1 cells with a fresh manifest.
    CampaignSmallCells,
}

/// Data set 1 generation budget: scale 0.002 of the paper's schedule
/// (snapshots 1 / 2 / 20 / 200).
const DS1_SCALE: f64 = 0.002;
/// Data set 2 generation budget: scale 0.0001 of the paper's schedule
/// (snapshots 1 / 10 / 100).
const DS2_SCALE: f64 = 0.0001;
/// Small-cell campaign: tasks, population, snapshot schedule, replicates.
const CELL_TASKS: usize = 30;
const CELL_POPULATION: usize = 12;
const CELL_SNAPSHOTS: [usize; 2] = [1, 10];
const CELL_REPLICATES: usize = 400;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Ds1Fig3,
        Workload::Ds2Fig4,
        Workload::CampaignSmallCells,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ds1Fig3 => "ds1_fig3",
            Workload::Ds2Fig4 => "ds2_fig4",
            Workload::CampaignSmallCells => "campaign_small_cells",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment configuration for `seed` (its master RNG seed).
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let mut config = match self {
            Workload::Ds1Fig3 => ExperimentConfig::scaled(DatasetId::One, DS1_SCALE),
            Workload::Ds2Fig4 => ExperimentConfig::scaled(DatasetId::Two, DS2_SCALE),
            Workload::CampaignSmallCells => {
                let mut config = ExperimentConfig::dataset1();
                config.tasks = CELL_TASKS;
                config.population = CELL_POPULATION;
                config.snapshots = CELL_SNAPSHOTS.to_vec();
                config
            }
        };
        config.rng_seed = seed;
        config
    }

    /// Replicates of the grid; the data set workloads are one-replicate
    /// grids, i.e. exactly one `Framework::run`.
    pub fn replicates(self) -> usize {
        match self {
            Workload::CampaignSmallCells => CELL_REPLICATES,
            Workload::Ds1Fig3 | Workload::Ds2Fig4 => 1,
        }
    }

    /// Whether the measured run is a `Campaign::run` (else a
    /// `Framework::run`).
    pub fn is_campaign(self) -> bool {
        self == Workload::CampaignSmallCells
    }
}

/// The per-population engine stream of `Framework::run_population_with_engine`,
/// which is private to the framework. The wrapped pass must evolve
/// exactly the populations the framework evolves, so it repeats the rule;
/// the benchmark's tests pin it against `Framework::run`.
pub fn engine_stream(rng_seed: u64, stream: u64) -> u64 {
    rng_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1))
}

/// One untraced run of the workload.
pub struct PlainRun {
    /// Wall time of the `Framework::run` or the writing `Campaign::run`.
    pub wall: Duration,
    /// Process CPU used by that call, where `/proc` is readable.
    pub cpu: Option<CpuTimes>,
    /// Every population, in the campaign's canonical cell order.
    pub runs: Vec<PopulationRun>,
    /// Cells (populations) attempted.
    pub cells: usize,
    /// Cells that failed, timed out or were skipped.
    pub lost: usize,
    /// Campaign bookkeeping held: every cell executed and recorded, and
    /// the replay pass executed nothing and rebuilt the same reports.
    pub complete: bool,
}

/// Timing of one population in the wrapped pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PopulationTiming {
    /// `SeedKind::seeds`.
    pub seed_ns: u64,
    /// `Engine::evolve`.
    pub evolve_ns: u64,
    /// What the timing wrapper saw inside `evolve`.
    pub layers: LayerTotals,
}

/// One pass of the workload's populations through [`TimedProblem`].
pub struct WrappedRun {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Every population, in canonical cell order.
    pub runs: Vec<PopulationRun>,
    /// Per-population timings, same order.
    pub populations: Vec<PopulationTiming>,
}

/// One observed campaign pass plus its replay.
pub struct ObservedRun {
    /// Wall time of the writing `Campaign::run`.
    pub wall: Duration,
    /// Wall time of the replay `Campaign::run` on the finished manifest.
    pub replay: Duration,
    /// Every population, in canonical cell order.
    pub runs: Vec<PopulationRun>,
    /// Cells attempted.
    pub cells: usize,
    /// Cells that failed, timed out or were skipped.
    pub lost: usize,
    /// As [`PlainRun::complete`].
    pub complete: bool,
    /// Wall time of each finished cell, as the observer saw it.
    pub cell_ns: Vec<u64>,
    /// The worker count the campaign reported.
    pub workers: usize,
    /// Cell records in the manifest (header excluded).
    pub records: usize,
    /// Manifest size in bytes.
    pub manifest_bytes: u64,
}

/// A workload bound to one seed: the configuration, the framework the
/// runs evolve on, and the campaign the observed pass runs.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// The data set's framework (also the hypervolume reference).
    pub framework: Framework,
    /// The observed pass's campaign: the workload's own grid for the
    /// campaign workload; for a data set workload the data set as a
    /// one-replicate campaign under its default master seed (a campaign
    /// builds its data set and engine streams from one seed, so it cannot
    /// run the fixed data set under the run's seed).
    pub spec: CampaignSpec,
    manifest: PathBuf,
}

impl Bench {
    /// Builds the workload for `seed`; campaign manifests go to `out_dir`.
    ///
    /// # Errors
    ///
    /// Configuration or data set construction failures.
    pub fn new(workload: Workload, seed: u64, out_dir: PathBuf) -> hetsched::core::Result<Bench> {
        Bench::with_config(
            workload,
            workload.config(seed),
            workload.replicates(),
            out_dir,
        )
    }

    /// As [`Bench::new`] with an explicit configuration and replicate
    /// count, for shrunk copies of a workload.
    ///
    /// # Errors
    ///
    /// As [`Bench::new`].
    pub fn with_config(
        workload: Workload,
        config: ExperimentConfig,
        replicates: usize,
        out_dir: PathBuf,
    ) -> hetsched::core::Result<Bench> {
        let data_config = data_config(workload, &config);
        let framework = build_framework(&data_config, &config)?;
        let spec = CampaignSpec::builder(data_config)
            .replicates(replicates)
            .build()?;
        let manifest = out_dir.join(format!(
            "manifest-{}-{}.jsonl",
            workload.name(),
            config.rng_seed
        ));
        Ok(Bench {
            workload,
            config,
            framework,
            spec,
            manifest,
        })
    }

    /// Evaluation requests per run: population × (generations + 1) per
    /// cell (the initial population plus one offspring batch per
    /// generation).
    pub fn evaluations(&self) -> usize {
        self.config.population * (self.config.generations() + 1) * self.cell_count()
    }

    /// Cells (populations) per run.
    pub fn cell_count(&self) -> usize {
        self.spec.replicates * self.config.seeds.len()
    }

    /// One timed set-up: building the data set and binding it to the
    /// run's master seed (`Framework::new`, then `Framework::variant` for
    /// the data set workloads); for the campaign also validating the spec
    /// and `Campaign::new`.
    ///
    /// # Errors
    ///
    /// As [`Bench::new`].
    pub fn time_setup(&self) -> hetsched::core::Result<Duration> {
        let start = Instant::now();
        if self.workload.is_campaign() {
            let spec = CampaignSpec::builder(self.spec.base.clone())
                .replicates(self.spec.replicates)
                .build()?;
            std::hint::black_box(Campaign::new(spec));
        }
        std::hint::black_box(build_framework(&self.spec.base, &self.config)?);
        Ok(start.elapsed())
    }

    fn fresh_manifest(&self) -> std::io::Result<&std::path::Path> {
        match std::fs::remove_file(&self.manifest) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(&self.manifest),
        }
    }

    /// One untraced run: `Framework::run`, or for the campaign a writing
    /// `Campaign::run` on a fresh manifest followed by the replay pass.
    ///
    /// # Errors
    ///
    /// Manifest I/O or campaign set-up failures.
    pub fn run_plain(&self) -> hetsched::core::Result<PlainRun> {
        if !self.workload.is_campaign() {
            let cpu0 = CpuTimes::now();
            let start = Instant::now();
            let report = self.framework.run();
            let wall = start.elapsed();
            let cpu = CpuTimes::now().zip(cpu0).map(|(b, a)| b.since(a));
            let cells = report.runs.len();
            return Ok(PlainRun {
                wall,
                cpu,
                runs: report.runs,
                cells,
                lost: 0,
                complete: cells == self.cell_count(),
            });
        }
        let manifest = self.fresh_manifest().map_err(io_error)?;
        let campaign = Campaign::new(self.spec.clone());
        let cpu0 = CpuTimes::now();
        let start = Instant::now();
        let outcome = campaign.run(Some(manifest))?;
        let wall = start.elapsed();
        let cpu = CpuTimes::now().zip(cpu0).map(|(b, a)| b.since(a));
        let replay = campaign.run(Some(manifest))?;
        let complete = self.campaign_complete(&outcome, &replay);
        Ok(PlainRun {
            wall,
            cpu,
            cells: self.cell_count(),
            lost: lost_cells(&outcome),
            runs: flatten(outcome),
            complete,
        })
    }

    fn campaign_complete(&self, outcome: &CampaignOutcome, replay: &CampaignOutcome) -> bool {
        let cells = self.cell_count();
        outcome.is_complete()
            && outcome.executed == cells
            && outcome.replayed == 0
            && replay.is_complete()
            && replay.executed == 0
            && replay.replayed == cells
            && replay.reports == outcome.reports
    }

    /// Evolves the workload's populations through [`TimedProblem`], in
    /// parallel across populations as `Framework::run` and
    /// `Campaign::run` do. With a `log`, spans go under `parent`.
    pub fn run_wrapped(&self, log: Option<&SpanLog>, parent: Option<u64>) -> WrappedRun {
        let variants: Vec<Framework> = (0..self.spec.replicates as u64)
            .map(|r| {
                self.framework.variant(
                    Framework::replicate_seed(self.config.rng_seed, r),
                    self.config.algorithm,
                )
            })
            .collect();
        let jobs: Vec<(&Framework, SeedKind, u64)> = variants
            .iter()
            .flat_map(|fw| {
                self.config
                    .seeds
                    .iter()
                    .enumerate()
                    .map(move |(i, &seed)| (fw, seed, i as u64))
            })
            .collect();
        let start = Instant::now();
        let results: Vec<(PopulationRun, PopulationTiming)> = jobs
            .par_iter()
            .map(|&(fw, seed, stream)| wrapped_population(fw, seed, stream, log, parent))
            .collect();
        let wall = start.elapsed();
        let (runs, populations) = results.into_iter().unzip();
        WrappedRun {
            wall,
            runs,
            populations,
        }
    }

    /// Runs the cells as a campaign with the benchmark's observer attached
    /// and a fresh manifest, then replays the finished manifest. With a
    /// `log`, a `campaign` span (holding one `cell` span per cell) and a
    /// `replay` span go under `parent`.
    ///
    /// # Errors
    ///
    /// Manifest I/O or campaign set-up failures.
    pub fn run_observed(
        &self,
        log: Option<Arc<SpanLog>>,
        parent: Option<u64>,
    ) -> hetsched::core::Result<ObservedRun> {
        let manifest = self.fresh_manifest().map_err(io_error)?;
        let campaign_id = span_id();
        let probe = Arc::new(CellProbe::new(log.clone(), Some(campaign_id)));
        let campaign = Campaign::new(self.spec.clone())
            .with_observer(Arc::clone(&probe) as Arc<dyn CampaignObserver>);
        let start = Instant::now();
        let outcome = campaign.run(Some(manifest))?;
        let wall = start.elapsed();
        let replay_id = span_id();
        let replay_start = Instant::now();
        let replay = campaign.run(Some(manifest))?;
        let replay_wall = replay_start.elapsed();
        if let Some(log) = &log {
            let cells = vec![field_u64("cells", self.cell_count() as u64)];
            log.close(campaign_id, parent, "campaign", start, wall, cells.clone());
            log.close(
                replay_id,
                parent,
                "replay",
                replay_start,
                replay_wall,
                cells,
            );
        }
        let text = std::fs::read_to_string(manifest).map_err(io_error)?;
        let complete = self.campaign_complete(&outcome, &replay);
        Ok(ObservedRun {
            wall,
            replay: replay_wall,
            cells: self.cell_count(),
            lost: lost_cells(&outcome),
            runs: flatten(outcome),
            complete,
            cell_ns: probe.cell_ns(),
            workers: probe.workers(),
            records: text.lines().count().saturating_sub(1),
            manifest_bytes: text.len() as u64,
        })
    }

    /// Hypervolume of the combined final front of `runs`, as a share of
    /// the box from (0 utility, energy reference) to (the trace's maximum
    /// possible utility, its minimum possible energy). The energy
    /// reference is every task on its most expensive feasible machine.
    /// Deterministic for a seed.
    pub fn final_hv(&self, runs: &[PopulationRun]) -> f64 {
        let system = self.framework.system();
        let trace = self.framework.trace();
        let energy_ref: f64 = trace
            .tasks()
            .iter()
            .map(|t| {
                system
                    .feasible_machines(t.task_type)
                    .iter()
                    .map(|&m| system.energy(t.task_type, m))
                    .fold(0.0, f64::max)
            })
            .sum();
        let bounds = Evaluator::new(system, trace);
        let area = bounds.max_possible_utility() * (energy_ref - bounds.min_possible_energy());
        hypervolume(&combined_front(runs), 0.0, energy_ref) / area
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        // Manifests are scratch state of one run; a failed removal only
        // leaves a file behind.
        let _ = std::fs::remove_file(&self.manifest);
    }
}

/// The configuration the inputs are built from: the data set's default
/// master seed for the data set workloads, the run's own for the campaign.
fn data_config(workload: Workload, config: &ExperimentConfig) -> ExperimentConfig {
    let mut data = config.clone();
    if !workload.is_campaign() {
        data.rng_seed = ExperimentConfig::builder(config.dataset)
            .build()
            .map_or(data.rng_seed, |default| default.rng_seed);
    }
    data
}

/// The data set built from `data`, running under `config`'s master seed.
fn build_framework(
    data: &ExperimentConfig,
    config: &ExperimentConfig,
) -> hetsched::core::Result<Framework> {
    Ok(Framework::new(data)?.variant(config.rng_seed, config.algorithm))
}

fn io_error(e: std::io::Error) -> hetsched::core::Error {
    hetsched::core::Error::Io(e.to_string())
}

fn lost_cells(outcome: &CampaignOutcome) -> usize {
    outcome.failed.len() + outcome.skipped.len()
}

fn flatten(outcome: CampaignOutcome) -> Vec<PopulationRun> {
    outcome
        .reports
        .into_iter()
        .flat_map(|r| r.report.runs)
        .collect()
}

fn front_of(population: &[Individual<Allocation>]) -> ParetoFront {
    ParetoFront::from_objectives(population.iter().map(|i| &i.objectives))
}

/// The nondominated union of every population's final front.
fn combined_front(runs: &[PopulationRun]) -> ParetoFront {
    runs.iter()
        .map(|r| r.final_front().clone())
        .reduce(|a, b| a.merge(&b))
        .unwrap_or_else(|| ParetoFront::from_points(std::iter::empty()))
}

/// A bit-exact fingerprint (FNV-1a) of every snapshot front of `runs`:
/// seed kind, snapshot generation, and the bits of every point.
pub fn fingerprint(runs: &[PopulationRun]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for run in runs {
        feed(run.seed.label().as_bytes());
        for (generation, front) in &run.fronts {
            feed(&(*generation as u64).to_le_bytes());
            feed(&(front.len() as u64).to_le_bytes());
            for p in front.points() {
                feed(&p.utility.to_bits().to_le_bytes());
                feed(&p.energy.to_bits().to_le_bytes());
            }
        }
    }
    hash
}

/// Whether every population has a non-empty final front.
pub fn fronts_nonempty(runs: &[PopulationRun]) -> bool {
    !runs.is_empty() && runs.iter().all(|r| !r.final_front().is_empty())
}

/// One population of `fw`, as `Framework::run_population_with_engine`
/// runs it, but evolved through [`TimedProblem`].
fn wrapped_population(
    fw: &Framework,
    seed: SeedKind,
    stream: u64,
    log: Option<&SpanLog>,
    parent: Option<u64>,
) -> (PopulationRun, PopulationTiming) {
    let config = fw.config();
    let population_id = span_id();
    let population_start = Instant::now();

    let seeds_start = Instant::now();
    let seeds: Vec<Allocation> = seed.seeds(fw.system(), fw.trace());
    let seeds_wall = seeds_start.elapsed();

    let evolve_id = span_id();
    let problem = TimedProblem::new(
        AllocationProblem::new(fw.system(), fw.trace()),
        log,
        Some(evolve_id),
    );
    let engine = fw.engine_config();
    let mut fronts: Vec<(usize, ParetoFront)> = Vec::new();
    let evolve_start = Instant::now();
    let final_pop = engine.evolve(
        &problem,
        seeds,
        engine_stream(config.rng_seed, stream),
        &config.snapshots[..config.snapshots.len() - 1],
        &mut |generation, population| fronts.push((generation, front_of(population))),
        &mut NullObserver,
    );
    let evolve_wall = evolve_start.elapsed();
    let layers = problem.finish();
    fronts.push((config.generations(), front_of(&final_pop)));

    if let Some(log) = log {
        log.close(
            span_id(),
            Some(population_id),
            "seeds",
            seeds_start,
            seeds_wall,
            vec![],
        );
        log.close(
            evolve_id,
            Some(population_id),
            "evolve",
            evolve_start,
            evolve_wall,
            vec![field_u64("generations", config.generations() as u64)],
        );
        log.close(
            population_id,
            parent,
            "population",
            population_start,
            population_start.elapsed(),
            vec![
                field_str("seed", seed.label()),
                field_u64("stream", stream),
                field_u64("rng_seed", config.rng_seed),
            ],
        );
    }
    (
        PopulationRun { seed, fronts },
        PopulationTiming {
            seed_ns: seeds_wall.as_nanos() as u64,
            evolve_ns: evolve_wall.as_nanos() as u64,
            layers,
        },
    )
}
