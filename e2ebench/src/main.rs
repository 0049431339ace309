//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0` it reports the end-to-end metrics of the workload,
//! untraced; with `--trace 1` the per-layer metrics from traced passes,
//! and the span file. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! repeat the metrics for a reader. Errors exit non-zero without a result.

use e2ebench::probe::{field_str, field_u64, span_id, SpanLog};
use e2ebench::procfs;
use e2ebench::stats::{median, quantile};
use e2ebench::workload::{fingerprint, fronts_nonempty, Bench, Workload};
use hetsched::core::{PopulationRun, TraceWriter};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where manifests and span files go, relative to the working directory
/// (the repository checkout).
const OUT_DIR: &str = ".bench_out";
/// Timed set-ups per run, at least this many and for at least
/// `SETUP_BUDGET`; `setup_s` is their median.
const SETUP_REPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(250);
/// Fewest measured repetitions in an end-to-end run, however long they
/// take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Output checks: every run and every cell counts as attempted; failed
/// cells and runs that fail a check count as failed, with the reason
/// printed to standard error.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn run(&mut self, what: &str, cells: usize, lost: usize, checks: &[(&str, bool)]) {
        self.attempted += cells as u64 + 1;
        self.failed += lost as u64;
        if lost > 0 {
            eprintln!("{what}: {lost} of {cells} cells failed, timed out or were skipped");
        }
        let broken: Vec<&str> = checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(c, _)| *c)
            .collect();
        if !broken.is_empty() {
            self.failed += 1;
            eprintln!("{what}: failed check(s): {}", broken.join(", "));
        }
    }
}

/// The reference a run is checked against: the first run of this seed.
struct Reference {
    fingerprint: u64,
    final_hv: f64,
}

impl Reference {
    fn checks(&self, bench: &Bench, runs: &[PopulationRun]) -> [(&'static str, bool); 3] {
        [
            ("fronts non-empty", fronts_nonempty(runs)),
            (
                "fronts identical to the first run",
                fingerprint(runs) == self.fingerprint,
            ),
            (
                "final_hv identical to the first run",
                bench.final_hv(runs).to_bits() == self.final_hv.to_bits(),
            ),
        ]
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.0.push((name.to_string(), v, unit)),
            _ => eprintln!("{name}: not measured on this host, omitted"),
        }
    }

    fn json(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            for (name, value, unit) in &metrics.0 {
                println!("{:<32} {value:>16.6} {unit}", name);
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.failed == 0,
                tally.attempted,
                tally.failed,
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let bench = Bench::new(args.workload, args.seed, out_dir.clone()).map_err(|e| e.to_string())?;
    let mut setups = Vec::new();
    let setup_started = Instant::now();
    while !args.trace && (setups.len() < SETUP_REPS || setup_started.elapsed() < SETUP_BUDGET) {
        setups.push(bench.time_setup().map_err(|e| e.to_string())?.as_secs_f64());
    }

    // The first run warms caches and lazily built state, and is the
    // reference every later run of this seed must reproduce bit for bit.
    let mut tally = Tally::default();
    let first = bench.run_plain().map_err(|e| e.to_string())?;
    let reference = Reference {
        fingerprint: fingerprint(&first.runs),
        final_hv: bench.final_hv(&first.runs),
    };
    tally.run(
        "first run",
        first.cells,
        first.lost,
        &[
            ("fronts non-empty", fronts_nonempty(&first.runs)),
            ("campaign complete, replay executes nothing", first.complete),
        ],
    );

    let mut metrics = Metrics(Vec::new());
    let seconds = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced(
            &bench,
            &reference,
            seconds,
            &out_dir,
            args,
            &mut tally,
            &mut metrics,
        )?;
    } else {
        untraced(&bench, &reference, seconds, &mut tally, &mut metrics)?;
        metrics.put("setup_s", median(&setups), "s");
    }
    Ok((tally, metrics))
}

/// The end-to-end metrics: repeated untraced runs for `seconds`.
fn untraced(
    bench: &Bench,
    reference: &Reference,
    seconds: Duration,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed() < seconds {
        let run = bench.run_plain().map_err(|e| e.to_string())?;
        let mut checks = reference.checks(bench, &run.runs).to_vec();
        checks.push(("campaign complete, replay executes nothing", run.complete));
        tally.run("run", run.cells, run.lost, &checks);
        walls.push(run.wall.as_secs_f64());
        if let Some(cpu) = run.cpu {
            cpus.push(cpu.total_s());
        }
    }
    let wall = median(&walls);
    let per_wall = |work: usize| {
        let rates: Vec<f64> = walls.iter().map(|w| work as f64 / w).collect();
        median(&rates)
    };
    metrics.put("wall_s", wall, "s");
    metrics.put("evals_per_s", per_wall(bench.evaluations()), "1/s");
    metrics.put("cells_per_s", per_wall(bench.cell_count()), "1/s");
    metrics.put("cpu_s", median(&cpus), "s");
    metrics.put("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
    metrics.put("final_hv", Some(reference.final_hv), "share");
    eprintln!(
        "{} repetitions, wall (s): {}",
        walls.len(),
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(())
}

/// Per-layer samples of one traced repetition.
#[derive(Default)]
struct LayerSamples(Vec<(&'static str, &'static str, Vec<f64>)>);

impl LayerSamples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }
}

/// The per-layer metrics: alternating untraced runs and traced
/// repetitions for `seconds`. A traced repetition is the wrapped pass
/// (`sim`, `alloc`, `moea`, `heuristics`) followed by the observed
/// campaign pass (`core.campaign`, `core.manifest`), all under one trace
/// id. The spans of the first traced repetition are written as
/// `SpanRecord` JSONL, which `hetsched trace FILE` folds.
fn traced(
    bench: &Bench,
    reference: &Reference,
    seconds: Duration,
    out_dir: &std::path::Path,
    args: &Args,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let epoch = Instant::now();
    let mut samples = LayerSamples::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first_spans = None;
    let mut observed_reference: Option<Reference> = None;
    let started = Instant::now();
    while untraced_walls.is_empty() || started.elapsed() < seconds {
        let plain = bench.run_plain().map_err(|e| e.to_string())?;
        let mut checks = reference.checks(bench, &plain.runs).to_vec();
        checks.push(("campaign complete, replay executes nothing", plain.complete));
        tally.run("untraced run", plain.cells, plain.lost, &checks);
        untraced_walls.push(plain.wall.as_secs_f64());
        if let Some(cpu) = plain.cpu {
            samples.push("proc.cpu_user_s", "s", cpu.user_s);
            samples.push("proc.cpu_sys_s", "s", cpu.sys_s);
            samples.push("proc.sys_share", "share", cpu.sys_s / cpu.total_s());
        }

        let trace_id = untraced_walls.len() as u64;
        let log = Arc::new(SpanLog::new(trace_id, epoch));
        let root = span_id();
        let root_start = Instant::now();
        let wrapped_id = span_id();
        let wrapped = bench.run_wrapped(Some(&log), Some(wrapped_id));
        log.close(
            wrapped_id,
            Some(root),
            "wrapped",
            root_start,
            wrapped.wall,
            vec![field_u64("populations", wrapped.runs.len() as u64)],
        );
        tally.run(
            "traced (wrapped) run",
            wrapped.runs.len(),
            0,
            &reference.checks(bench, &wrapped.runs),
        );
        let observed = bench
            .run_observed(Some(Arc::clone(&log)), Some(root))
            .map_err(|e| e.to_string())?;
        // A data set workload's observed campaign runs under the data
        // set's default seed, so its reference is its own first pass.
        let observed_reference = match &observed_reference {
            Some(r) => r,
            None if bench.workload.is_campaign() => reference,
            None => observed_reference.insert(Reference {
                fingerprint: fingerprint(&observed.runs),
                final_hv: bench.final_hv(&observed.runs),
            }),
        };
        let mut checks = observed_reference.checks(bench, &observed.runs).to_vec();
        checks.push((
            "campaign complete, replay executes nothing",
            observed.complete,
        ));
        tally.run(
            "traced (observed) campaign",
            observed.cells,
            observed.lost,
            &checks,
        );
        log.close(
            root,
            None,
            "workload",
            root_start,
            root_start.elapsed(),
            vec![
                field_str("workload", args.workload.name()),
                field_u64("seed", args.seed),
            ],
        );
        // The traced counterpart of the measured run: the observed
        // campaign for the campaign workload, the wrapped pass otherwise.
        let traced_wall = if bench.workload.is_campaign() {
            observed.wall
        } else {
            wrapped.wall
        };
        traced_walls.push(traced_wall.as_secs_f64());

        push_engine_layers(&mut samples, &wrapped.populations);
        let cell_ms: Vec<f64> = observed.cell_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let workers = observed.workers.max(1) as f64;
        samples.push(
            "core.campaign.cell_ms_p50",
            "ms",
            quantile(&cell_ms, 0.5).unwrap_or(0.0),
        );
        samples.push(
            "core.campaign.cell_ms_p99",
            "ms",
            quantile(&cell_ms, 0.99).unwrap_or(0.0),
        );
        samples.push("core.campaign.workers", "count", workers);
        samples.push(
            "core.campaign.cell_busy_share",
            "share",
            cell_ms.iter().sum::<f64>() / 1e3 / (observed.wall.as_secs_f64() * workers),
        );
        samples.push("core.manifest.records", "count", observed.records as f64);
        samples.push(
            "core.manifest.bytes_per_cell",
            "B",
            observed.manifest_bytes as f64 / observed.cells as f64,
        );
        samples.push("core.manifest.replay_s", "s", observed.replay.as_secs_f64());
        if first_spans.is_none() {
            first_spans = Arc::into_inner(log).map(SpanLog::into_records);
        }
    }
    for (name, unit, values) in &samples.0 {
        metrics.put(name, median(values), unit);
    }
    metrics.put(
        "trace.overhead_share",
        median(&traced_walls)
            .zip(median(&untraced_walls))
            .map(|(t, u)| t / u - 1.0),
        "share",
    );
    let path = out_dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let _ = std::fs::remove_file(&path);
    let writer = TraceWriter::create(&path).map_err(|e| e.to_string())?;
    for record in first_spans.unwrap_or_default() {
        writer.append(&record);
    }
    writer.flush_writer();
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// The `sim`, `alloc`, `moea` and `heuristics` metrics of one wrapped
/// pass, summed over its populations.
fn push_engine_layers(
    samples: &mut LayerSamples,
    populations: &[e2ebench::workload::PopulationTiming],
) {
    let mut layers = e2ebench::probe::LayerTotals::default();
    let mut evolve_ns = 0u64;
    let mut seed_ns = 0u64;
    for p in populations {
        layers.add(&p.layers);
        evolve_ns += p.evolve_ns;
        seed_ns += p.seed_ns;
    }
    let s = |ns: u64| ns as f64 / 1e9;
    let evolve = s(evolve_ns);
    let batch = s(layers.batch_ns);
    let variation = s(layers.crossover_ns + layers.mutate_ns);
    let evaluated = (layers.jobs_full + layers.jobs_moves).max(1) as f64;
    let moves_jobs = layers.jobs_moves.max(1) as f64;
    samples.push("sim.batch_s", "s", batch);
    samples.push("sim.batch_share", "share", batch / evolve);
    samples.push("sim.ns_per_job", "ns", layers.batch_ns as f64 / evaluated);
    samples.push("sim.jobs_full", "count", layers.jobs_full as f64);
    samples.push("sim.jobs_moves", "count", layers.jobs_moves as f64);
    samples.push("sim.jobs_skip", "count", layers.jobs_skip as f64);
    samples.push(
        "sim.moves_per_job",
        "count",
        layers.moves as f64 / moves_jobs,
    );
    samples.push(
        "sim.delta_eligible_share",
        "share",
        layers.delta_eligible as f64 / moves_jobs,
    );
    samples.push("alloc.crossover_s", "s", s(layers.crossover_ns));
    samples.push("alloc.mutate_s", "s", s(layers.mutate_ns));
    samples.push("alloc.variation_share", "share", variation / evolve);
    samples.push("moea.evolve_s", "s", evolve);
    samples.push("moea.self_s", "s", evolve - batch - variation);
    samples.push(
        "moea.self_share",
        "share",
        (evolve - batch - variation) / evolve,
    );
    samples.push("heuristics.seed_s", "s", s(seed_ns));
}
