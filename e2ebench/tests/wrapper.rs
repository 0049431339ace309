//! The timing wrapper must be invisible: request for request it returns
//! what `AllocationProblem` returns, and a traced run reproduces the
//! untraced fronts bit for bit. The second check also pins the
//! benchmark's copy of the framework's private per-population engine
//! stream rule.

use e2ebench::probe::{span_id, SpanLog, TimedProblem};
use e2ebench::workload::{fingerprint, Bench, Workload};
use hetsched::alloc::AllocationProblem;
use hetsched::core::{DatasetId, ExperimentConfig, TraceAnalysis};
use hetsched::data::real_system;
use hetsched::moea::{BatchRequest, Objectives, Problem, Variation};
use hetsched::workload::TraceGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

fn bits(objectives: &[Objectives]) -> Vec<[u64; 2]> {
    objectives
        .iter()
        .map(|o| [o[0].to_bits(), o[1].to_bits()])
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn wrapper_matches_allocation_problem_for_every_request_kind() {
    let system = real_system();
    let trace = TraceGenerator::new(40, 900.0, system.task_type_count())
        .generate(&mut StdRng::seed_from_u64(7))
        .unwrap();
    let plain = AllocationProblem::new(&system, &trace);
    let timed = TimedProblem::new(AllocationProblem::new(&system, &trace), None, None);

    // Identical operator draws: the wrapper must not touch the RNG.
    let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
    let a = plain.random_genome(&mut rng_a);
    let b = plain.random_genome(&mut rng_a);
    assert_eq!(timed.random_genome(&mut rng_b), a);
    assert_eq!(timed.random_genome(&mut rng_b), b);
    let ((mut c, mut vc), _) = plain.crossover_tracked(&mut rng_a, &a, &b);
    plain.mutate_tracked(&mut rng_a, &mut c, &mut vc);
    let ((mut c2, mut vc2), _) = timed.crossover_tracked(&mut rng_b, &a, &b);
    timed.mutate_tracked(&mut rng_b, &mut c2, &mut vc2);
    assert_eq!((&c, &vc), (&c2, &vc2));
    let Variation::Moves(moves) = vc else {
        panic!("allocation operators track their moves");
    };
    assert!(!moves.is_empty());

    let mut ev = plain.evaluator();
    let base_objectives = plain.evaluate(&mut ev, &a);
    let requests = [
        BatchRequest::Full(&b),
        BatchRequest::Moves {
            base: &a,
            base_objectives,
            child: &c,
            moves: &moves,
        },
        BatchRequest::Moves {
            base: &a,
            base_objectives,
            child: &a,
            moves: &[],
        },
    ];
    let singles: Vec<Objectives> = requests
        .iter()
        .map(|r| plain.evaluate_request(&mut plain.evaluator(), r))
        .collect();
    for parallel in [false, true] {
        let expected = plain.evaluate_batch(&mut plain.evaluator(), parallel, &requests);
        let got = timed.evaluate_batch(&mut timed.evaluator(), parallel, &requests);
        assert_eq!(bits(&got), bits(&expected), "parallel = {parallel}");
        assert_eq!(bits(&got), bits(&singles), "parallel = {parallel}");
    }
    let totals = timed.finish();
    assert_eq!(
        (totals.jobs_full, totals.jobs_moves, totals.jobs_skip),
        (2, 2, 2)
    );
    assert_eq!(totals.moves, 2 * moves.len() as u64);
}

fn tiny(dataset: DatasetId, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::builder(dataset)
        .tasks(30)
        .population(12)
        .snapshots(vec![2, 6])
        .build()
        .unwrap();
    config.rng_seed = seed;
    config
}

#[test]
fn traced_runs_reproduce_framework_run_bit_for_bit() {
    for (workload, dataset) in [
        (Workload::Ds1Fig3, DatasetId::One),
        (Workload::Ds2Fig4, DatasetId::Two),
    ] {
        for seed in [3, 0x5EED] {
            let bench =
                Bench::with_config(workload, tiny(dataset, seed), 1, out_dir("traced")).unwrap();
            let expected = bench.framework.run();
            let log = SpanLog::new(1, Instant::now());
            let root = span_id();
            let wrapped = bench.run_wrapped(Some(&log), Some(root));
            assert_eq!(wrapped.runs, expected.runs, "{dataset:?} seed {seed}");
            assert_eq!(fingerprint(&wrapped.runs), fingerprint(&expected.runs));

            // The spans fold with the program's own analysis: evolve self
            // time is what the batch and operator spans do not cover.
            let records = log.into_records();
            let analysis = TraceAnalysis::from_records(&records, 3);
            let phase = |name: &str| analysis.phases.iter().find(|p| p.name == name).unwrap();
            assert_eq!(phase("population").count, 5);
            assert_eq!(phase("evolve").count, 5);
            assert_eq!(phase("batch").count, 5 * 7, "initial batch + 6 generations");
            let evolve = phase("evolve");
            let children: f64 = ["batch", "crossover", "mutate"]
                .iter()
                .map(|n| phase(n).total_s)
                .sum();
            assert!((evolve.self_s - (evolve.total_s - children)).abs() < 1e-6);
            assert!(records.iter().all(|r| r.trace_id == 1));
        }
    }
}

#[test]
fn observed_and_wrapped_campaigns_match_the_plain_campaign() {
    let bench = Bench::with_config(
        Workload::CampaignSmallCells,
        tiny(DatasetId::One, 11),
        3,
        out_dir("campaign"),
    )
    .unwrap();
    let plain = bench.run_plain().unwrap();
    assert!(plain.complete);
    assert_eq!((plain.cells, plain.lost), (15, 0));
    let observed = bench.run_observed(None, None).unwrap();
    assert!(observed.complete);
    assert_eq!(observed.runs, plain.runs);
    assert_eq!(observed.records, 15);
    assert_eq!(observed.cell_ns.len(), 15);
    assert!(observed.workers >= 1);
    // The wrapped pass repeats the campaign's replicate seeds and streams.
    let wrapped = bench.run_wrapped(None, None);
    assert_eq!(wrapped.runs, plain.runs);
}
