//! A parallel batch called outside any fan-out (a single-population run,
//! a streaming re-optimisation) must still split across the idle cores.
//! The `batch` span records how many threads a batch ran on.
//!
//! This is its own test binary because the span sink it installs is
//! process-global.

use hetsched_data::{real_system, MachineId};
use hetsched_sim::{Allocation, BatchEvaluator, BatchJob};
use hetsched_workload::TraceGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use tracing::{ClosedSpan, FieldValue, Level, SpanSink};

/// The `threads` field of every closed `batch` span.
static BATCH_THREADS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

struct BatchRecorder;

impl SpanSink for BatchRecorder {
    fn on_span(&self, span: ClosedSpan) {
        if span.name != "batch" {
            return;
        }
        for (key, value) in span.fields {
            if let ("threads", FieldValue::U64(n)) = (key, value) {
                BATCH_THREADS.lock().unwrap().push(n);
            }
        }
    }
}

#[test]
fn a_top_level_batch_splits_across_idle_cores() {
    tracing::set_span_sink(Level::TRACE, Box::new(BatchRecorder)).unwrap();
    let sys = real_system();
    let trace = TraceGenerator::new(200, 600.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(8))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let allocs: Vec<Allocation> = (0..64)
        .map(|_| Allocation {
            machine: (0..200)
                .map(|_| MachineId(rng.gen_range(0..sys.machine_count() as u32)))
                .collect(),
            order: (0..200).map(|_| rng.gen_range(0..200)).collect(),
        })
        .collect();
    let jobs: Vec<BatchJob<'_>> = allocs.iter().map(BatchJob::Full).collect();
    let mut batch = BatchEvaluator::new(&sys, &trace);
    let serial = batch.evaluate_jobs(&jobs, false);
    let parallel = batch.evaluate_jobs(&jobs, true);
    assert_eq!(serial, parallel);

    let threads = BATCH_THREADS.lock().unwrap().clone();
    let cores = rayon::current_num_threads() as u64;
    assert_eq!(threads.len(), 2, "one batch span per call: {threads:?}");
    assert_eq!(threads[0], 1, "a serial batch runs on its caller");
    if cores > 1 {
        assert!(
            (2..=cores).contains(&threads[1]),
            "a top-level parallel batch ran on {} thread(s) of {cores}",
            threads[1]
        );
    } else {
        assert_eq!(threads[1], 1);
    }
}
