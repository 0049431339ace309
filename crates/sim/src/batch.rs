//! Population-level batch evaluation.
//!
//! [`BatchEvaluator`] evaluates a whole offspring population in one call.
//! A parallel batch fans out through the rayon pool, one clone of the
//! primary [`Evaluator`] per worker; under the pool's process-wide thread
//! budget a batch nested inside a population or cell fan-out runs inline
//! when every core is already busy, and splits only across idle cores.
//! Results are returned in job order, and each job runs exactly the same
//! float operations as the corresponding single-shot [`Evaluator`] call,
//! so a batch is bit-identical to a serial loop however it is split.

use crate::allocation::Allocation;
use crate::evaluator::{Evaluator, Outcome};
use hetsched_data::HcSystem;
use hetsched_workload::Trace;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One evaluation request in a batch.
///
/// `Skip` marks a job whose outcome the caller already knows (an engine
/// reusing a parent's objectives for a certified no-op child); it keeps
/// indices aligned without costing an evaluation.
#[derive(Debug, Clone, Copy)]
pub enum BatchJob<'g> {
    /// Full evaluation of one allocation.
    Full(&'g Allocation),
    /// No evaluation needed; [`BatchEvaluator::evaluate_jobs`] returns
    /// `None` in this slot.
    Skip,
}

/// Evaluates batches of jobs, serially on its primary [`Evaluator`] or
/// across the rayon pool.
#[derive(Debug, Clone)]
pub struct BatchEvaluator<'a> {
    primary: Evaluator<'a>,
}

impl<'a> BatchEvaluator<'a> {
    /// Creates a batch evaluator bound to one system + trace.
    pub fn new(system: &'a HcSystem, trace: &'a Trace) -> Self {
        BatchEvaluator {
            primary: Evaluator::new(system, trace),
        }
    }

    /// The primary evaluator, for single-shot evaluation between batches.
    pub fn primary(&mut self) -> &mut Evaluator<'a> {
        &mut self.primary
    }

    /// Evaluates every job, returning outcomes in job order (`None` for
    /// [`BatchJob::Skip`] slots).
    ///
    /// With `parallel == false` everything runs on the primary evaluator —
    /// exactly the sequence of calls an unbatched loop would have made.
    /// With `parallel == true` the jobs fan out through the rayon pool,
    /// each worker evaluating the jobs it takes on its own clone of the
    /// primary; evaluation is pure per job, so every result is
    /// bit-identical to the serial path.
    pub fn evaluate_jobs(&mut self, jobs: &[BatchJob<'_>], parallel: bool) -> Vec<Option<Outcome>> {
        // The batch span nests under the engine's evaluation phase via the
        // caller's thread and records how many threads the batch ran on;
        // the workers stay untraced (evaluation is RNG-free and
        // bit-identical either way).
        let mut batch_span =
            tracing::span!(tracing::Level::TRACE, "batch", jobs = jobs.len() as u64);
        let in_batch = batch_span.enter();
        let (out, threads) = if parallel {
            let threads = AtomicU64::new(0);
            let primary = &self.primary;
            let out = jobs
                .par_iter()
                .map_init(
                    || {
                        threads.fetch_add(1, Ordering::Relaxed);
                        primary.clone()
                    },
                    |worker, job| Self::run(worker, job),
                )
                .collect();
            (out, threads.into_inner())
        } else {
            let primary = &mut self.primary;
            (jobs.iter().map(|job| Self::run(primary, job)).collect(), 1)
        };
        drop(in_batch);
        batch_span.record("threads", threads);
        out
    }

    fn run(ev: &mut Evaluator<'a>, job: &BatchJob<'_>) -> Option<Outcome> {
        match job {
            BatchJob::Full(alloc) => Some(ev.evaluate(alloc)),
            BatchJob::Skip => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::{real_system, MachineId};
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_alloc(rng: &mut StdRng, tasks: usize, machines: usize) -> Allocation {
        Allocation {
            machine: (0..tasks)
                .map(|_| MachineId(rng.gen_range(0..machines as u32)))
                .collect(),
            order: (0..tasks).map(|_| rng.gen_range(0..1000)).collect(),
        }
    }

    #[test]
    fn batched_full_jobs_match_single_shot_bitwise() {
        let sys = real_system();
        let trace = TraceGenerator::new(40, 600.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(7))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let allocs: Vec<Allocation> = (0..17)
            .map(|_| random_alloc(&mut rng, 40, sys.machine_count()))
            .collect();
        let mut reference = Evaluator::new(&sys, &trace);
        let expected: Vec<Outcome> = allocs.iter().map(|a| reference.evaluate(a)).collect();
        for parallel in [false, true] {
            let mut batch = BatchEvaluator::new(&sys, &trace);
            let jobs: Vec<BatchJob<'_>> = allocs.iter().map(BatchJob::Full).collect();
            let got = batch.evaluate_jobs(&jobs, parallel);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                let g = g.expect("full job yields an outcome");
                assert_eq!(g.utility.to_bits(), e.utility.to_bits());
                assert_eq!(g.energy.to_bits(), e.energy.to_bits());
                assert_eq!(g.makespan.to_bits(), e.makespan.to_bits());
            }
        }
    }

    #[test]
    fn skip_jobs_yield_none_and_cost_nothing() {
        let sys = real_system();
        let trace = TraceGenerator::new(10, 600.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(7))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_alloc(&mut rng, 10, sys.machine_count());
        let mut batch = BatchEvaluator::new(&sys, &trace);
        let jobs = [BatchJob::Skip, BatchJob::Full(&a), BatchJob::Skip];
        let got = batch.evaluate_jobs(&jobs, false);
        assert!(got[0].is_none());
        assert!(got[1].is_some());
        assert!(got[2].is_none());
    }
}
