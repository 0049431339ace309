//! The benchmark's probes at the layer boundaries: an in-memory span log
//! in the program's own [`SpanRecord`] shape, a timing wrapper around
//! [`AllocationProblem`] (the `sim` and `alloc` layers as the `moea`
//! engine sees them), and a [`CampaignObserver`] (the `core.campaign`
//! layer).
//!
//! The probes read wall clocks only; they never touch an RNG, so traced
//! runs stay bit-identical to untraced ones (the benchmark checks this on
//! every traced run).

use hetsched::alloc::AllocationProblem;
use hetsched::core::{CampaignObserver, CellId, SpanRecord};
use hetsched::moea::{BatchRequest, Objectives, Problem, Variation};
use hetsched::sim::{Allocation, BatchEvaluator, TaskMove};
use rand::RngCore;
use serde::{Number, Value};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A process-unique span id, taken when a span opens so children can name
/// their parent before the parent closes.
pub fn span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// An unsigned span field.
pub fn field_u64(key: &str, value: u64) -> (String, Value) {
    (key.to_string(), Value::Num(Number::U(value)))
}

/// A string span field.
pub fn field_str(key: &str, value: &str) -> (String, Value) {
    (key.to_string(), Value::Str(value.to_string()))
}

/// Completed spans of one workload run (one trace id), kept in memory
/// until the benchmark writes them out.
pub struct SpanLog {
    epoch: Instant,
    trace_id: u64,
    records: Mutex<Vec<SpanRecord>>,
}

impl SpanLog {
    /// An empty log whose span starts are measured from `epoch`.
    pub fn new(trace_id: u64, epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            trace_id,
            records: Mutex::new(Vec::new()),
        }
    }

    /// Records one closed span under a pre-allocated `id`.
    pub fn close(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        duration: Duration,
        fields: Vec<(String, Value)>,
    ) {
        let record = SpanRecord {
            trace_id: self.trace_id,
            span_id: id,
            parent_id: parent,
            name: name.to_string(),
            target: "e2ebench".to_string(),
            level: "INFO".to_string(),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            duration_ns: duration.as_nanos() as u64,
            thread: THREAD.with(|t| *t),
            fields,
        };
        self.records
            .lock()
            .expect("span log poisoned by a panicking probe")
            .push(record);
    }

    /// The recorded spans, in close order.
    pub fn into_records(self) -> Vec<SpanRecord> {
        self.records
            .into_inner()
            .expect("span log poisoned by a panicking probe")
    }
}

/// What the timing wrapper saw during one or more `Engine::evolve` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Wall time inside `Problem::evaluate_batch`.
    pub batch_ns: u64,
    /// Wall time inside the crossover operators.
    pub crossover_ns: u64,
    /// Wall time inside the mutation operators.
    pub mutate_ns: u64,
    /// `Full` requests.
    pub jobs_full: u64,
    /// `Moves` requests with at least one move.
    pub jobs_moves: u64,
    /// `Moves` requests with no move: the parent's objectives are reused.
    pub jobs_skip: u64,
    /// Moves carried by the non-empty `Moves` requests.
    pub moves: u64,
    /// Non-empty `Moves` requests small enough for the delta path
    /// (`moves.len() * 4 <= tasks`, the evaluator's own rule).
    pub delta_eligible: u64,
}

impl LayerTotals {
    /// Field-wise sum.
    pub fn add(&mut self, other: &LayerTotals) {
        self.batch_ns += other.batch_ns;
        self.crossover_ns += other.crossover_ns;
        self.mutate_ns += other.mutate_ns;
        self.jobs_full += other.jobs_full;
        self.jobs_moves += other.jobs_moves;
        self.jobs_skip += other.jobs_skip;
        self.moves += other.moves;
        self.delta_eligible += other.delta_eligible;
    }
}

/// Operator calls of one generation not yet written as a span: the calls
/// are far too short and too many for a span each, so one span per
/// generation carries their summed duration from the first call's start.
#[derive(Default)]
struct Pending {
    first: Option<Instant>,
    ns: u64,
    calls: u64,
}

#[derive(Default)]
struct ProbeState {
    totals: LayerTotals,
    crossover: Pending,
    mutate: Pending,
}

/// An [`AllocationProblem`] that times every call the engine makes into
/// the `sim` (batch evaluation) and `alloc` (variation) layers. Every
/// trait method delegates to the wrapped problem, so results are exactly
/// the wrapped problem's.
pub struct TimedProblem<'a, 'l> {
    inner: AllocationProblem<'a>,
    log: Option<&'l SpanLog>,
    parent: Option<u64>,
    state: Mutex<ProbeState>,
}

impl<'a, 'l> TimedProblem<'a, 'l> {
    /// Wraps `inner`. With a `log`, one `crossover`, `mutate` and `batch`
    /// span per generation is recorded under `parent`.
    pub fn new(
        inner: AllocationProblem<'a>,
        log: Option<&'l SpanLog>,
        parent: Option<u64>,
    ) -> Self {
        TimedProblem {
            inner,
            log,
            parent,
            state: Mutex::new(ProbeState::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, ProbeState> {
        self.state
            .lock()
            .expect("probe state poisoned by a panicking operator")
    }

    fn timed_variation<T>(&self, mutate: bool, op: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = op();
        let ns = start.elapsed().as_nanos() as u64;
        let mut state = self.state();
        let s = &mut *state;
        let (total, pending) = if mutate {
            (&mut s.totals.mutate_ns, &mut s.mutate)
        } else {
            (&mut s.totals.crossover_ns, &mut s.crossover)
        };
        *total += ns;
        pending.first.get_or_insert(start);
        pending.ns += ns;
        pending.calls += 1;
        out
    }

    fn flush_pending(&self, state: &mut ProbeState) {
        for (name, pending) in [
            ("crossover", &mut state.crossover),
            ("mutate", &mut state.mutate),
        ] {
            let taken = std::mem::take(pending);
            if let (Some(log), Some(first)) = (self.log, taken.first) {
                log.close(
                    span_id(),
                    self.parent,
                    name,
                    first,
                    Duration::from_nanos(taken.ns),
                    vec![field_u64("calls", taken.calls)],
                );
            }
        }
    }

    /// Writes out the last generation's operator spans and returns the
    /// totals.
    pub fn finish(&self) -> LayerTotals {
        let mut state = self.state();
        self.flush_pending(&mut state);
        state.totals
    }
}

impl<'a> Problem for TimedProblem<'a, '_> {
    type Genome = Allocation;
    type Evaluator = BatchEvaluator<'a>;
    type Move = TaskMove;

    fn evaluator(&self) -> BatchEvaluator<'a> {
        self.inner.evaluator()
    }

    fn evaluate(&self, ev: &mut BatchEvaluator<'a>, genome: &Allocation) -> Objectives {
        self.inner.evaluate(ev, genome)
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Allocation {
        self.inner.random_genome(rng)
    }

    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &Allocation,
        b: &Allocation,
    ) -> (Allocation, Allocation) {
        self.timed_variation(false, || self.inner.crossover(rng, a, b))
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut Allocation) {
        self.timed_variation(true, || self.inner.mutate(rng, genome))
    }

    fn crossover_tracked(
        &self,
        rng: &mut dyn RngCore,
        a: &Allocation,
        b: &Allocation,
    ) -> (
        (Allocation, Variation<TaskMove>),
        (Allocation, Variation<TaskMove>),
    ) {
        self.timed_variation(false, || self.inner.crossover_tracked(rng, a, b))
    }

    fn mutate_tracked(
        &self,
        rng: &mut dyn RngCore,
        genome: &mut Allocation,
        variation: &mut Variation<TaskMove>,
    ) {
        self.timed_variation(true, || self.inner.mutate_tracked(rng, genome, variation))
    }

    fn evaluate_moves(
        &self,
        ev: &mut BatchEvaluator<'a>,
        base: &Allocation,
        child: &Allocation,
        moves: &[TaskMove],
    ) -> Objectives {
        self.inner.evaluate_moves(ev, base, child, moves)
    }

    fn evaluate_request(
        &self,
        ev: &mut BatchEvaluator<'a>,
        request: &BatchRequest<'_, Allocation, TaskMove>,
    ) -> Objectives {
        self.inner.evaluate_request(ev, request)
    }

    fn evaluate_batch(
        &self,
        ev: &mut BatchEvaluator<'a>,
        parallel: bool,
        batch: &[BatchRequest<'_, Allocation, TaskMove>],
    ) -> Vec<Objectives> {
        let tasks = self.inner.genome_len();
        let mut counts = LayerTotals::default();
        for request in batch {
            match request {
                BatchRequest::Full(_) => counts.jobs_full += 1,
                BatchRequest::Moves { moves: [], .. } => counts.jobs_skip += 1,
                BatchRequest::Moves { moves, .. } => {
                    counts.jobs_moves += 1;
                    counts.moves += moves.len() as u64;
                    counts.delta_eligible += u64::from(moves.len() * 4 <= tasks);
                }
            }
        }
        // The previous generation's variation ends where its batch starts.
        self.flush_pending(&mut self.state());
        let start = Instant::now();
        let out = self.inner.evaluate_batch(ev, parallel, batch);
        let elapsed = start.elapsed();
        counts.batch_ns = elapsed.as_nanos() as u64;
        self.state().totals.add(&counts);
        if let Some(log) = self.log {
            log.close(
                span_id(),
                self.parent,
                "batch",
                start,
                elapsed,
                vec![
                    field_u64("full", counts.jobs_full),
                    field_u64("moves", counts.jobs_moves),
                    field_u64("skip", counts.jobs_skip),
                ],
            );
        }
        out
    }
}

/// The benchmark's [`CampaignObserver`]: per-cell wall times and the
/// worker count, plus one `cell` span per finished cell.
pub struct CellProbe {
    log: Option<Arc<SpanLog>>,
    parent: Option<u64>,
    workers: AtomicUsize,
    cell_ns: Mutex<Vec<u64>>,
}

impl CellProbe {
    /// A probe recording `cell` spans under `parent` when given a log.
    pub fn new(log: Option<Arc<SpanLog>>, parent: Option<u64>) -> Self {
        CellProbe {
            log,
            parent,
            workers: AtomicUsize::new(0),
            cell_ns: Mutex::new(Vec::new()),
        }
    }

    /// The largest worker count the campaign reported.
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::SeqCst)
    }

    /// Wall time of every finished cell, in finish order.
    pub fn cell_ns(&self) -> Vec<u64> {
        self.cell_ns
            .lock()
            .expect("cell probe poisoned by a panicking observer")
            .clone()
    }
}

impl CampaignObserver for CellProbe {
    fn on_workers(&self, workers: usize) {
        // A replay pass reports the one worker its empty grid needs; keep
        // the writing pass's pool size.
        self.workers.fetch_max(workers, Ordering::SeqCst);
    }

    fn on_cell_finish(&self, cell: &CellId, attempts: usize, duration: Duration) {
        let end = Instant::now();
        self.cell_ns
            .lock()
            .expect("cell probe poisoned by a panicking observer")
            .push(duration.as_nanos() as u64);
        if let Some(log) = &self.log {
            log.close(
                span_id(),
                self.parent,
                "cell",
                end.checked_sub(duration).unwrap_or(end),
                duration,
                vec![
                    field_str("dataset", &format!("{:?}", cell.dataset)),
                    field_str("algorithm", &cell.algorithm.to_string()),
                    field_str("seed", cell.seed.label()),
                    field_u64("replicate", cell.replicate as u64),
                    field_u64("attempts", attempts as u64),
                ],
            );
        }
    }
}
