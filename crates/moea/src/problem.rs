//! The problem abstraction the NSGA-II engine evolves over.

use crate::dominance::Objectives;
use rand::RngCore;

/// What a variation operator reports about the child it produced, so an
/// engine can skip evaluating a child identical to its base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Variation<M> {
    /// The operator did not track its edits; the child must be evaluated
    /// from scratch.
    Unknown,
    /// The child equals its base genome with exactly these moves applied,
    /// left to right. An **empty** list certifies the child bit-identical
    /// to its base, so engines skip evaluation entirely and reuse the
    /// base's objectives.
    Moves(Vec<M>),
}

impl<M> Variation<M> {
    /// Whether this variation certifies the child identical to its base.
    pub fn is_noop(&self) -> bool {
        matches!(self, Variation::Moves(moves) if moves.is_empty())
    }
}

/// One evaluation request in a population-level batch (borrowed views into
/// the engine's parent and offspring storage).
///
/// Engines translate each offspring's [`Variation`] into a request:
/// [`Variation::Unknown`] becomes `Full`, tracked moves become `Moves`
/// carrying the base parent's already-known objectives so a certified
/// no-op (empty move list) costs nothing.
#[derive(Debug)]
pub enum BatchRequest<'p, G, M> {
    /// Fully evaluate one genome.
    Full(&'p G),
    /// Evaluate `child`, which equals `base` with `moves` applied left to
    /// right. An empty `moves` certifies `child == base`, so the problem
    /// returns `base_objectives` without evaluating anything.
    Moves {
        /// The base parent genome.
        base: &'p G,
        /// The base parent's objectives (engines always know them).
        base_objectives: Objectives,
        /// The offspring genome to evaluate.
        child: &'p G,
        /// The exact base→child diff.
        moves: &'p [M],
    },
}

// Manual impls: the derive would demand `G: Clone`/`M: Clone`, but every
// field is a reference (or `Objectives`), so requests copy regardless.
impl<G, M> Clone for BatchRequest<'_, G, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<G, M> Copy for BatchRequest<'_, G, M> {}

/// A bi-objective optimisation problem with genetic operators.
///
/// Evaluation is split into a per-thread [`Problem::Evaluator`] so the
/// engine can evaluate populations in parallel while each worker reuses its
/// own scratch buffers (the scheduling evaluator sorts a sequence buffer
/// and tracks machine-free times; sharing those across threads would race).
///
/// # Tracked variation (incremental evaluation)
///
/// Engines call the `*_tracked` operator variants, which additionally
/// return a [`Variation`]: the move set the operator applied to turn the
/// base parent into the child. Problems that can evaluate a child
/// incrementally from its base override [`Problem::evaluate_moves`]; the
/// defaults keep every existing problem working unchanged (operators
/// report [`Variation::Unknown`], `evaluate_moves` falls back to a full
/// [`Problem::evaluate`]).
///
/// **Contract:** a tracked operator must draw from the RNG exactly as its
/// untracked counterpart (so trajectories are independent of tracking),
/// and `Moves(v)` must mean "child = base with `v` applied" *exactly* —
/// engines trust an empty `v` enough to skip evaluation.
pub trait Problem: Sync {
    /// A candidate solution (the chromosome).
    type Genome: Clone + Send + Sync;
    /// Per-thread evaluation context.
    type Evaluator: Send;
    /// One tracked edit of a variation operator (`()` when untracked).
    /// `Sync` so batched requests (which borrow move slices) can cross
    /// worker threads.
    type Move: Send + Sync;

    /// Creates a fresh evaluation context.
    fn evaluator(&self) -> Self::Evaluator;

    /// Evaluates a genome into minimisation objectives.
    fn evaluate(&self, ev: &mut Self::Evaluator, genome: &Self::Genome) -> Objectives;

    /// Samples a uniformly random genome.
    fn random_genome(&self, rng: &mut dyn RngCore) -> Self::Genome;

    /// Produces two offspring from two parents.
    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &Self::Genome,
        b: &Self::Genome,
    ) -> (Self::Genome, Self::Genome);

    /// Mutates a genome in place.
    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut Self::Genome);

    /// As [`Problem::crossover`], additionally reporting each child's
    /// [`Variation`] relative to its base parent (first child ↔ `a`,
    /// second child ↔ `b`).
    #[allow(clippy::type_complexity)]
    fn crossover_tracked(
        &self,
        rng: &mut dyn RngCore,
        a: &Self::Genome,
        b: &Self::Genome,
    ) -> (
        (Self::Genome, Variation<Self::Move>),
        (Self::Genome, Variation<Self::Move>),
    ) {
        let (c, d) = self.crossover(rng, a, b);
        ((c, Variation::Unknown), (d, Variation::Unknown))
    }

    /// As [`Problem::mutate`], updating the genome's accumulated
    /// [`Variation`] to cover the mutation's edits (or degrading it to
    /// [`Variation::Unknown`] when the operator cannot track them).
    fn mutate_tracked(
        &self,
        rng: &mut dyn RngCore,
        genome: &mut Self::Genome,
        variation: &mut Variation<Self::Move>,
    ) {
        self.mutate(rng, genome);
        *variation = Variation::Unknown;
    }

    /// Evaluates `child` given that it equals `base` with `moves` applied.
    /// The default ignores the moves and fully evaluates; problems with an
    /// incremental evaluator override this. Must return exactly what
    /// `evaluate(ev, child)` would.
    fn evaluate_moves(
        &self,
        ev: &mut Self::Evaluator,
        base: &Self::Genome,
        child: &Self::Genome,
        moves: &[Self::Move],
    ) -> Objectives {
        let _ = (base, moves);
        self.evaluate(ev, child)
    }

    /// Resolves one [`BatchRequest`]: skip (empty tracked moves, reuse the
    /// base objectives without touching the evaluator), incremental
    /// ([`Problem::evaluate_moves`]), or full ([`Problem::evaluate`]) —
    /// the same triage every engine used to inline.
    fn evaluate_request(
        &self,
        ev: &mut Self::Evaluator,
        request: &BatchRequest<'_, Self::Genome, Self::Move>,
    ) -> Objectives {
        match request {
            BatchRequest::Full(genome) => self.evaluate(ev, genome),
            BatchRequest::Moves {
                base,
                base_objectives,
                child,
                moves,
            } => {
                if moves.is_empty() {
                    *base_objectives
                } else {
                    self.evaluate_moves(ev, base, child, moves)
                }
            }
        }
    }

    /// Evaluates a whole batch of requests, returning objectives in
    /// request order. Engines route their population loops through this
    /// single entry point so problems can own the parallelism split.
    ///
    /// The default reproduces the engines' historical behaviour exactly:
    /// serial batches run one request at a time on the caller's persistent
    /// evaluator; parallel batches fan out with rayon, each worker
    /// initialising a fresh evaluator. Problems with a population-aware
    /// evaluator (the scheduling problem's `BatchEvaluator`) override this
    /// to keep per-worker state warm across generations.
    fn evaluate_batch(
        &self,
        ev: &mut Self::Evaluator,
        parallel: bool,
        batch: &[BatchRequest<'_, Self::Genome, Self::Move>],
    ) -> Vec<Objectives> {
        if parallel {
            use rayon::prelude::*;
            batch
                .to_vec()
                .into_par_iter()
                .map_init(
                    || self.evaluator(),
                    |worker, request| self.evaluate_request(worker, &request),
                )
                .collect()
        } else {
            batch
                .iter()
                .map(|request| self.evaluate_request(ev, request))
                .collect()
        }
    }
}

/// Schaffer's single-variable problem (SCH): minimise `(x², (x−2)²)`.
/// Its exact Pareto-optimal set is `x ∈ [0, 2]`; the classic smoke test
/// for NSGA-II implementations (used by Deb et al. 2002 itself).
#[derive(Debug, Clone, Copy)]
pub struct Schaffer {
    /// Genome search range `[-range, range]`.
    pub range: f64,
    /// Gaussian-ish mutation step.
    pub step: f64,
}

impl Default for Schaffer {
    fn default() -> Self {
        Schaffer {
            range: 1000.0,
            step: 0.5,
        }
    }
}

impl Problem for Schaffer {
    type Genome = f64;
    type Evaluator = ();
    type Move = ();

    fn evaluator(&self) {}

    fn evaluate(&self, _ev: &mut (), genome: &f64) -> Objectives {
        [genome * genome, (genome - 2.0) * (genome - 2.0)]
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng;
        rng.gen_range(-self.range..=self.range)
    }

    fn crossover(&self, rng: &mut dyn RngCore, a: &f64, b: &f64) -> (f64, f64) {
        use rand::Rng;
        // Blend crossover.
        let w = rng.gen::<f64>();
        (w * a + (1.0 - w) * b, (1.0 - w) * a + w * b)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut f64) {
        use rand::Rng;
        *genome += rng.gen_range(-self.step..=self.step);
        *genome = genome.clamp(-self.range, self.range);
    }
}

/// ZDT1: a 30-variable benchmark with Pareto front `f₂ = 1 − √f₁` at
/// `g = 1` (all tail variables zero). Exercises convergence pressure on a
/// high-dimensional genome.
#[derive(Debug, Clone, Copy)]
pub struct Zdt1 {
    /// Number of decision variables (≥ 2).
    pub vars: usize,
}

impl Default for Zdt1 {
    fn default() -> Self {
        Zdt1 { vars: 30 }
    }
}

impl Problem for Zdt1 {
    type Genome = Vec<f64>;
    type Evaluator = ();
    type Move = ();

    fn evaluator(&self) {}

    fn evaluate(&self, _ev: &mut (), x: &Vec<f64>) -> Objectives {
        let f1 = x[0];
        let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (x.len() - 1) as f64;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        [f1, f2]
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        use rand::Rng;
        (0..self.vars).map(|_| rng.gen::<f64>()).collect()
    }

    fn crossover(&self, rng: &mut dyn RngCore, a: &Vec<f64>, b: &Vec<f64>) -> (Vec<f64>, Vec<f64>) {
        use rand::Rng;
        // Single-point crossover.
        let cut = rng.gen_range(1..self.vars);
        let mut c = a.clone();
        let mut d = b.clone();
        c[cut..].copy_from_slice(&b[cut..]);
        d[cut..].copy_from_slice(&a[cut..]);
        (c, d)
    }

    fn mutate(&self, rng: &mut dyn RngCore, x: &mut Vec<f64>) {
        use rand::Rng;
        let i = rng.gen_range(0..x.len());
        x[i] = (x[i] + rng.gen_range(-0.1..=0.1)).clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schaffer_objectives() {
        let p = Schaffer::default();
        assert_eq!(p.evaluate(&mut (), &0.0), [0.0, 4.0]);
        assert_eq!(p.evaluate(&mut (), &2.0), [4.0, 0.0]);
        assert_eq!(p.evaluate(&mut (), &1.0), [1.0, 1.0]);
    }

    #[test]
    fn schaffer_operators_stay_in_range() {
        let p = Schaffer::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let mut g = p.random_genome(&mut rng);
            assert!(g.abs() <= p.range);
            p.mutate(&mut rng, &mut g);
            assert!(g.abs() <= p.range);
        }
    }

    #[test]
    fn zdt1_front_at_g_equals_one() {
        let p = Zdt1 { vars: 5 };
        let mut x = vec![0.0; 5];
        x[0] = 0.25;
        let [f1, f2] = p.evaluate(&mut (), &x);
        assert_eq!(f1, 0.25);
        assert!((f2 - (1.0 - 0.25f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn zdt1_crossover_preserves_length_and_genes() {
        let p = Zdt1 { vars: 6 };
        let mut rng = StdRng::seed_from_u64(2);
        let a = vec![0.0; 6];
        let b = vec![1.0; 6];
        let (c, d) = p.crossover(&mut rng, &a, &b);
        assert_eq!(c.len(), 6);
        assert_eq!(d.len(), 6);
        // Each position holds a gene from one of the parents, and the two
        // children complement each other.
        for i in 0..6 {
            assert!((c[i] == 0.0 || c[i] == 1.0) && (c[i] + d[i] == 1.0));
        }
    }
}
