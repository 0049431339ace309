//! Resource allocations: a complete mapping of tasks to machines plus the
//! global scheduling order (§IV-D's chromosome contents, kept here so the
//! simulator, the seeding heuristics, and the genetic encoding all share
//! one representation).

use crate::{Result, SimError};
use hetsched_data::{HcSystem, MachineId};
use hetsched_workload::{TaskId, Trace};
use serde::{Deserialize, Serialize};

/// A complete resource allocation for a trace of `T` tasks.
///
/// Index `i` of both vectors refers to `TaskId(i)` — the i-th task in
/// arrival order. `order` holds the *global scheduling order* keys: tasks
/// execute on their machines by ascending key (ties broken by task id), so
/// any `u32` values work; they need not form a permutation (the genetic
/// crossover freely mixes keys from two parents).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Machine assignment per task.
    pub machine: Vec<MachineId>,
    /// Global scheduling order key per task.
    pub order: Vec<u32>,
}

/// One gene rewrite: task `task` now runs on `machine` with global
/// scheduling-order key `order` (absolute new values, not deltas).
///
/// A sequence of moves is applied left to right; a later move for the same
/// task overrides an earlier one. The tracked variation operators report
/// the exact base→child diff as a move list, so an engine can tell a child
/// identical to its parent (no moves) and reuse the parent's objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskMove {
    /// Index of the rewritten task (gene) in the trace.
    pub task: u32,
    /// The task's new machine assignment.
    pub machine: MachineId,
    /// The task's new global scheduling-order key.
    pub order: u32,
}

impl Allocation {
    /// Creates an allocation with the given assignment and arrival-order
    /// scheduling (task i has key i).
    pub fn with_arrival_order(machine: Vec<MachineId>) -> Self {
        let order = (0..machine.len() as u32).collect();
        Allocation { machine, order }
    }

    /// Number of tasks covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.machine.len()
    }

    /// Whether the allocation covers zero tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.machine.is_empty()
    }

    /// Validates the allocation against a system and trace.
    ///
    /// # Errors
    ///
    /// * [`SimError::LengthMismatch`] — vectors shorter/longer than the
    ///   trace, or disagreeing with each other.
    /// * [`SimError::UnknownMachine`] — machine id out of range.
    /// * [`SimError::InfeasibleAssignment`] — task mapped to a machine that
    ///   cannot execute its type (special-purpose mismatch).
    pub fn validate(&self, system: &HcSystem, trace: &Trace) -> Result<()> {
        if self.machine.len() != trace.len() || self.order.len() != trace.len() {
            return Err(SimError::LengthMismatch {
                expected: trace.len(),
                got: self.machine.len().min(self.order.len()),
            });
        }
        for (i, (&m, task)) in self.machine.iter().zip(trace.tasks()).enumerate() {
            if m.index() >= system.machine_count() {
                return Err(SimError::UnknownMachine(m));
            }
            if !system.is_feasible(task.task_type, m) {
                return Err(SimError::InfeasibleAssignment {
                    task: TaskId(i as u32),
                    machine: m,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (hetsched_data::HcSystem, Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(20, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        (sys, trace)
    }

    #[test]
    fn arrival_order_constructor() {
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 5]);
        assert_eq!(alloc.order, vec![0, 1, 2, 3, 4]);
        assert_eq!(alloc.len(), 5);
        assert!(!alloc.is_empty());
    }

    #[test]
    fn validate_accepts_feasible() {
        let (sys, trace) = setup();
        let alloc = Allocation::with_arrival_order(vec![MachineId(3); trace.len()]);
        assert!(alloc.validate(&sys, &trace).is_ok());
    }

    #[test]
    fn validate_rejects_length_mismatch() {
        let (sys, trace) = setup();
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 3]);
        assert!(matches!(
            alloc.validate(&sys, &trace),
            Err(SimError::LengthMismatch {
                expected: 20,
                got: 3
            })
        ));
    }

    #[test]
    fn validate_rejects_unknown_machine() {
        let (sys, trace) = setup();
        let alloc = Allocation::with_arrival_order(vec![MachineId(99); trace.len()]);
        assert!(matches!(
            alloc.validate(&sys, &trace),
            Err(SimError::UnknownMachine(_))
        ));
    }
}
