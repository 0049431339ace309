//! An independent event-driven evaluation path.
//!
//! [`crate::Evaluator`] computes schedules with a sorted sweep; this module
//! re-derives the same semantics with a classic discrete-event simulation —
//! a priority queue of machine-dispatch events. It exists for
//! cross-validation: the two implementations share no code beyond the data
//! model, so agreement is strong evidence the sweep is faithful to the
//! §IV-D execution rules ("tasks execute by global order; a machine sits
//! idle until the task's arrival").
//!
//! The event path is O(T log T + T log M) but with bigger constants than
//! the sweep; it is used in tests and for schedule introspection, never in
//! the GA hot loop.

use crate::allocation::Allocation;
use crate::evaluator::Outcome;
use crate::Result;
use hetsched_data::HcSystem;
use hetsched_workload::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A machine-dispatch event: machine `machine` becomes free at `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FreeEvent {
    time: f64,
    machine: u32,
}

impl Eq for FreeEvent {}

impl PartialOrd for FreeEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FreeEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.machine.cmp(&other.machine))
    }
}

/// Evaluates `alloc` with a discrete-event simulation. Semantically
/// identical to [`crate::Evaluator::evaluate`] (asserted by the
/// cross-validation tests); validates the allocation first.
///
/// # Errors
///
/// See [`Allocation::validate`].
pub fn evaluate_event_driven(
    system: &HcSystem,
    trace: &Trace,
    alloc: &Allocation,
) -> Result<Outcome> {
    alloc.validate(system, trace)?;
    let tasks = trace.tasks();
    let n = tasks.len();

    // Per-machine FIFO queues in global scheduling order.
    let mut sequence: Vec<u32> = (0..n as u32).collect();
    sequence.sort_unstable_by_key(|&i| (alloc.order[i as usize], i));
    let mut queues: Vec<std::collections::VecDeque<u32>> =
        vec![std::collections::VecDeque::new(); system.machine_count()];
    for &i in &sequence {
        queues[alloc.machine[i as usize].index()].push_back(i);
    }

    // Event loop: each machine processes its queue head; when the head has
    // not arrived yet the machine idles until the arrival time.
    let mut events: BinaryHeap<Reverse<FreeEvent>> = BinaryHeap::new();
    for (m, queue) in queues.iter().enumerate() {
        if !queue.is_empty() {
            events.push(Reverse(FreeEvent {
                time: 0.0,
                machine: m as u32,
            }));
        }
    }
    // Utility and energy fold per machine in dispatch order, then sum in
    // machine-index order: float addition is not associative, and this is
    // the order the sweep uses, so the two agree bit for bit.
    let mut machine_util = vec![0.0; system.machine_count()];
    let mut machine_energy = vec![0.0; system.machine_count()];
    let mut makespan = 0.0f64;
    while let Some(Reverse(FreeEvent { time, machine })) = events.pop() {
        let queue = &mut queues[machine as usize];
        let Some(i) = queue.pop_front() else {
            continue;
        };
        let task = &tasks[i as usize];
        let m = alloc.machine[i as usize];
        debug_assert_eq!(m.index(), machine as usize);
        let start = time.max(task.arrival);
        let finish = start + system.exec_time(task.task_type, m);
        machine_util[m.index()] += task.tuf.utility(finish - task.arrival);
        machine_energy[m.index()] += system.energy(task.task_type, m);
        makespan = makespan.max(finish);
        if !queue.is_empty() {
            events.push(Reverse(FreeEvent {
                time: finish,
                machine,
            }));
        }
    }
    Ok(Outcome {
        utility: machine_util.iter().fold(0.0, |sum, u| sum + u),
        energy: machine_energy.iter().fold(0.0, |sum, e| sum + e),
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use hetsched_data::{real_system, MachineId};
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn agrees_with_sweep_on_random_allocations() {
        let sys = real_system();
        for seed in 0..20u64 {
            let trace = TraceGenerator::new(60, 900.0, sys.task_type_count())
                .generate(&mut StdRng::seed_from_u64(seed))
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
            let machine: Vec<MachineId> = trace
                .tasks()
                .iter()
                .map(|t| {
                    let fs = sys.feasible_machines(t.task_type);
                    fs[rng.gen_range(0..fs.len())]
                })
                .collect();
            let mut order: Vec<u32> = (0..60).collect();
            for i in (1..60usize).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let alloc = Allocation { machine, order };
            let sweep = Evaluator::new(&sys, &trace).evaluate(&alloc);
            let events = evaluate_event_driven(&sys, &trace, &alloc).unwrap();
            assert!((sweep.utility - events.utility).abs() < 1e-9, "seed {seed}");
            assert!((sweep.energy - events.energy).abs() < 1e-9, "seed {seed}");
            assert!(
                (sweep.makespan - events.makespan).abs() < 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_with_duplicate_order_keys() {
        let sys = real_system();
        let trace = TraceGenerator::new(20, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(3))
            .unwrap();
        // All order keys identical — ties broken by task id in both paths.
        let alloc = Allocation {
            machine: vec![MachineId(2); 20],
            order: vec![5; 20],
        };
        let sweep = Evaluator::new(&sys, &trace).evaluate(&alloc);
        let events = evaluate_event_driven(&sys, &trace, &alloc).unwrap();
        assert!((sweep.utility - events.utility).abs() < 1e-9);
        assert!((sweep.makespan - events.makespan).abs() < 1e-9);
    }

    #[test]
    fn validates_input() {
        let sys = real_system();
        let trace = TraceGenerator::new(5, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 3]);
        assert!(evaluate_event_driven(&sys, &trace, &alloc).is_err());
    }
}
