//! Property tests for the evaluator's execution-sequence build.
//!
//! `Evaluator::evaluate` orders tasks by (order key, task id) with a stable
//! counting sort when every key is below T, and with a comparison sort
//! otherwise. Over random traces and genomes, its outcome must equal, bit
//! for bit, both a reference that always uses the comparison sort and the
//! event-driven oracle (`evaluate_event_driven`), which builds its queues
//! with its own comparison sort.

use hetsched_data::{real_system, HcSystem, MachineId, MachineInventory};
use hetsched_sim::{evaluate_event_driven, Allocation, Evaluator, Outcome};
use hetsched_workload::{Trace, TraceGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The real 9×5 system, a 3-machine subset (long queues, many ties per
/// queue) and a 50-machine synthetic expansion.
fn system(kind: u8) -> HcSystem {
    let base = real_system();
    let counts = match kind % 3 {
        0 => return base,
        1 => vec![1, 1, 1, 0, 0, 0, 0, 0, 0],
        _ => vec![6, 6, 6, 6, 6, 5, 5, 5, 5],
    };
    base.with_inventory(MachineInventory::from_counts(counts).unwrap())
        .unwrap()
}

fn trace_for(system: &HcSystem, tasks: usize, seed: u64) -> Trace {
    TraceGenerator::new(tasks, 600.0, system.task_type_count())
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
}

/// How a genome's order keys are drawn.
#[derive(Debug, Clone, Copy)]
enum Keys {
    /// A permutation of `0..T`, as `random_genome` draws it.
    Permutation,
    /// Keys below T from a small range: many ties.
    TiedInRange,
    /// Every key at or above T: the comparison-sort fallback.
    OutOfRange,
    /// In-range keys with a few at or above T (up to `u32::MAX`).
    Mixed,
}

fn keys(kind: u8) -> Keys {
    [
        Keys::Permutation,
        Keys::TiedInRange,
        Keys::OutOfRange,
        Keys::Mixed,
    ][kind as usize % 4]
}

/// A random genome; every machine of the systems above is feasible for
/// every task type (the real ETC matrix is fully finite).
fn genome(rng: &mut StdRng, system: &HcSystem, tasks: usize, keys: Keys) -> Allocation {
    let t = tasks as u32;
    let machine = (0..tasks)
        .map(|_| MachineId(rng.gen_range(0..system.machine_count() as u32)))
        .collect();
    let order = match keys {
        Keys::Permutation => {
            let mut order: Vec<u32> = (0..t).collect();
            for i in (1..tasks).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            order
        }
        Keys::TiedInRange => {
            let distinct = t.div_ceil(4);
            (0..tasks).map(|_| rng.gen_range(0..distinct)).collect()
        }
        Keys::OutOfRange => (0..tasks).map(|_| rng.gen_range(t..t + 50)).collect(),
        Keys::Mixed => (0..tasks)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => t,
                1 => u32::MAX,
                _ => rng.gen_range(0..t),
            })
            .collect(),
    };
    Allocation { machine, order }
}

/// The evaluator's semantics with a plain comparison sort: per-machine
/// folds in queue order, summed in machine-index order.
fn comparison_sort_reference(system: &HcSystem, trace: &Trace, alloc: &Allocation) -> Outcome {
    let tasks = trace.tasks();
    let mut sequence: Vec<u32> = (0..tasks.len() as u32).collect();
    sequence.sort_by_key(|&i| (alloc.order[i as usize], i));
    let mc = system.machine_count();
    let (mut free, mut util, mut energy) = (vec![0.0f64; mc], vec![0.0; mc], vec![0.0; mc]);
    for i in sequence {
        let task = &tasks[i as usize];
        let machine = alloc.machine[i as usize];
        let m = machine.index();
        let finish = free[m].max(task.arrival) + system.exec_time(task.task_type, machine);
        free[m] = finish;
        util[m] += task.tuf.utility(finish - task.arrival);
        energy[m] += system.energy(task.task_type, machine);
    }
    let mut out = Outcome {
        utility: 0.0,
        energy: 0.0,
        makespan: 0.0,
    };
    for m in 0..mc {
        out.utility += util[m];
        out.energy += energy[m];
        out.makespan = out.makespan.max(free[m]);
    }
    out
}

fn bits(o: Outcome) -> [u64; 3] {
    [
        o.utility.to_bits(),
        o.energy.to_bits(),
        o.makespan.to_bits(),
    ]
}

/// Evaluates `alloc` three ways and requires identical bits.
fn assert_paths_agree(
    ev: &mut Evaluator<'_>,
    system: &HcSystem,
    trace: &Trace,
    alloc: &Allocation,
) -> std::result::Result<(), String> {
    let got = bits(ev.evaluate(alloc));
    let reference = bits(comparison_sort_reference(system, trace, alloc));
    let oracle = bits(evaluate_event_driven(system, trace, alloc).unwrap());
    if got != reference || got != oracle {
        return Err(format!(
            "evaluate {got:?}, comparison sort {reference:?}, event oracle {oracle:?} for {alloc:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every key shape, on every system, through one reused evaluator (so
    /// a counting-sort call follows a fallback call and vice versa).
    #[test]
    fn evaluate_matches_comparison_sort_and_event_oracle(
        kind in 0u8..3,
        tasks in 1usize..120,
        seed in 0u64..1_000_000,
    ) {
        let sys = system(kind);
        let trace = trace_for(&sys, tasks, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E0);
        let mut ev = Evaluator::new(&sys, &trace);
        for round in 0..8u8 {
            let alloc = genome(&mut rng, &sys, tasks, keys(round));
            let agreed = assert_paths_agree(&mut ev, &sys, &trace, &alloc);
            prop_assert!(agreed.is_ok(), "{:?}: {}", keys(round), agreed.unwrap_err());
        }
    }
}

/// T = 1: the only in-range key is 0; any other key takes the fallback.
#[test]
fn single_task_trace_agrees_on_both_paths() {
    for kind in 0..3 {
        let sys = system(kind);
        let trace = trace_for(&sys, 1, 7);
        let mut ev = Evaluator::new(&sys, &trace);
        for machine in 0..sys.machine_count() as u32 {
            for key in [0, 1, 9, u32::MAX] {
                let alloc = Allocation {
                    machine: vec![MachineId(machine)],
                    order: vec![key],
                };
                assert_paths_agree(&mut ev, &sys, &trace, &alloc).unwrap();
            }
        }
    }
}

/// All keys equal (0, in range) puts every task in one tie class, which
/// must run in task-id order: the arrival-order genome's outcome.
#[test]
fn one_tie_class_runs_in_task_id_order() {
    let sys = system(1);
    let trace = trace_for(&sys, 64, 3);
    let mut ev = Evaluator::new(&sys, &trace);
    let machine: Vec<MachineId> = (0..64).map(|i| MachineId(i % 3)).collect();
    let tied = Allocation {
        machine: machine.clone(),
        order: vec![0; 64],
    };
    let arrival = Allocation::with_arrival_order(machine);
    assert_eq!(bits(ev.evaluate(&tied)), bits(ev.evaluate(&arrival)));
    assert_paths_agree(&mut ev, &sys, &trace, &tied).unwrap();
}

/// T = 0 cannot reach the evaluator: the trace API refuses empty traces.
#[test]
fn empty_traces_are_refused_before_evaluation() {
    let sys = real_system();
    assert!(TraceGenerator::new(0, 600.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(1))
        .is_err());
    assert!(Trace::new(Vec::new(), 600.0).is_err());
}
