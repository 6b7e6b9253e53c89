//! Reference-schedule cross-checks: the idle-cycle fast-forward and the
//! streaming uop engine are behaviour-neutral on every workload's cells.
//!
//! `set_fast_forward` is process-global, so these tests live in their own
//! test binary and run one after another under one lock.

use std::sync::Mutex;

use cdp_sim::{set_fast_forward, Simulator};
use cdp_workloads::Benchmark;
use simbench::check::same_stats;
use simbench::plan::{self, Size, WorkloadId};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn fast_forward_matches_the_cycle_by_cycle_schedule() {
    let _guard = SERIAL.lock().expect("no test panicked holding the lock");
    for id in WorkloadId::ALL {
        // One cell per configuration: every entrant of the zoo, on its
        // first benchmark.
        let cells = plan::cells(id, Size::Tiny);
        let first = cells[0].bench;
        for cell in cells.iter().filter(|c| c.bench == first) {
            let w = plan::build(id, Size::Tiny, cell.bench, 42);
            let sim = Simulator::new(cell.cfg.clone());
            set_fast_forward(false);
            let reference = sim.try_run(&w);
            set_fast_forward(true);
            let fast = sim.try_run(&w);
            let (reference, fast) = (reference.expect("reference run"), fast.expect("fast run"));
            same_stats(&reference, &fast).unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        }
    }
}

#[test]
fn chase_generator_streams_what_it_materializes() {
    let _guard = SERIAL.lock().expect("no test panicked holding the lock");
    let cell = plan::cells(WorkloadId::ChaseCdp, Size::Tiny).remove(0);
    let scale = plan::scale(WorkloadId::ChaseCdp, Size::Tiny);
    for seed in [42, 7] {
        let streamed = Benchmark::VerilogGate.build_with_engine(scale, seed, true);
        let materialized = Benchmark::VerilogGate.build_with_engine(scale, seed, false);
        assert!(streamed.is_streamed() && !materialized.is_streamed());
        let sim = Simulator::new(cell.cfg.clone());
        let a = sim.try_run(&streamed).expect("streamed run");
        let b = sim.try_run(&materialized).expect("materialized run");
        same_stats(&a, &b).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
