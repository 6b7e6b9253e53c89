//! The three workloads: which benchmark, configuration and size each
//! cell runs at.

use cdp_sim::runner::with_warmup;
use cdp_types::SystemConfig;
use cdp_workloads::{Benchmark, Scale, Workload};

/// The tournament table budget the `zoo_sweep` entrants are normalized to.
pub const ZOO_BUDGET: usize = 64 * 1024;

/// The store-heavy OLTP/runtime benchmarks the `zoo_sweep` grid covers.
pub const ZOO_BENCHES: [Benchmark; 5] = [
    Benchmark::Tpcc1,
    Benchmark::Tpcc2,
    Benchmark::Tpcc3,
    Benchmark::Tpcc4,
    Benchmark::SpecjbbVsnet,
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// verilog-gate on the tuned content prefetcher, streamed.
    ChaseCdp,
    /// b2e on the stride-only baseline, materialized.
    ComputeBase,
    /// The tournament entrants over the OLTP/runtime benchmarks. Not in
    /// `BENCHMARK.json`: its store read-backs fail their check until the
    /// result codec carries the zoo engines' statistics (see `README.md`).
    ZooSweep,
}

impl WorkloadId {
    /// Every workload this benchmark can run.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::ChaseCdp,
        WorkloadId::ComputeBase,
        WorkloadId::ZooSweep,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order.
    pub const MEASURED: [WorkloadId; 2] = [WorkloadId::ChaseCdp, WorkloadId::ComputeBase];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::ChaseCdp => "chase_cdp",
            WorkloadId::ComputeBase => "compute_base",
            WorkloadId::ZooSweep => "zoo_sweep",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the cells are: the benchmark's own sizes, or tiny ones for the
/// self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures at.
    Bench,
    /// A few tens of thousands of uops per cell.
    Tiny,
}

/// One simulated cell: a labelled configuration over one benchmark.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `<entrant>/<benchmark>`.
    pub label: String,
    /// The benchmark the cell runs.
    pub bench: Benchmark,
    /// Full configuration, warm-up included.
    pub cfg: SystemConfig,
}

/// The uop budget and footprint divisor of `id`'s cells.
pub fn scale(id: WorkloadId, size: Size) -> Scale {
    let (target_uops, footprint_div) = match (id, size) {
        // One long cell above the 4 M-uop streaming threshold, at full
        // footprint. Longer cells vary less in simulated IPC from seed to
        // seed (quartile spread ~10 % at 6 M uops, ~6 % at 24 M), but give
        // fewer repetitions per run to take the fastest windows from, and
        // host-speed swings dominate the throughput spread.
        (WorkloadId::ChaseCdp, Size::Bench) => (6_000_000, 1),
        (WorkloadId::ChaseCdp, Size::Tiny) => (60_000, 16),
        (WorkloadId::ComputeBase, Size::Bench) => (3_000_000, 1),
        (WorkloadId::ComputeBase, Size::Tiny) => (40_000, 1),
        // The tournament's quick scale. Both sizes span at least three
        // 64 Ki-uop session windows, so every cell has a window boundary
        // past its midpoint to snapshot at.
        (WorkloadId::ZooSweep, Size::Bench) => (1_000_000, 2),
        (WorkloadId::ZooSweep, Size::Tiny) => (200_000, 16),
    };
    Scale {
        target_uops,
        footprint_div,
    }
}

/// Whether `id` streams its trace: `chase_cdp` always does (the tiny size
/// forces the streaming engine below the threshold), the others never.
pub fn streamed(id: WorkloadId, size: Size) -> bool {
    id == WorkloadId::ChaseCdp || scale(id, size).streamed()
}

/// The benchmarks `id` builds, one workload each.
pub fn benches(id: WorkloadId) -> Vec<Benchmark> {
    match id {
        WorkloadId::ChaseCdp => vec![Benchmark::VerilogGate],
        WorkloadId::ComputeBase => vec![Benchmark::B2e],
        WorkloadId::ZooSweep => ZOO_BENCHES.to_vec(),
    }
}

/// Builds `bench` for `id` at `size` from `seed`.
pub fn build(id: WorkloadId, size: Size, bench: Benchmark, seed: u64) -> Workload {
    bench.build_with_engine(scale(id, size), seed, streamed(id, size))
}

/// The cells of `id`, in grid order (entrant-major for `zoo_sweep`).
///
/// # Panics
///
/// Panics if the tournament cannot normalize its entrants to
/// [`ZOO_BUDGET`], which would be a defect in the entrant list.
pub fn cells(id: WorkloadId, size: Size) -> Vec<Cell> {
    let s = scale(id, size);
    let cell = |label: String, bench: Benchmark, cfg: SystemConfig| Cell {
        label,
        bench,
        cfg: with_warmup(cfg, s),
    };
    match id {
        WorkloadId::ChaseCdp => vec![cell(
            "cdp/verilog-gate".into(),
            Benchmark::VerilogGate,
            SystemConfig::with_content(),
        )],
        WorkloadId::ComputeBase => vec![cell(
            "stride/b2e".into(),
            Benchmark::B2e,
            SystemConfig::asplos2002(),
        )],
        WorkloadId::ZooSweep => {
            let entrants = cdp_experiments::tournament::entrants(ZOO_BUDGET)
                .expect("the tournament entrants normalize to the zoo budget");
            let mut out = Vec::new();
            for e in entrants {
                for bench in ZOO_BENCHES {
                    out.push(cell(
                        format!("{}/{}", e.name, bench.name()),
                        bench,
                        e.cfg.clone(),
                    ));
                }
            }
            out
        }
    }
}
