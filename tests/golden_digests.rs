//! Golden digests: exact simulator output pinned across revisions.
//!
//! Every other identity check compares two runs of one build (jobs 1 vs
//! 4, cache on vs off, streamed vs materialized). These tests compare a
//! run against digests committed in `tests/golden_digests.txt`, so a
//! change that moves any simulated counter, any snapshot byte or any
//! trace event for every configuration at once still fails.
//!
//! Each digest is FNV-1a over bytes the program already defines: the
//! `encode_result` payload of a cell's `RunStats`, or the bytes of a
//! mid-run `SimSession::snapshot_into`. There is no switch that rewrites
//! the file: a digest changes only by hand, with a CHANGES.md line saying
//! why the behaviour changed.
//!
//! The quick gate runs in every `cargo test`. The extended matrix (all
//! benchmarks on base and CDP, plus one full-scale cell) is `#[ignore]`d
//! and runs in release from `scripts/ci.sh`:
//!
//! ```text
//! cargo test -q --release --test golden_digests -- --ignored
//! ```

use cdp::experiments::tournament::entrants;
use cdp::sim::runner::{build_workload, with_warmup, DEFAULT_SEED};
use cdp::sim::{encode_result, Simulator};
use cdp::snap::Fnv1a;
use cdp::types::{ObsConfig, SystemConfig, TraceConfig, TraceFilter};
use cdp::workloads::suite::{Benchmark, Scale};
use cdp::workloads::Workload;
use cdp_testutil::smoke;

/// The table budget the tournament entrants are normalized to.
const BUDGET: usize = 16384;

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// The digest of one cell's result payload (no observation).
fn run_digest(cfg: SystemConfig, w: &Workload, scale: Scale) -> u64 {
    let stats = Simulator::new(with_warmup(cfg, scale)).run(w);
    digest(&encode_result(&stats, None))
}

/// Checks every `(cell, digest)` against the committed file, reporting
/// every mismatching or missing cell at once.
fn check(cells: &[(String, u64)]) {
    let golden = include_str!("golden_digests.txt");
    let expected = |cell: &str| {
        golden
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let (name, hex) = l.split_once(' ')?;
                (name == cell).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
            })
    };
    let bad: Vec<String> = cells
        .iter()
        .filter_map(|(cell, actual)| match expected(cell) {
            Some(e) if e == *actual => None,
            Some(e) => Some(format!("{cell}: actual {actual:016x}, golden {e:016x}")),
            None => Some(format!("{cell}: actual {actual:016x}, no golden digest")),
        })
        .collect();
    assert!(
        bad.is_empty(),
        "golden digest mismatch:\n{}",
        bad.join("\n")
    );
}

fn base_and_cdp(bench: Benchmark, scale: Scale, label: &str) -> Vec<(String, u64)> {
    let w = build_workload(bench, scale);
    vec![
        (
            format!("{label}/base/{}", bench.name()),
            run_digest(SystemConfig::asplos2002(), &w, scale),
        ),
        (
            format!("{label}/cdp/{}", bench.name()),
            run_digest(SystemConfig::with_content(), &w, scale),
        ),
    ]
}

#[test]
fn smoke_cells_match_golden_digests() {
    let mut cells = base_and_cdp(Benchmark::VerilogGate, smoke(), "smoke");
    let speech = build_workload(Benchmark::Speech, smoke());
    for e in entrants(BUDGET).expect("16 KiB entrants normalize") {
        cells.push((
            format!("smoke/{}/speech", e.name),
            run_digest(e.cfg, &speech, smoke()),
        ));
    }
    check(&cells);
}

/// One mid-run snapshot of the perceptron-gated CDP entrant with issue
/// and MSHR-merge tracing on: its bytes hold the L2 owner codes, the
/// engine codes of the traced requests (demand, stride and content on
/// slsb) and the perceptron weights. Metrics windows make the session
/// step in small windows, so the snapshot lands mid-run.
#[test]
fn traced_perceptron_snapshot_matches_golden_digest() {
    let e = entrants(BUDGET)
        .expect("16 KiB entrants normalize")
        .into_iter()
        .find(|e| e.name == "cdp+perceptron")
        .expect("the tournament has a cdp+perceptron entrant");
    let w = build_workload(Benchmark::Slsb, smoke());
    let obs = ObsConfig {
        trace: Some(TraceConfig {
            filter: TraceFilter::ISSUE.union(TraceFilter::MSHR),
            ..TraceConfig::default()
        }),
        metrics_window: Some(1024),
        ..ObsConfig::default()
    };
    let sim = Simulator::new(with_warmup(e.cfg, smoke()));
    let mut session = sim.session(&w, Some(&obs));
    while session.retired() < w.program.len() as u64 / 3 {
        assert!(!session.step().expect("the cell runs"), "finished early");
    }
    let bytes = session.snapshot_into(Vec::new());
    check(&[("snapshot/cdp+perceptron/slsb".into(), digest(&bytes))]);
}

/// One mid-run snapshot of a streamed CDP cell: besides the core and
/// hierarchy, its bytes hold the `Feed::Stream` window and the
/// generator's cursor, which no materialized cell serializes.
#[test]
fn streamed_cdp_snapshot_matches_golden_digest() {
    let scale = smoke();
    let w = Benchmark::VerilogGate.build_with_engine(scale, DEFAULT_SEED, true);
    assert!(w.is_streamed());
    let obs = ObsConfig {
        metrics_window: Some(1024),
        ..ObsConfig::default()
    };
    let sim = Simulator::new(with_warmup(SystemConfig::with_content(), scale));
    let mut session = sim.session(&w, Some(&obs));
    while session.retired() < scale.target_uops as u64 / 3 {
        assert!(!session.step().expect("the cell runs"), "finished early");
    }
    let bytes = session.snapshot_into(Vec::new());
    check(&[("snapshot/cdp/verilog-gate-streamed".into(), digest(&bytes))]);
}

#[test]
#[ignore = "extended matrix; run in release by scripts/ci.sh"]
fn extended_matrix_matches_golden_digests() {
    let mut cells = Vec::new();
    for b in Benchmark::all() {
        cells.extend(base_and_cdp(b, smoke(), "smoke"));
    }
    let w = build_workload(Benchmark::VerilogGate, Scale::full());
    cells.push((
        "full/cdp/verilog-gate".into(),
        run_digest(SystemConfig::with_content(), &w, Scale::full()),
    ));
    check(&cells);
}
