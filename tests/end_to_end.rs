//! Cross-crate integration tests: workload generation through the full
//! simulator, checking accounting invariants that no single crate can see
//! on its own.

use cdp::sim::{speedup, EngineCounters, Simulator};
use cdp::types::{ContentConfig, DeltaConfig, EngineId, JumpConfig, SystemConfig};
use cdp::workloads::suite::Benchmark;
use cdp_testutil::smoke;

#[test]
fn every_benchmark_runs_to_completion_on_both_systems() {
    for b in Benchmark::all() {
        let w = b.build(smoke(), 11);
        let base = Simulator::new(SystemConfig::asplos2002()).run(&w);
        let cdp = Simulator::new(SystemConfig::with_content()).run(&w);
        assert_eq!(base.retired as usize, w.program.len(), "{b}");
        assert_eq!(cdp.retired, base.retired, "{b}: same trace both runs");
        assert!(base.cycles > 0 && cdp.cycles > 0, "{b}");
    }
}

#[test]
fn simulation_is_deterministic() {
    let w = Benchmark::Tpcc1.build(smoke(), 5);
    let a = Simulator::new(SystemConfig::with_content()).run(&w);
    let b = Simulator::new(SystemConfig::with_content()).run(&w);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mem.l2_demand_misses, b.mem.l2_demand_misses);
    assert_eq!(a.mem.content.issued, b.mem.content.issued);
}

#[test]
fn memory_accounting_invariants() {
    for b in [Benchmark::Slsb, Benchmark::B2e, Benchmark::Quake] {
        let w = b.build(smoke(), 3);
        let r = Simulator::new(SystemConfig::with_content()).run(&w);
        let m = r.mem;
        // Every access is an L1 hit or miss.
        assert_eq!(m.accesses, m.l1_hits + m.l1_misses, "{b}");
        // Every L1 miss reaches the L2.
        assert_eq!(m.l1_misses, m.l2_demand_accesses, "{b}");
        // L2 outcomes partition into hit / merged / miss.
        assert_eq!(
            m.l2_demand_accesses,
            m.l2_demand_hits + m.l2_miss_merged + m.l2_demand_misses,
            "{b}"
        );
        // Loads+stores executed by the core equal hierarchy accesses.
        assert_eq!(r.core.loads + r.core.stores, m.accesses, "{b}");
        // Useful prefetches can never exceed issued ones within a window
        // that starts empty (no warm-up here).
        assert!(m.content.useful() <= m.content.issued, "{b}");
    }
}

/// Figure 10's denominator is every demand that would have missed the L2
/// without prefetching: the unmasked misses plus every engine's useful
/// prefetches, whichever engines the configuration runs.
#[test]
fn figure10_counts_every_would_miss_demand() {
    let configs = [
        ("stride", SystemConfig::asplos2002()),
        ("cdp", SystemConfig::with_content()),
        (
            "delta",
            SystemConfig::with_delta(DeltaConfig::pangloss(16384)),
        ),
        ("jump", SystemConfig::with_jump(JumpConfig::sized(16384))),
    ];
    let mut delta_useful = 0;
    for b in Benchmark::all() {
        let w = b.build(smoke(), 11);
        for (name, cfg) in &configs {
            let m = Simulator::new(cfg.clone()).run(&w).mem;
            let useful: u64 = EngineId::ALL
                .iter()
                .filter_map(|&e| m.engine(e))
                .map(EngineCounters::useful)
                .sum();
            assert_eq!(
                m.distribution().total(),
                m.l2_demand_misses + useful,
                "{b} under {name}"
            );
            delta_useful += m.delta.useful();
        }
    }
    assert!(delta_useful > 0, "the delta engine masked no demand");
}

#[test]
fn warmup_only_shrinks_counted_window() {
    let w = Benchmark::Speech.build(smoke(), 9);
    let full = Simulator::new(SystemConfig::asplos2002()).run(&w);
    let mut cfg = SystemConfig::asplos2002();
    cfg.warmup_uops = (w.program.len() / 3) as u64;
    let warmed = Simulator::new(cfg).run(&w);
    assert!(warmed.retired < full.retired);
    assert!(warmed.cycles < full.cycles);
    assert!(warmed.mem.l2_demand_misses <= full.mem.l2_demand_misses);
}

#[test]
fn content_prefetcher_helps_aged_heap_pointer_chasing() {
    let w = Benchmark::Slsb.build(smoke(), 18);
    let base = Simulator::new(SystemConfig::asplos2002()).run(&w);
    let cdp = Simulator::new(SystemConfig::with_content()).run(&w);
    let s = speedup(&base, &cdp);
    assert!(s > 1.0, "CDP must win on slsb: {s:.3}");
    assert!(cdp.mem.content.useful() > 0);
}

#[test]
fn disabling_all_prefetchers_is_never_faster_than_stride_baseline() {
    let w = Benchmark::Quake.build(smoke(), 2);
    let mut none_cfg = SystemConfig::asplos2002();
    none_cfg.prefetchers.stride = None;
    let none = Simulator::new(none_cfg).run(&w);
    let stride = Simulator::new(SystemConfig::asplos2002()).run(&w);
    assert!(
        stride.cycles <= none.cycles + none.cycles / 20,
        "stride must not hurt a stride workload: {} vs {}",
        stride.cycles,
        none.cycles
    );
}

#[test]
fn bigger_l2_never_increases_misses() {
    let w = Benchmark::Tpcc2.build(smoke(), 8);
    let small = Simulator::new(SystemConfig::asplos2002()).run(&w);
    let mut big_cfg = SystemConfig::asplos2002();
    big_cfg.ul2.size_bytes = 4 * 1024 * 1024;
    let big = Simulator::new(big_cfg).run(&w);
    assert!(
        big.mem.l2_demand_misses <= small.mem.l2_demand_misses + small.mem.l2_demand_misses / 10,
        "4MB {} vs 1MB {}",
        big.mem.l2_demand_misses,
        small.mem.l2_demand_misses
    );
}

#[test]
fn depth_threshold_zero_disables_chaining() {
    let w = Benchmark::Slsb.build(smoke(), 4);
    let mut cfg = SystemConfig::asplos2002();
    cfg.prefetchers.content = Some(ContentConfig {
        depth_threshold: 0,
        ..ContentConfig::tuned()
    });
    let r = Simulator::new(cfg).run(&w);
    assert_eq!(
        r.mem.content.issued, 0,
        "threshold 0 means even demand fills are not scanned"
    );
}

#[test]
fn serialized_workload_simulates_identically() {
    use cdp::workloads::serialize::{from_text, to_text};
    let original = Benchmark::Creation.build(smoke(), 14);
    let reloaded = from_text(&to_text(&original)).expect("roundtrip");
    let a = Simulator::new(SystemConfig::with_content()).run(&original);
    let b = Simulator::new(SystemConfig::with_content()).run(&reloaded);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mem.l2_demand_misses, b.mem.l2_demand_misses);
    assert_eq!(a.mem.content.issued, b.mem.content.issued);
}

#[test]
fn page_walks_happen_and_tlb_growth_reduces_them() {
    let w = Benchmark::VerilogFunc.build(smoke(), 1);
    let small = Simulator::new(SystemConfig::asplos2002()).run(&w);
    let mut big_cfg = SystemConfig::asplos2002();
    big_cfg.dtlb.entries = 1024;
    let big = Simulator::new(big_cfg).run(&w);
    assert!(small.mem.dtlb_misses > 0);
    assert!(
        big.mem.dtlb_misses < small.mem.dtlb_misses,
        "16x TLB must cut walks: {} vs {}",
        big.mem.dtlb_misses,
        small.mem.dtlb_misses
    );
}
