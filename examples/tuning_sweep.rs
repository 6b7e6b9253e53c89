//! Heuristic tuning in miniature: sweep the virtual-address-matching
//! knobs (compare bits and next-line width) on one pointer workload and
//! print the coverage / accuracy / speedup trade-offs — the method behind
//! the paper's Figures 7–9.
//!
//! ```text
//! cargo run --release --example tuning_sweep
//! ```

use cdp::sim::{accuracy, coverage, speedup, RunLength, Simulator};
use cdp::types::{ContentConfig, EngineId, SystemConfig, VamConfig};
use cdp::workloads::suite::Benchmark;

fn main() {
    let scale = RunLength::Quick.scale();
    let workload = Benchmark::Tpcc2.build(scale, 0x5eed_2002);
    let warmup = (scale.target_uops / 6) as u64;

    let mut base_cfg = SystemConfig::asplos2002();
    base_cfg.warmup_uops = warmup;
    let base = Simulator::new(base_cfg).run(&workload);
    println!(
        "baseline on {}: {} cycles, MPTU {:.2}\n",
        workload.name,
        base.cycles,
        base.mptu()
    );

    println!("compare-bit sweep (filter 4, align 1, step 2, width n3):");
    println!("  N    coverage  accuracy  speedup");
    for n in [8u32, 10, 12, 14] {
        let mut cfg = SystemConfig::with_content();
        cfg.warmup_uops = warmup;
        if let Some(c) = cfg.prefetchers.content.as_mut() {
            c.vam = VamConfig {
                compare_bits: n,
                ..VamConfig::tuned()
            };
        }
        let r = Simulator::new(cfg).run(&workload);
        println!(
            "  {n:<3}  {:>7.1}%  {:>7.1}%  {:>7.3}",
            coverage(&r, &base, EngineId::Content) * 100.0,
            accuracy(&r, EngineId::Content).min(1.0) * 100.0,
            speedup(&base, &r)
        );
    }

    println!("\nnext-line width sweep (VAM 8.4.1.2, depth 3, reinforcement):");
    println!("  n    issued    accuracy  speedup");
    for n in 0..=4u32 {
        let mut cfg = SystemConfig::with_content();
        cfg.warmup_uops = warmup;
        cfg.prefetchers.content = Some(ContentConfig {
            next_lines: n,
            ..ContentConfig::tuned()
        });
        let r = Simulator::new(cfg).run(&workload);
        println!(
            "  {n}  {:>9}  {:>7.1}%  {:>7.3}",
            r.mem.content.issued,
            accuracy(&r, EngineId::Content).min(1.0) * 100.0,
            speedup(&base, &r)
        );
    }
    println!("\n(the paper's tuned point: 8 compare bits, width n3, depth 3, reinforcement)");
}
