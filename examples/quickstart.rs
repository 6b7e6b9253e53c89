//! Quickstart: run one pointer-intensive workload on the stride baseline
//! and on the content-prefetcher-enhanced system, and print the speedup.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cdp::sim::{speedup, RunLength, Simulator};
use cdp::types::SystemConfig;
use cdp::workloads::suite::Benchmark;

fn main() {
    // 1. Build a workload: a synthetic stand-in for the paper's
    //    specjbb-vsnet trace — linked lists, a tree, and a hash table
    //    written byte-for-byte into a simulated address space, plus a
    //    dependency-annotated uop trace that traverses them.
    let scale = RunLength::Quick.scale();
    let workload = Benchmark::SpecjbbVsnet.build(scale, 42);
    println!(
        "workload: {} ({} uops, {} pages mapped)",
        workload.name,
        workload.program.len(),
        workload.space.mapped_pages()
    );

    // 2. The baseline: the paper's Table 1 machine with its stride
    //    prefetcher (every speedup in the paper is measured against this).
    let mut base_cfg = SystemConfig::asplos2002();
    base_cfg.warmup_uops = (scale.target_uops / 6) as u64;
    let base = Simulator::new(base_cfg.clone()).run(&workload);
    println!(
        "baseline : {:>12} cycles  ipc {:.3}  L2 MPTU {:.2}",
        base.cycles,
        base.ipc(),
        base.mptu()
    );

    // 3. The same machine plus the content-directed data prefetcher in its
    //    tuned configuration (8.4.1.2 VAM, depth 3, reinforcement, p0.n3).
    let mut cdp_cfg = SystemConfig::with_content();
    cdp_cfg.warmup_uops = base_cfg.warmup_uops;
    let cdp = Simulator::new(cdp_cfg).run(&workload);
    println!(
        "with CDP : {:>12} cycles  ipc {:.3}  L2 MPTU {:.2}",
        cdp.cycles,
        cdp.ipc(),
        cdp.mptu()
    );

    // 4. Outcome.
    let s = speedup(&base, &cdp);
    println!("\nspeedup: {s:.3} ({:+.1}%)", (s - 1.0) * 100.0);
    println!(
        "content prefetches issued {}, useful {} (accuracy {:.0}%)",
        cdp.mem.content.issued,
        cdp.mem.content.useful(),
        cdp.mem.content.accuracy() * 100.0
    );
    let f = cdp.mem.distribution().fractions();
    println!(
        "UL2 demand classification: stride-full {:.0}%  stride-part {:.0}%  cpf-full {:.0}%  cpf-part {:.0}%  miss {:.0}%",
        f[0] * 100.0, f[1] * 100.0, f[2] * 100.0, f[3] * 100.0, f[4] * 100.0
    );
}
