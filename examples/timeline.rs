//! Watching a run unfold: per-window statistics (the machinery behind the
//! paper's Figure 1 warm-up methodology), with and without the content
//! prefetcher.
//!
//! ```text
//! cargo run --release --example timeline
//! ```

use cdp::sim::{MetricsWindow, RunLength, Simulator};
use cdp::types::{ObsConfig, SystemConfig};
use cdp::workloads::suite::Benchmark;
use cdp::workloads::Workload;

/// Runs `cfg` over `workload`, recording one [`MetricsWindow`] per
/// `window` retired uops.
fn timeline(cfg: SystemConfig, workload: &Workload, window: u64) -> Vec<MetricsWindow> {
    let obs = ObsConfig {
        metrics_window: Some(window),
        ..ObsConfig::default()
    };
    let sim = Simulator::new(cfg);
    let mut session = sim.session(workload, Some(&obs));
    while !session.step().expect("well-formed workload") {}
    session.finish().1.windows
}

fn main() {
    let workload = Benchmark::Tpcc3.build(RunLength::Quick.scale(), 17);
    println!("{}\n", workload.summary());

    let window = 50_000u64;
    let base = timeline(SystemConfig::asplos2002(), &workload, window);
    let cdp = timeline(SystemConfig::with_content(), &workload, window);

    println!(
        "{:>6}  {:>10} {:>8} {:>8}   {:>10} {:>8} {:>8}  {:>8}",
        "window", "base cyc", "MPTU", "IPC", "cdp cyc", "MPTU", "IPC", "issued"
    );
    for (b, c) in base.iter().zip(&cdp) {
        println!(
            "{:>6}  {:>10} {:>8.2} {:>8.3}   {:>10} {:>8.2} {:>8.3}  {:>8}",
            b.window,
            b.cycles,
            b.mptu(),
            b.ipc(),
            c.cycles,
            c.mptu(),
            c.ipc(),
            c.content_issued
        );
    }

    let base_total: u64 = base.iter().map(|s| s.cycles).sum();
    let cdp_total: u64 = cdp.iter().map(|s| s.cycles).sum();
    println!(
        "\ntotals: baseline {} cycles, with CDP {} cycles -> speedup {:.3}",
        base_total,
        cdp_total,
        base_total as f64 / cdp_total as f64
    );
    println!(
        "note the first window (cold caches) misses hardest in both runs — \
         the §2.2 warm-up rationale."
    );
}
