//! Figure 1: non-cumulative MPTU trace on a 4 MB UL2 — the warm-up
//! methodology of §2.2.
//!
//! The paper runs one benchmark from each of the six suites, samples the
//! L2 miss rate in retired-uop windows, and picks the statistics-start
//! point where the cold-start transient has died out.

use cdp_sim::Simulator;
use cdp_types::{ObsConfig, SystemConfig};
use cdp_workloads::suite::Benchmark;

use crate::common::{ExpScale, WorkloadSet};

/// One benchmark's MPTU-over-time series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Benchmark name.
    pub name: String,
    /// Non-cumulative MPTU per window.
    pub samples: Vec<f64>,
}

/// The Figure 1 traces plus the derived warm-up recommendation.
#[derive(Clone, Debug)]
pub struct Figure1 {
    /// Retired-uop window width.
    pub window_uops: u64,
    /// One series per suite representative.
    pub series: Vec<Series>,
    /// First window index at which every series is within 2x of its
    /// steady-state mean (the "statistics may start here" point).
    pub steady_window: usize,
}

impl Figure1 {
    /// Renders the series as columns.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 1: non-cumulative MPTU trace, 4-MB UL2 (window = {} uops)\n\n",
            self.window_uops
        );
        let max_len = self.series.iter().map(|s| s.samples.len()).max().unwrap_or(0);
        out.push_str("window");
        for s in &self.series {
            out.push_str(&format!("  {:>13}", s.name));
        }
        out.push('\n');
        for w in 0..max_len {
            out.push_str(&format!("{w:>6}"));
            for s in &self.series {
                match s.samples.get(w) {
                    Some(v) => out.push_str(&format!("  {v:>13.2}")),
                    None => out.push_str(&format!("  {:>13}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "\ntransient dies out by window {} -> warm up for ~{} uops before collecting statistics\n",
            self.steady_window,
            self.steady_window as u64 * self.window_uops
        ));
        out
    }
}

/// Runs the six suite representatives on a 4 MB UL2 and samples windowed
/// MPTU.
pub fn run(scale: ExpScale) -> Figure1 {
    let s = scale.scale();
    let window = (s.target_uops as u64 / 24).max(500);
    let mut cfg = SystemConfig::asplos2002();
    cfg.ul2.size_bytes = 4 * 1024 * 1024; // the paper's Figure 1 uses 4 MB

    // No warm-up: the session's windows start at uop 0, so window `i`
    // covers retired uops `[i * window, (i + 1) * window)`.
    debug_assert_eq!(cfg.warmup_uops, 0);
    let obs = ObsConfig {
        metrics_window: Some(window),
        ..ObsConfig::default()
    };
    let mut series = Vec::new();
    let ws = WorkloadSet::default();
    for b in Benchmark::figure1_set() {
        let w = ws.get(b, s);
        let sim = Simulator::new(cfg.clone());
        let mut session = sim.session(&w, Some(&obs));
        while !session
            .step()
            .unwrap_or_else(|e| panic!("{}: {e}", b.name()))
        {}
        // Per-window misses over the nominal window width (Figure 1's
        // non-cumulative MPTU); the last window may retire fewer uops.
        let samples = session
            .finish()
            .1
            .windows
            .iter()
            .map(|win| win.l2_demand_misses as f64 * 1000.0 / window as f64)
            .collect();
        series.push(Series {
            name: b.name().to_string(),
            samples,
        });
    }
    // Steady point: first window from which every series stays within 2x
    // of the mean of its second half.
    let mut steady = 0usize;
    for s in &series {
        if s.samples.len() < 4 {
            continue;
        }
        let tail = &s.samples[s.samples.len() / 2..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        let bound = (2.0 * mean).max(mean + 1.0);
        let mut first_ok = 0;
        for (i, &v) in s.samples.iter().enumerate() {
            if v > bound {
                first_ok = i + 1;
            }
        }
        steady = steady.max(first_ok.min(s.samples.len().saturating_sub(1)));
    }
    Figure1 {
        window_uops: window,
        series,
        steady_window: steady,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_series_with_cold_start_transient() {
        let f = run(ExpScale::Smoke);
        assert_eq!(f.series.len(), 6);
        // At least one pointer-heavy series must show a cold-start spike:
        // first window above its tail mean.
        let spiky = f.series.iter().filter(|s| {
            let tail = &s.samples[s.samples.len() / 2..];
            let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
            s.samples.first().copied().unwrap_or(0.0) > mean
        });
        assert!(spiky.count() >= 3, "cold caches must show higher MPTU");
        assert!(f.render().contains("Figure 1"));
    }
}
