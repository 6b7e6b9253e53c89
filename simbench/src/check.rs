//! Correctness checks on simulated outputs. None of them reads a host
//! timing, a path or a pid, so every check holds on any seed and any
//! machine.

use cdp_sim::{EngineCounters, RunStats};
use cdp_workloads::Workload;

use crate::plan::WorkloadId;

/// The seed the golden digests in `golden.txt` were taken at.
pub const DEFAULT_SEED: u64 = 42;

/// The integer simulated counters of a run, by name. The digest and the
/// repeat checks compare exactly these.
pub(crate) fn counters(s: &RunStats) -> Vec<(String, u64)> {
    let m = &s.mem;
    let mut out: Vec<(String, u64)> = vec![
        ("cycles".into(), s.cycles),
        ("retired".into(), s.retired),
        ("core.loads".into(), s.core.loads),
        ("core.stores".into(), s.core.stores),
        ("core.branches".into(), s.core.branches),
        ("core.mispredicts".into(), s.core.mispredicts),
        (
            "core.redirect_stall_cycles".into(),
            s.core.redirect_stall_cycles,
        ),
        ("core.forwarded_loads".into(), s.core.forwarded_loads),
        (
            "core.rob_occupancy_cycles".into(),
            s.core.rob_occupancy_cycles,
        ),
        ("mem.accesses".into(), m.accesses),
        ("mem.l1_hits".into(), m.l1_hits),
        ("mem.l1_misses".into(), m.l1_misses),
        ("mem.l2_demand_accesses".into(), m.l2_demand_accesses),
        ("mem.l2_demand_hits".into(), m.l2_demand_hits),
        ("mem.l2_miss_merged".into(), m.l2_miss_merged),
        ("mem.l2_demand_misses".into(), m.l2_demand_misses),
        ("mem.dtlb_hits".into(), m.dtlb_hits),
        ("mem.dtlb_misses".into(), m.dtlb_misses),
        ("mem.prefetch_walks".into(), m.prefetch_walks),
        ("mem.prefetch_tlb_hits".into(), m.prefetch_tlb_hits),
        ("mem.rescans".into(), m.rescans),
        ("mem.depth_promotions".into(), m.depth_promotions),
        ("mem.writebacks".into(), m.writebacks),
        ("drops.resident".into(), m.drops.resident),
        ("drops.in_flight".into(), m.drops.in_flight),
        ("drops.unmapped".into(), m.drops.unmapped),
        ("drops.queue_full".into(), m.drops.queue_full),
        ("drops.too_deep".into(), m.drops.too_deep),
        ("bus.transfers".into(), s.bus.transfers),
        ("bus.demand_transfers".into(), s.bus.demand_transfers),
        ("bus.busy_cycles".into(), s.bus.busy_cycles),
        ("bus.queue_waits".into(), s.bus.queue_waits),
    ];
    for (name, c) in engines(s) {
        out.push((format!("{name}.issued"), c.issued));
        out.push((format!("{name}.useful_full"), c.useful_full));
        out.push((format!("{name}.useful_partial"), c.useful_partial));
        out.push((format!("{name}.wasted_evictions"), c.wasted_evictions));
    }
    let c = s.content.unwrap_or_default();
    out.push(("content.fills_scanned".into(), c.fills_scanned));
    out.push(("content.rescans".into(), c.rescans));
    out.push(("content.candidates".into(), c.candidates));
    out.push(("content.emitted".into(), c.emitted));
    let p = s.perceptron.unwrap_or_default();
    out.push(("perceptron.considered".into(), p.considered));
    out.push(("perceptron.rejected".into(), p.rejected));
    out
}

/// The per-engine prefetch counters, by engine name.
pub(crate) fn engines(s: &RunStats) -> [(&'static str, EngineCounters); 5] {
    let m = &s.mem;
    [
        ("stride", m.stride),
        ("content", m.content),
        ("markov", m.markov),
        ("delta", m.delta),
        ("jump", m.jump),
    ]
}

/// FNV-1a over the counters of every run, in order.
pub(crate) fn digest<'a>(runs: impl IntoIterator<Item = &'a RunStats>) -> u64 {
    let mut h = cdp_snap::Fnv1a::new();
    for s in runs {
        for (name, v) in counters(s) {
            h.write(name.as_bytes());
            h.write_u64(v);
        }
    }
    h.finish()
}

/// The golden digest of `id` at [`DEFAULT_SEED`], from `golden.txt`.
pub(crate) fn golden(id: WorkloadId) -> Option<u64> {
    include_str!("../golden.txt").lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == id.name())
            .then(|| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// The conservation identities every run must satisfy.
pub(crate) fn identities(s: &RunStats) -> Result<(), String> {
    let m = &s.mem;
    if m.l1_hits + m.l1_misses != m.accesses {
        return Err(format!(
            "l1_hits {} + l1_misses {} != accesses {}",
            m.l1_hits, m.l1_misses, m.accesses
        ));
    }
    if m.l2_demand_hits + m.l2_miss_merged + m.l2_demand_misses != m.l2_demand_accesses {
        return Err(format!(
            "l2_demand_hits {} + l2_miss_merged {} + l2_demand_misses {} != l2_demand_accesses {}",
            m.l2_demand_hits, m.l2_miss_merged, m.l2_demand_misses, m.l2_demand_accesses
        ));
    }
    Ok(())
}

/// Every uop of a `trace_len`-uop trace retired: the warm-up's retired
/// count plus the measured window's equals the trace length.
pub(crate) fn all_retired(trace_len: u64, warm_retired: u64, s: &RunStats) -> Result<(), String> {
    if warm_retired + s.retired != trace_len {
        return Err(format!(
            "warm-up {warm_retired} + measured {} uops retired != trace length {trace_len}",
            s.retired
        ));
    }
    Ok(())
}

/// [`all_retired`] for a run whose exact warm-up count is not visible
/// (a `SimSession` drives it): the warm-up retires at least its target
/// and overshoots by less than the retire width.
pub(crate) fn all_retired_within(
    trace_len: u64,
    warmup_target: u64,
    retire_width: u64,
    s: &RunStats,
) -> Result<(), String> {
    let warm = trace_len.checked_sub(s.retired);
    match warm {
        Some(w) if w >= warmup_target && w < warmup_target + retire_width.max(1) => Ok(()),
        _ => Err(format!(
            "measured {} of {trace_len} uops retired; the warm-up target was {warmup_target}",
            s.retired
        )),
    }
}

/// Equal runs, field by field; the error names every differing field.
pub fn same_stats(a: &RunStats, b: &RunStats) -> Result<(), String> {
    let fields = |s: &RunStats| {
        [
            ("cycles", format!("{:?}", s.cycles)),
            ("retired", format!("{:?}", s.retired)),
            ("core", format!("{:?}", s.core)),
            ("mem", format!("{:?}", s.mem)),
            ("content", format!("{:?}", s.content)),
            ("stride", format!("{:?}", s.stride)),
            ("markov", format!("{:?}", s.markov)),
            ("stream", format!("{:?}", s.stream)),
            ("adaptive", format!("{:?}", s.adaptive)),
            ("delta", format!("{:?}", s.delta)),
            ("jump", format!("{:?}", s.jump)),
            ("perceptron", format!("{:?}", s.perceptron)),
            ("bus", format!("{:?}", s.bus)),
        ]
    };
    let differ: Vec<&str> = fields(a)
        .iter()
        .zip(fields(b).iter())
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, _)| x.0)
        .collect();
    if differ.is_empty() {
        Ok(())
    } else {
        Err(format!("runs differ in {}", differ.join(", ")))
    }
}

/// The number of uops in `w`'s trace. A streamed trace is generated once
/// more from a fresh source and counted.
pub(crate) fn trace_len(w: &Workload) -> u64 {
    match &w.stream {
        None => w.program.len() as u64,
        Some(spec) => {
            let mut source = spec.make_source();
            let mut chunk = std::collections::VecDeque::new();
            let mut n = 0u64;
            loop {
                chunk.clear();
                let got = source.fill(&mut chunk);
                if got == 0 {
                    return n;
                }
                n += got as u64;
            }
        }
    }
}
