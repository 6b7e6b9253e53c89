//! The run loop: repeats whole cells until the time budget is spent, then
//! reports medians.

use std::time::{Duration, Instant};

use cdp_sim::{EngineCounters, RunStats, Simulator};
use cdp_types::CdpError;

use crate::check;
use crate::layers::{self, ratio, Traced};
use crate::metrics::{median, peak_rss_mib, Metrics, END_TO_END, PER_LAYER, ZOO_LAYER};
use crate::plan::{self, Size, WorkloadId};
use crate::zoo;

/// Repetitions every run makes, however short its time budget.
pub(crate) const MIN_REPS: usize = 3;

/// Wall time after which a run stops repeating even below [`MIN_REPS`],
/// so one run always ends well within three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub id: WorkloadId,
    /// Cell size.
    pub size: Size,
    /// Workload seed.
    pub seed: u64,
    /// Time budget for the repeated measurements.
    pub seconds: f64,
    /// Traced (per-layer) run instead of an end-to-end one.
    pub trace: bool,
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Operations attempted: simulated cells, store writes, store reads.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The metrics of this run's mode.
    pub metrics: Metrics,
    /// Digest of the simulated counters.
    pub digest: u64,
}

impl Report {
    fn new(id: WorkloadId, trace: bool) -> Report {
        let table = match (trace, id) {
            (false, _) => END_TO_END.to_vec(),
            (true, WorkloadId::ZooSweep) => [PER_LAYER, ZOO_LAYER].concat(),
            (true, _) => PER_LAYER.to_vec(),
        };
        Report {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Metrics::new(&table),
            digest: 0,
        }
    }

    /// Counts one operation and its outcome.
    pub fn op(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.problems.push(format!("{label}: {e}"));
        }
    }

    /// Records a run-level check that is not an operation of its own.
    pub fn check(&mut self, label: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.problems.push(format!("{label}: {e}"));
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// Repeats `rep` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran (or [`HARD_STOP`] passed). Returns the peak resident
/// memory (MiB) at the end of the first repetition: later repetitions only
/// add allocator noise to the process-lifetime peak.
pub(crate) fn repeat(seconds: f64, mut rep: impl FnMut()) -> f64 {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    rep();
    let peak = peak_rss_mib();
    let mut reps = 1;
    loop {
        let spent = start.elapsed();
        if (spent >= budget && reps >= MIN_REPS) || spent >= HARD_STOP {
            return peak;
        }
        rep();
        reps += 1;
    }
}

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `opts` and checks its outputs.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new(opts.id, opts.trace);
    match opts.id {
        WorkloadId::ZooSweep => zoo::run(opts, &mut report),
        _ => single(opts, &mut report),
    }
    if opts.seed == check::DEFAULT_SEED && opts.size == Size::Bench {
        let golden = check::golden(opts.id);
        report.check(
            "golden digest",
            match golden {
                Some(g) if g == report.digest => Ok(()),
                Some(g) => Err(format!("digest {:016x} != golden {g:016x}", report.digest)),
                None => Err("no golden digest recorded".into()),
            },
        );
    }
    report
}

/// Steps a fresh session over `w` to completion: the session's set-up
/// seconds, the host seconds of each `step` (warm-up, then one per
/// 64 Ki-uop window), and the statistics.
fn simulate(
    sim: &Simulator,
    w: &cdp_workloads::Workload,
) -> (f64, Vec<f64>, Result<RunStats, CdpError>) {
    let t = Instant::now();
    let mut session = sim.session(w, None);
    let session_s = secs(t);
    let mut steps = Vec::new();
    let done = loop {
        let t = Instant::now();
        let step = session.step();
        steps.push(secs(t));
        match step {
            Ok(true) => break Ok(()),
            Ok(false) => {}
            Err(e) => break Err(e),
        }
    };
    let stats = done.map(|()| session.finish().0);
    (session_s, steps, stats)
}

/// Lowers each of `best`'s entries to the matching entry of `times`
/// (taking all of `times` on the first call).
fn fold_min(best: &mut Vec<f64>, times: &[f64]) {
    if best.len() != times.len() {
        *best = times.to_vec();
    }
    for (b, t) in best.iter_mut().zip(times) {
        *b = b.min(*t);
    }
}

/// The item with the smallest `key`.
pub(crate) fn fastest<T>(items: &[T], key: impl Fn(&T) -> f64) -> Option<&T> {
    items.iter().min_by(|a, b| key(a).total_cmp(&key(b)))
}

/// One-cell workloads (`chase_cdp`, `compute_base`): each repetition
/// builds the workload, opens a session and steps it to completion; a
/// traced run adds a pass through the timing adapters on the same build.
///
/// Host noise on a shared machine only ever adds time, so throughput is
/// taken from the fastest host time of each session window across the
/// repetitions, and the per-layer split from the fastest traced
/// repetition. Set-up times are medians.
fn single(opts: &Options, report: &mut Report) {
    let cell = plan::cells(opts.id, opts.size).remove(0);
    let sim = Simulator::new(cell.cfg.clone());
    let retire_width = cell.cfg.core.retire_width as u64;
    let mut trace_len = None;
    let mut first: Option<RunStats> = None;
    let (mut setup, mut build, mut session_new, mut fingerprint) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut window_min, mut plain_step) = (Vec::new(), Vec::new());
    let mut traced: Vec<Traced> = Vec::new();
    let peak_mib = repeat(opts.seconds, || {
        let t = Instant::now();
        let w = plan::build(opts.id, opts.size, cell.bench, opts.seed);
        let build_s = secs(t);
        let (session_s, steps, stats) = simulate(&sim, &w);
        let len = *trace_len.get_or_insert_with(|| check::trace_len(&w));
        let stats = match stats {
            Ok(s) => s,
            Err(e) => return report.op(&cell.label, Err(e.to_string())),
        };
        let reference = *first.get_or_insert(stats);
        report.op(
            &cell.label,
            check::identities(&stats)
                .and_then(|()| {
                    check::all_retired_within(len, cell.cfg.warmup_uops, retire_width, &stats)
                })
                .and_then(|()| check::same_stats(&reference, &stats)),
        );
        build.push(build_s);
        session_new.push(session_s);
        setup.push(build_s + session_s);
        fold_min(&mut window_min, &steps);
        plain_step.push(steps.iter().sum::<f64>());
        if opts.trace {
            let t = Instant::now();
            std::hint::black_box(sim.snapshot_fingerprint(&w, None));
            fingerprint.push(secs(t));
            let label = format!("{} (traced)", cell.label);
            match layers::run_traced(&cell.cfg, &w) {
                Ok(tr) => {
                    report.op(
                        &label,
                        check::identities(&tr.stats)
                            .and_then(|()| check::all_retired(len, tr.warm_retired, &tr.stats))
                            .and_then(|()| check::same_stats(&stats, &tr.stats)),
                    );
                    traced.push(tr);
                }
                Err(e) => report.op(&label, Err(e.to_string())),
            }
        }
    });
    let (Some(stats), Some(len)) = (first, trace_len) else {
        return;
    };
    report.digest = check::digest([&stats]);
    let m = &mut report.metrics;
    if !opts.trace {
        m.set(
            "muops_per_s",
            ratio(len as f64, window_min.iter().sum::<f64>()) / 1e6,
        );
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mib", peak_mib);
        m.set("sim_ipc", stats.ipc());
        return;
    }
    m.set("workloads.build_s", median(&build));
    m.set("sim.session_new_ms", median(&session_new) * 1e3);
    m.set("sim.fingerprint_ms", median(&fingerprint) * 1e3);
    let Some(best) = fastest(&traced, |t| t.step_ns as f64) else {
        return;
    };
    let plain = plain_step.iter().copied().fold(f64::INFINITY, f64::min);
    m.set(
        "trace.overhead_frac",
        best.step_ns as f64 / 1e9 / plain - 1.0,
    );
    layer_metrics(m, best, len);
    if let Some(c) = &cell.cfg.prefetchers.content {
        let w = plan::build(opts.id, opts.size, cell.bench, opts.seed);
        let scan_ns = layers::scan_fill_ns(c, &[&w], opts.seed, 200);
        scan_metrics(m, scan_ns, layers::scans(&stats), best.step_ns as f64);
    }
}

/// Sets the content-scan estimate from a `scan_fill` timing.
pub(crate) fn scan_metrics(m: &mut Metrics, scan_ns: f64, scans: u64, step_ns: f64) {
    m.set("prefetch.scan_fill_ns", scan_ns);
    m.set(
        "prefetch.scan_share_est",
        ratio(scans as f64 * scan_ns, step_ns),
    );
}

/// Sets the core, hierarchy, feed, memory and prefetch metrics from one
/// traced repetition of a cell (or of a whole grid, summed) that
/// simulated `uops` uops.
pub(crate) fn layer_metrics(m: &mut Metrics, t: &Traced, uops: u64) {
    let uops = uops as f64;
    let step = t.step_ns as f64;
    m.set("workloads.feed_ns_per_uop", ratio(t.feed.ns as f64, uops));
    m.set("workloads.feed_share", ratio(t.feed.ns as f64, step));
    m.set("core.self_ns_per_uop", ratio(t.core_ns() as f64, uops));
    m.set("core.share", ratio(t.core_ns() as f64, step));
    m.set("hierarchy.access_calls", t.access().calls);
    m.set("hierarchy.access_ns", t.access().mean_ns());
    m.set("hierarchy.l1hit_ns", t.l1_hit.mean_ns());
    m.set("hierarchy.l1miss_ns", t.l1_miss.mean_ns());
    m.set("hierarchy.share", ratio(t.access().ns as f64, step));
    sim_metrics(m, &t.stats, t.total_cycles);
}

/// Sets `prefetch.<name>.{issued,accuracy,wasted}` from engine `name`'s
/// counters.
pub(crate) fn engine_metrics(m: &mut Metrics, name: &str, c: EngineCounters) {
    m.set(&format!("prefetch.{name}.issued"), c.issued);
    m.set(&format!("prefetch.{name}.accuracy"), c.accuracy());
    m.set(&format!("prefetch.{name}.wasted"), c.wasted());
}

/// Sets the simulated core, memory and prefetch metrics of `s`, whose
/// whole run (warm-up included) took `total_cycles`.
fn sim_metrics(m: &mut Metrics, s: &RunStats, total_cycles: u64) {
    let per_kuop = |n: u64| ratio(n as f64 * 1000.0, s.retired as f64);
    let mem = &s.mem;
    m.set("core.mispredicts_per_kuop", per_kuop(s.core.mispredicts));
    m.set("core.rob_occupancy_avg", s.core.avg_rob_occupancy());
    m.set(
        "core.forwarded_loads_per_kuop",
        per_kuop(s.core.forwarded_loads),
    );
    m.set(
        "mem.l1_hit_ratio",
        ratio(mem.l1_hits as f64, mem.accesses as f64),
    );
    m.set("mem.l2_mptu", s.mptu());
    m.set("mem.l2_miss_merged", mem.l2_miss_merged);
    m.set(
        "mem.dtlb_miss_ratio",
        ratio(
            mem.dtlb_misses as f64,
            (mem.dtlb_hits + mem.dtlb_misses) as f64,
        ),
    );
    m.set("mem.prefetch_walks", mem.prefetch_walks);
    m.set("mem.bus_transfers", s.bus.transfers);
    m.set(
        "mem.bus_busy_frac",
        layers::bus_busy_frac(&s.bus, total_cycles),
    );
    m.set("mem.bus_queue_waits", s.bus.queue_waits);
    let content = s.content.unwrap_or_default();
    m.set("prefetch.content.fills_scanned", content.fills_scanned);
    m.set("prefetch.content.rescans", content.rescans);
    m.set(
        "prefetch.content.candidates_per_scan",
        ratio(content.candidates as f64, content.fills_scanned as f64),
    );
    for (name, c) in [("stride", mem.stride), ("content", mem.content)] {
        engine_metrics(m, name, c);
    }
    let d = &mem.drops;
    m.set("prefetch.drops.resident", d.resident);
    m.set("prefetch.drops.in_flight", d.in_flight);
    m.set("prefetch.drops.unmapped", d.unmapped);
    m.set("prefetch.drops.queue_full", d.queue_full);
    m.set("prefetch.drops.too_deep", d.too_deep);
}
