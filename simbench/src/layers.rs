//! Outside-in layer timing: adapters around the program's public seams
//! and a driver that steps a core through them.
//!
//! Nothing here reaches inside a crate. [`Core::run_until_retired`] is
//! generic over [`MemoryModel`] and [`Core::new_streaming`] takes any
//! [`UopSource`], so wrapping the [`Hierarchy`] and the stream source in
//! timing adapters splits stepping time into hierarchy, uop feed and core
//! self time while leaving every simulated statistic unchanged.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cdp_core::{Core, MemoryModel, Uop, UopSource};
use cdp_mem::BusStats;
use cdp_prefetch::{ContentPrefetcher, ContentStats};
use cdp_sim::{Hierarchy, RunStats};
use cdp_types::rng::Rng;
use cdp_types::{AccessKind, CdpError, ContentConfig, SystemConfig, VirtAddr};
use cdp_workloads::Workload;

/// Retired uops between fault-latch checks, as in `SimSession::step`.
/// Window boundaries change no simulated state.
const WINDOW: u64 = 65_536;

/// Host time and call count of one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Summed host nanoseconds.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    /// Adds another span's totals.
    pub fn merge(&mut self, other: &Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`MemoryModel`] timing every access into the wrapped hierarchy,
/// split by whether the access returned at L1 latency.
struct TimedMem<'h, 'w> {
    inner: &'h mut Hierarchy<'w>,
    l1_latency: u64,
    l1_hit: Span,
    l1_miss: Span,
}

impl MemoryModel for TimedMem<'_, '_> {
    fn access(&mut self, pc: u32, vaddr: VirtAddr, kind: AccessKind, now: u64) -> u64 {
        let t = Instant::now();
        let done = self.inner.access(pc, vaddr, kind, now);
        let ns = ns_since(t);
        if done - now == self.l1_latency {
            self.l1_hit.add(ns);
        } else {
            self.l1_miss.add(ns);
        }
        done
    }
}

/// Feed time shared between a [`TimedSource`] (owned by the core) and
/// the driver that reads it afterwards.
#[derive(Debug, Default)]
struct FeedClock {
    ns: AtomicU64,
    fills: AtomicU64,
}

/// A [`UopSource`] timing every chunk generation of the wrapped source.
#[derive(Debug)]
struct TimedSource {
    inner: Box<dyn UopSource>,
    clock: Arc<FeedClock>,
}

impl UopSource for TimedSource {
    fn fill(&mut self, out: &mut VecDeque<Uop>) -> usize {
        let t = Instant::now();
        let n = self.inner.fill(out);
        self.clock.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.clock.fills.fetch_add(1, Ordering::Relaxed);
        n
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn box_clone(&self) -> Box<dyn UopSource> {
        Box::new(TimedSource {
            inner: self.inner.box_clone(),
            clock: Arc::clone(&self.clock),
        })
    }

    fn save_cursor(&self, enc: &mut cdp_snap::Enc) {
        self.inner.save_cursor(enc);
    }

    fn restore_cursor(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.inner.restore_cursor(dec)
    }
}

/// One cell run through the timing adapters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traced {
    /// Measured-window statistics, assembled as `SimSession::finish` does.
    pub stats: RunStats,
    /// Uops retired by the warm-up phase (it may overshoot its target).
    pub warm_retired: u64,
    /// Simulated cycles of the whole run, warm-up included.
    pub total_cycles: u64,
    /// Host nanoseconds spent stepping the core, warm-up included.
    pub step_ns: u64,
    /// Hierarchy accesses that returned at L1 latency.
    pub l1_hit: Span,
    /// Every other hierarchy access.
    pub l1_miss: Span,
    /// Streamed uop generation (zero for materialized programs).
    pub feed: Span,
}

impl Traced {
    /// Every hierarchy access.
    pub fn access(&self) -> Span {
        let mut s = self.l1_hit;
        s.merge(&self.l1_miss);
        s
    }

    /// Stepping time spent in neither the hierarchy nor the uop feed.
    pub fn core_ns(&self) -> u64 {
        self.step_ns
            .saturating_sub(self.access().ns)
            .saturating_sub(self.feed.ns)
    }
}

/// Runs `w` under `cfg` through the timing adapters, with the same
/// warm-up and windowing as `Simulator::try_run`.
///
/// # Errors
///
/// The first [`CdpError`] latched by the hierarchy.
pub fn run_traced(cfg: &SystemConfig, w: &Workload) -> Result<Traced, CdpError> {
    let mut hierarchy = Hierarchy::new(cfg.clone(), &w.space);
    let clock = Arc::new(FeedClock::default());
    let mut core = match &w.stream {
        Some(spec) => Core::new_streaming(
            cfg.core.clone(),
            Box::new(TimedSource {
                inner: spec.make_source(),
                clock: Arc::clone(&clock),
            }),
        ),
        None => Core::new(cfg.core.clone(), &w.program),
    };
    let mut mem = TimedMem {
        inner: &mut hierarchy,
        l1_latency: cfg.l1d.latency,
        l1_hit: Span::default(),
        l1_miss: Span::default(),
    };
    let t = Instant::now();
    let mut target = cfg.warmup_uops;
    let mut warm_retired = 0;
    if target > 0 {
        core.run_until_retired(&mut mem, target);
        if let Some(e) = mem.inner.take_fault() {
            return Err(e);
        }
        warm_retired = core.stats().retired;
        core.reset_stats();
        mem.inner.reset_stats();
    }
    loop {
        target += WINDOW;
        let done = core.run_until_retired(&mut mem, target);
        if let Some(e) = mem.inner.take_fault() {
            return Err(e);
        }
        if done {
            break;
        }
    }
    let step_ns = ns_since(t);
    let (l1_hit, l1_miss) = (mem.l1_hit, mem.l1_miss);
    let cs = core.stats();
    let h = &hierarchy;
    Ok(Traced {
        stats: RunStats {
            cycles: cs.cycles,
            retired: cs.retired,
            core: cs,
            mem: *h.stats(),
            content: h.content_stats(),
            stride: h.stride_stats(),
            markov: h.markov_stats(),
            stream: h.stream_stats(),
            adaptive: h.adaptive_state(),
            delta: h.delta_stats(),
            jump: h.jump_stats(),
            perceptron: h.perceptron_stats(),
            bus: h.bus_stats(),
        },
        warm_retired,
        total_cycles: core.now(),
        step_ns,
        l1_hit,
        l1_miss,
        feed: Span {
            ns: clock.ns.load(Ordering::Relaxed),
            calls: clock.fills.load(Ordering::Relaxed),
        },
    })
}

/// Mean host nanoseconds of one [`ContentPrefetcher::scan_fill`] under
/// `cfg`, over lines drawn (seeded) from the workloads' own memory images
/// via `AddressSpace::read_line`. Scans repeat until `budget_ms` passes.
pub fn scan_fill_ns(cfg: &ContentConfig, images: &[&Workload], seed: u64, budget_ms: u64) -> f64 {
    const LINES_PER_IMAGE: usize = 1024;
    let mut rng = Rng::seed_from_u64(seed);
    let mut lines = Vec::new();
    for w in images {
        let pages = w.space.mapped_page_numbers();
        if pages.is_empty() {
            continue;
        }
        for _ in 0..LINES_PER_IMAGE {
            let page = pages[rng.gen_range_usize(0..pages.len())];
            let ea = VirtAddr(page.base().0 + 64 * rng.gen_range_u32(0..64));
            lines.push((ea, w.space.read_line(ea)));
        }
    }
    if lines.is_empty() {
        return 0.0;
    }
    let mut cdp = ContentPrefetcher::new(*cfg);
    let mut out = Vec::new();
    let mut scans = 0u64;
    let t = Instant::now();
    while t.elapsed().as_millis() < u128::from(budget_ms) || scans == 0 {
        for (ea, line) in &lines {
            out.clear();
            std::hint::black_box(cdp.scan_fill(*ea, std::hint::black_box(line), 0, &mut out));
        }
        scans += lines.len() as u64;
    }
    ns_since(t) as f64 / scans as f64
}

/// Content-scan work of a run: lines scanned plus reinforcement rescans
/// (engine-internal counters cover the whole run, warm-up included).
pub fn scans(stats: &RunStats) -> u64 {
    stats
        .content
        .map_or(0, |c: ContentStats| c.fills_scanned + c.rescans)
}

/// Fraction of whole-run simulated cycles the bus data path was busy
/// (bus counters cover the whole run, warm-up included).
pub fn bus_busy_frac(bus: &BusStats, total_cycles: u64) -> f64 {
    ratio(bus.busy_cycles as f64, total_cycles as f64)
}
