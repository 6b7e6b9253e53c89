//! The out-of-order execution engine.
//!
//! A cycle-stepped model of the Table 1 machine:
//!
//! * **Fetch/dispatch** — up to `fetch_width` uops per cycle enter the
//!   reorder buffer, provided ROB/load-queue/store-queue entries are free.
//!   Branches are predicted with gshare at fetch; a misprediction stalls
//!   fetch until the branch executes, plus the 28-cycle redirect penalty.
//! * **Issue/execute** — each cycle, the oldest ready uops (all source
//!   registers available) issue, bounded by `issue_width` and by the
//!   integer/memory/FP unit pools (see *Issue by register wakeup* below).
//!   Loads and stores call into the
//!   [`MemoryModel`]; their completion cycle is whatever the memory system
//!   answers, so cache misses, bus contention, and prefetch hits all
//!   surface as dataflow delay. Stores release the pipeline at issue + 1
//!   (they drain from the store buffer) but hold their store-queue entry
//!   until the memory system finishes the line fill, which is how store
//!   misses create back-pressure.
//! * **Retire** — up to `retire_width` completed uops leave the ROB in
//!   program order per cycle.
//!
//! The model skips idle cycles (jumping to the next completion event), so
//! long memory stalls cost simulation time proportional to work, not to
//! stalled cycles.
//!
//! # Issue by register wakeup
//!
//! The issue stage behaves as a scan of every unissued ROB entry, oldest
//! first, that reads each entry's sources from the register scoreboard
//! (`reg_ready`) at the moment it is visited. It never walks the ROB,
//! though. On pointer-chasing traffic the ROB sits full of uops waiting on
//! one load, and rescanning all of them every productive cycle cost more
//! host time than the rest of the core together (PERF.md).
//!
//! * Every unissued entry sets its bit in `readers[r]` for each source
//!   register `r`. The bit is slot `idx & 127` of its program index, so
//!   retiring the head moves no bits; `rotate_right(head slot)` turns a
//!   slot mask into ROB positions. `pending_regs` holds the registers whose
//!   ready cycle may still lie ahead.
//! * A pass visits only `unissued & !(readers of pending registers)`, in
//!   ascending position order, so issue order and `MemoryModel::access`
//!   order are those of the full scan. A write made in the pass drops its
//!   younger readers from the pass, and a zero-latency write re-admits
//!   them. Each visit still checks readiness against the scoreboard, so a
//!   re-admitted entry with another source pending is skipped.
//! * After a pass that reached the end of the ROB without finding a ready
//!   entry blocked on a busy unit, `issue_idle_until` is the earliest
//!   cycle any entry left waiting
//!   can become ready. That is the same value the scan would compute: the
//!   minimum of the pass's own completions and of every waiting entry's
//!   ready cycle as seen at its visit. It is found by walking the pending
//!   registers in ready-cycle order. Entries younger than a pass write to
//!   one of their sources are left out of the walk, because their ready
//!   cycle is at least that write's completion. The others saw the
//!   scoreboard as it stood when the pass began.
//! * `readers` and `pending_regs` are derived state. `restore_state`
//!   rebuilds them from the ROB and the scoreboard, so snapshot bytes are
//!   unchanged.
//!
//! The masks have one bit per ROB entry, so a ROB holds at most
//! [`cdp_types::MAX_ROB_SIZE`] (128) entries.

use cdp_types::{AccessKind, CoreConfig, MAX_ROB_SIZE};

use crate::feed::{Feed, UopSource};
use crate::gshare::Gshare;
use crate::uop::{Program, Uop, UopKind, NUM_REGS};
use crate::MemoryModel;

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Uops retired.
    pub retired: u64,
    /// Load uops executed.
    pub loads: u64,
    /// Store uops executed.
    pub stores: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branches whose gshare prediction was wrong.
    pub mispredicts: u64,
    /// Cycles fetch was stalled on a branch redirect.
    pub redirect_stall_cycles: u64,
    /// Loads satisfied by store-to-load forwarding (no cache access).
    pub forwarded_loads: u64,
    /// Sum over elapsed cycles of ROB occupancy (divide by `cycles` for
    /// the average in-flight window).
    pub rob_occupancy_cycles: u64,
}

impl CoreStats {
    /// Retired uops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Average reorder-buffer occupancy (in-flight window size).
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rob_occupancy_cycles as f64 / self.cycles as f64
        }
    }
}

/// `RobEntry::complete_at` sentinel: the uop has not issued yet.
const NOT_ISSUED: u64 = u64::MAX;
/// `RobEntry::sq_free_at` sentinel: no store-queue entry to free.
const NO_SQ: u64 = u64::MAX;
/// `RobEntry::srcs` sentinel: source slot unused. Indexes the
/// permanently-zero pad slot of `reg_ready`, so the per-entry readiness
/// check is two unconditional loads and a `max` — no branches.
const NO_REG: u8 = NUM_REGS as u8;

/// Uop classes, mirrored from [`UopKind`] so the issue stage never has
/// to chase `program.uops` for entries that cannot issue.
const CLASS_ALU: u8 = 0;
const CLASS_FP: u8 = 1;
const CLASS_LOAD: u8 = 2;
const CLASS_STORE: u8 = 3;
const CLASS_BRANCH: u8 = 4;

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    /// Index into the program.
    idx: u32,
    /// Source registers, copied from the uop at dispatch ([`NO_REG`] =
    /// slot unused), so the issue stage's readiness check reads the ROB
    /// entry and the scoreboard only.
    srcs: [u8; 2],
    /// [`CLASS_ALU`] .. [`CLASS_BRANCH`].
    class: u8,
    /// Completion cycle once issued ([`NOT_ISSUED`] before).
    complete_at: u64,
    /// For stores: cycle the store-queue entry frees (memory completion).
    sq_free_at: u64,
}

/// A resumable instance of the out-of-order core executing one program.
///
/// # Examples
///
/// ```
/// use cdp_core::{Core, FixedLatencyMemory, Program, Uop};
/// use cdp_types::CoreConfig;
///
/// let program: Program = (0..100).map(|i| Uop::alu(i * 4)).collect();
/// let mut core = Core::new(CoreConfig::default(), &program);
/// let mut mem = FixedLatencyMemory { latency: 3 };
/// core.run_to_completion(&mut mem);
/// let stats = core.stats();
/// assert_eq!(stats.retired, 100);
/// // A 3-wide machine retires ~3 independent ALU uops per cycle.
/// assert!(stats.ipc() > 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct Core<'p> {
    cfg: CoreConfig,
    /// Where uops come from: a borrowed whole program, or a streaming
    /// source of which only a sliding window is resident.
    feed: Feed<'p>,
    /// Next uop to fetch.
    fetch_idx: usize,
    /// Fetch is blocked until this cycle (branch redirect).
    fetch_resume_at: u64,
    rob: std::collections::VecDeque<RobEntry>,
    /// Ready cycle per architectural register, plus one permanently-zero
    /// pad slot indexed by [`NO_REG`] sources.
    reg_ready: [u64; NUM_REGS + 1],
    /// Store-queue completion times still occupying entries (min-heap:
    /// expired entries are popped instead of re-scanning every cycle).
    sq_busy: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    /// Loads in flight (LQ occupancy): completion times (min-heap).
    lq_busy: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    bp: Gshare,
    now: u64,
    stats: CoreStats,
    /// Program index of the mispredicted branch fetch is waiting on.
    pending_redirect: Option<usize>,
    /// Recent store addresses eligible for store-to-load forwarding:
    /// (word address, cycle the data is forwardable).
    forward_window: std::collections::VecDeque<(u32, u64)>,
    /// Loads in the ROB that have not issued (incremental mirror of a
    /// full ROB scan — LQ admission check runs per fetched uop).
    rob_loads_unissued: usize,
    /// Stores resident in the ROB (incremental, same reason).
    rob_stores: usize,
    /// ROB entries that have not issued yet.
    rob_unissued: usize,
    /// Bit `p` set ⇔ the ROB entry at position `p` (0 = head) has not
    /// issued. Ascending bit order is oldest-first program order.
    unissued_mask: u128,
    /// Bit `idx & 127` of `readers[r]` set ⇔ the ROB entry for program
    /// index `idx` has not issued and reads register `r`. The pad slot
    /// [`NO_REG`] collects absent sources and is never read. Derived from
    /// the ROB (see the module docs); not serialized.
    readers: [u128; NUM_REGS + 1],
    /// Bit `r` set for every register whose `reg_ready` may lie after
    /// `now`: a superset, pruned at the start of each issue pass. Derived
    /// from the scoreboard; not serialized.
    pending_regs: u64,
    /// Issue-pass scratch: `reg_ready[r]` as it stood before the pass's
    /// first write to `r`. Read only for registers written in the pass.
    pass_start_ready: [u64; NUM_REGS],
    /// Cycle before which an issue pass is provably barren: the last
    /// complete pass left every unissued entry waiting on a source that
    /// becomes ready no earlier than this. Passes while `now` is below it
    /// are skipped outright. `reg_ready` only changes when something
    /// issues (which recomputes this), and newly fetched entries merge
    /// their ready cycle in, so the bound stays exact. 0 = no bound.
    issue_idle_until: u64,
    /// Uops retired since construction (never reset).
    total_retired: u64,
    /// Cycle at which statistics were last reset (warm-up boundary).
    stats_base_cycle: u64,
    /// When false, barren steps advance one cycle at a time instead of
    /// jumping to [`Self::next_event_cycle`]. The observable trajectory
    /// (stats, memory traffic, retirement order) is identical either way
    /// — the skipped cycles are provably barren — so this is a validation
    /// switch, not a semantic one. Deliberately excluded from
    /// [`Self::save_state`]: snapshots taken at the same retirement
    /// boundaries are byte-identical regardless of the setting.
    fast_forward: bool,
    /// ROB stall run-length histogram (`--profile-hist`); `None` keeps
    /// the step loop on its unobserved path (one branch, no work).
    stall_hist: Option<Box<cdp_obs::Hist>>,
    /// Consecutive barren cycles accumulated so far (flushed into
    /// [`Self::stall_hist`] when progress resumes). Fast-forward jumps
    /// only span provably barren cycles, so the accumulated run is
    /// identical whether the core jumps or single-steps.
    stall_run: u64,
}

impl<'p> Core<'p> {
    /// Creates a core ready to execute `program` from its first uop.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rob_size` exceeds [`MAX_ROB_SIZE`]
    /// ([`cdp_types::SystemConfig::validate`] refuses such configurations).
    pub fn new(cfg: CoreConfig, program: &'p Program) -> Self {
        Self::with_feed(cfg, Feed::Whole(program))
    }

    /// Creates a core fed by a streaming uop source instead of a
    /// materialized program. Only a sliding window of uops (the in-flight
    /// span plus one generation chunk) is ever resident.
    ///
    /// # Panics
    ///
    /// As [`Core::new`].
    pub fn new_streaming(cfg: CoreConfig, source: Box<dyn UopSource>) -> Core<'static> {
        Core::with_feed(cfg, Feed::stream(source))
    }

    fn with_feed(cfg: CoreConfig, feed: Feed<'_>) -> Core<'_> {
        assert!(
            cfg.rob_size <= MAX_ROB_SIZE,
            "rob_size {} exceeds the modelled maximum of {MAX_ROB_SIZE}",
            cfg.rob_size
        );
        let bp = Gshare::new(cfg.gshare_log2_entries);
        let rob = std::collections::VecDeque::with_capacity(cfg.rob_size + 1);
        let forward_window = std::collections::VecDeque::with_capacity(cfg.store_buffer + 1);
        Core {
            cfg,
            feed,
            fetch_idx: 0,
            fetch_resume_at: 0,
            rob,
            reg_ready: [0; NUM_REGS + 1],
            sq_busy: std::collections::BinaryHeap::new(),
            lq_busy: std::collections::BinaryHeap::new(),
            bp,
            now: 0,
            stats: CoreStats::default(),
            pending_redirect: None,
            forward_window,
            rob_loads_unissued: 0,
            rob_stores: 0,
            rob_unissued: 0,
            unissued_mask: 0,
            readers: [0; NUM_REGS + 1],
            pending_regs: 0,
            pass_start_ready: [0; NUM_REGS],
            issue_idle_until: 0,
            total_retired: 0,
            stats_base_cycle: 0,
            fast_forward: true,
            stall_hist: None,
            stall_run: 0,
        }
    }

    /// Enables or disables idle-cycle fast-forwarding (on by default).
    /// Disabling it forces the cycle-by-cycle reference schedule; the run
    /// produces bit-identical statistics either way, only slower.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Statistics so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Resets statistics (warm-up boundary, §2.2 of the paper). Cycle
    /// count restarts from zero; in-flight state is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        self.stats_base_cycle = self.now;
    }

    /// Installs a stall run-length histogram: barren (no fetch / issue /
    /// retire) cycle runs are recorded into it as they end. With no
    /// histogram installed the step loop pays one branch and does no
    /// other work.
    pub fn set_stall_hist(&mut self, hist: Box<cdp_obs::Hist>) {
        self.stall_hist = Some(hist);
        self.stall_run = 0;
    }

    /// Removes and returns the stall histogram, if one was installed.
    pub fn take_stall_hist(&mut self) -> Option<Box<cdp_obs::Hist>> {
        self.stall_run = 0;
        self.stall_hist.take()
    }

    /// Clears the stall histogram and any in-progress run (warm-up
    /// boundary: the measured distribution covers the measurement phase
    /// only, matching [`Self::reset_stats`]).
    pub fn reset_stall_hist(&mut self) {
        if let Some(h) = &mut self.stall_hist {
            h.clear();
        }
        self.stall_run = 0;
    }

    /// Whether every uop has been fetched and retired.
    ///
    /// For a streaming feed the program length is learned at the fill
    /// that produces the final uop — before that uop can be fetched — so
    /// this predicate matches the materialized one at every cycle.
    pub fn done(&self) -> bool {
        let fetched_all = match &self.feed {
            Feed::Whole(p) => self.fetch_idx >= p.len(),
            Feed::Stream(s) => matches!(s.total, Some(t) if self.fetch_idx >= t),
        };
        fetched_all && self.rob.is_empty()
    }

    /// Runs until at least `target_retired` uops have retired since
    /// construction, or the program completes. Returns `true` when the
    /// program has completed.
    pub fn run_until_retired<M: MemoryModel>(&mut self, mem: &mut M, target_retired: u64) -> bool {
        while !self.done() && self.total_retired < target_retired {
            self.step(mem);
        }
        self.done()
    }

    /// Runs the whole program to completion.
    pub fn run_to_completion<M: MemoryModel>(&mut self, mem: &mut M) {
        while !self.done() {
            self.step(mem);
        }
    }

    /// Executes one cycle (possibly fast-forwarding over provably idle
    /// cycles).
    pub fn step<M: MemoryModel>(&mut self, mem: &mut M) {
        let progressed = self.retire() | self.issue(mem) | self.fetch();
        if progressed || !self.fast_forward {
            if let Some(hist) = &mut self.stall_hist {
                if progressed {
                    if self.stall_run > 0 {
                        hist.record(self.stall_run);
                        self.stall_run = 0;
                    }
                } else {
                    self.stall_run += 1;
                }
            }
            self.advance_to(self.now + 1);
        } else {
            // Nothing happened: jump to the next event. The skipped
            // cycles are all barren, so they extend the current stall
            // run exactly as single-stepping them would.
            let next = self.next_event_cycle().max(self.now + 1);
            if self.stall_hist.is_some() {
                self.stall_run += next - self.now;
            }
            self.advance_to(next);
        }
    }

    fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle > self.now || (self.done() && cycle >= self.now));
        self.stats.rob_occupancy_cycles +=
            self.rob.len() as u64 * cycle.saturating_sub(self.now);
        self.now = cycle;
        self.stats.cycles = self.now - self.stats_base_cycle;
    }

    fn next_event_cycle(&self) -> u64 {
        // This only runs after a step in which nothing progressed, so the
        // issue stage just completed a complete barren pass (or skipped
        // under a still-valid bound). With the bound in hand, the
        // earliest cycle anything can happen is O(1):
        //   * retire — the ROB head's completion (in-order retirement);
        //   * issue  — `issue_idle_until`, the proven earliest readiness
        //     of any unissued entry;
        //   * fetch  — a load/store-queue entry freeing (heap minima), a
        //     branch redirect resolving, or ROB space freeing (the retire
        //     event above).
        // A zero bound can only mean the barren pass saw a ready entry
        // blocked on a zero-sized unit pool (degenerate configuration):
        // fall back to scanning every in-flight completion.
        if self.issue_idle_until == 0 {
            return self.next_event_cycle_scan();
        }
        let mut next = u64::MAX;
        if let Some(e) = self.rob.front() {
            if e.complete_at != NOT_ISSUED && e.complete_at > self.now {
                next = next.min(e.complete_at);
            }
        }
        if self.issue_idle_until > self.now {
            next = next.min(self.issue_idle_until);
        }
        // Heap minima (entries at or before `now` were pruned at issue).
        // These queue-freeing wakeups (and the redirect below) only feed
        // the fetch admission check, so they could in principle be gated
        // on `fetch_idx < program.len()` — measured, that refinement is
        // statistically indistinguishable on the suite (the post-fetch
        // drain is a negligible slice of any run; see PERF.md), so the
        // simpler ungated form stays.
        for q in [&self.sq_busy, &self.lq_busy] {
            if let Some(&std::cmp::Reverse(c)) = q.peek() {
                if c > self.now {
                    next = next.min(c);
                }
            }
        }
        if self.fetch_resume_at > self.now {
            next = next.min(self.fetch_resume_at);
        }
        if next == u64::MAX {
            self.now + 1
        } else {
            next
        }
    }

    /// Full-scan fallback for [`Self::next_event_cycle`]. Register ready
    /// times need no separate scan even here: every future `reg_ready`
    /// value was written as the completion cycle of an issued entry that
    /// cannot have retired yet (retirement requires completion), so the
    /// ROB walk already covers it.
    fn next_event_cycle_scan(&self) -> u64 {
        let mut next = u64::MAX;
        for e in &self.rob {
            if e.complete_at != NOT_ISSUED && e.complete_at > self.now {
                next = next.min(e.complete_at);
            }
        }
        for q in [&self.sq_busy, &self.lq_busy] {
            if let Some(&std::cmp::Reverse(c)) = q.peek() {
                if c > self.now {
                    next = next.min(c);
                }
            }
        }
        if self.fetch_resume_at > self.now {
            next = next.min(self.fetch_resume_at);
        }
        if next == u64::MAX {
            self.now + 1
        } else {
            next
        }
    }

    /// Retire stage. Returns true if anything retired.
    fn retire(&mut self) -> bool {
        let mut any = false;
        for _ in 0..self.cfg.retire_width {
            match self.rob.front() {
                Some(e) if e.complete_at != NOT_ISSUED && e.complete_at <= self.now => {
                    let e = self.rob.pop_front().expect("front exists");
                    // The popped head had issued, so bit 0 is clear.
                    debug_assert_eq!(self.unissued_mask & 1, 0);
                    self.unissued_mask >>= 1;
                    if e.class == CLASS_STORE {
                        self.rob_stores -= 1;
                    }
                    // Free queue entries whose back-pressure window ended.
                    if e.sq_free_at != NO_SQ && e.sq_free_at > self.now {
                        self.sq_busy.push(std::cmp::Reverse(e.sq_free_at));
                    }
                    self.total_retired += 1;
                    self.stats.retired += 1;
                    any = true;
                }
                _ => break,
            }
        }
        any
    }

    /// Issue stage. Returns true if anything issued.
    ///
    /// Equivalent to a scan of every unissued entry, oldest first, that
    /// stops once the issue width or every unit pool is used up; it visits
    /// only entries whose sources can be ready (see the module docs).
    fn issue<M: MemoryModel>(&mut self, mem: &mut M) -> bool {
        // Prune queue-occupancy trackers.
        let now = self.now;
        while matches!(self.sq_busy.peek(), Some(&std::cmp::Reverse(c)) if c <= now) {
            self.sq_busy.pop();
        }
        while matches!(self.lq_busy.peek(), Some(&std::cmp::Reverse(c)) if c <= now) {
            self.lq_busy.pop();
        }

        // A prior complete pass proved no source becomes ready before
        // `issue_idle_until`; until then a pass would issue nothing.
        if now < self.issue_idle_until {
            return false;
        }

        // Split borrows so the pass can index the deque's contiguous
        // slices directly (per-slot `VecDeque` indexing re-pays the wrap
        // and bounds checks on every entry).
        let Core {
            cfg,
            feed,
            rob,
            reg_ready,
            sq_busy: _,
            lq_busy,
            stats,
            pending_redirect,
            forward_window,
            rob_loads_unissued,
            rob_unissued,
            unissued_mask,
            readers,
            pending_regs,
            pass_start_ready,
            fetch_resume_at,
            ..
        } = self;

        // Registers still pending at the start of the pass; their unissued
        // readers cannot be ready now.
        let mut pending = 0u64;
        let mut waiting = 0u128;
        let mut bits = *pending_regs;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if reg_ready[r] > now {
                pending |= 1 << r;
                waiting |= readers[r];
            }
        }
        let pending_at_start = pending;
        let head_slot = rob.front().map_or(0, |e| e.idx & 127);
        let mut candidates = *unissued_mask & !waiting.rotate_right(head_slot);

        let mut issued = 0;
        let mut int_used = 0;
        let mut mem_used = 0;
        let mut fp_used = 0;
        let mut any = false;
        // Inputs to the idle bound: completions written by this pass,
        // the registers it wrote (their pre-pass ready cycles are in
        // `pass_start_ready`), and the unissued entries younger than a
        // write to one of their sources.
        let mut min_complete = u64::MAX;
        let mut written = 0u64;
        let mut after_write = 0u128;
        let mut scanned_all = true;
        let mut blocked_ready = false;
        // Positions below `next` have been passed.
        let mut next = 0usize;
        let (front, back) = rob.as_mut_slices();
        let front_len = front.len();

        loop {
            if issued >= cfg.issue_width
                || (int_used >= cfg.int_units
                    && fp_used >= cfg.fp_units
                    && mem_used >= cfg.mem_units)
            {
                // Unissued entries remain unexamined; any of them could
                // be ready right now, so no idle bound can be claimed.
                if at_or_after(next) & *unissued_mask != 0 {
                    scanned_all = false;
                }
                break;
            }
            if candidates == 0 {
                break;
            }
            let p = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            next = p + 1;
            let entry = if p < front_len {
                &mut front[p]
            } else {
                &mut back[p - front_len]
            };
            debug_assert_eq!(entry.complete_at, NOT_ISSUED, "candidate already issued");
            // Source readiness as of this visit: an older entry issued in
            // this pass may have rewritten a source (absent sources hit
            // the zero pad slot).
            let ready_at =
                reg_ready[entry.srcs[0] as usize].max(reg_ready[entry.srcs[1] as usize]);
            if ready_at > now {
                continue;
            }
            // Functional unit availability.
            let (unit_ok, unit): (bool, u8) = match entry.class {
                CLASS_ALU | CLASS_BRANCH => (int_used < cfg.int_units, 0),
                CLASS_FP => (fp_used < cfg.fp_units, 1),
                _ => (mem_used < cfg.mem_units, 2),
            };
            if !unit_ok {
                blocked_ready = true;
                continue;
            }
            let uop = match &*feed {
                Feed::Whole(p) => p.uops[entry.idx as usize],
                // ROB indices are never pruned from the window (the prune
                // floor is the oldest in-flight index), so this read is
                // always in range.
                Feed::Stream(s) => s.window[entry.idx as usize - s.base],
            };
            match unit {
                0 => int_used += 1,
                1 => fp_used += 1,
                _ => mem_used += 1,
            }
            issued += 1;
            any = true;

            let (complete_at, sq_free_at) = match uop.kind {
                UopKind::Alu { latency } | UopKind::Fp { latency } => {
                    (now + latency as u64, None)
                }
                UopKind::Branch { taken } => {
                    stats.branches += 1;
                    // Prediction was recorded at fetch via `mispredicted`
                    // bookkeeping below; resolution happens here.
                    let _ = taken;
                    (now + 1, None)
                }
                UopKind::Load { vaddr } => {
                    stats.loads += 1;
                    // Store-to-load forwarding: a pending store to the same
                    // word supplies the data without a cache access. A
                    // counting-filter fast path over this scan was measured
                    // suite-unchanged under interleaved A/B (the window is
                    // small or empty in the common case, so the walk is
                    // already cheap; see PERF.md) and reverted.
                    let forwarded = forward_window
                        .iter()
                        .rev()
                        .find(|&&(a, _)| a == vaddr.0)
                        .map(|&(_, ready)| ready);
                    match forwarded {
                        Some(ready) => {
                            stats.forwarded_loads += 1;
                            let done = ready.max(now) + 1;
                            lq_busy.push(std::cmp::Reverse(done));
                            (done, None)
                        }
                        None => {
                            let done = mem.access(uop.pc, vaddr, AccessKind::Load, now);
                            lq_busy.push(std::cmp::Reverse(done));
                            (done, None)
                        }
                    }
                }
                UopKind::Store { vaddr } => {
                    stats.stores += 1;
                    let done = mem.access(uop.pc, vaddr, AccessKind::Store, now);
                    // Forwardable as soon as the store has its data (next
                    // cycle); the window is bounded by the SQ capacity.
                    forward_window.push_back((vaddr.0, now + 1));
                    while forward_window.len() > cfg.store_buffer {
                        forward_window.pop_front();
                    }
                    // Store releases the pipeline next cycle; its SQ entry
                    // is busy until the memory system completes.
                    (now + 1, Some(done))
                }
            };
            entry.complete_at = complete_at;
            entry.sq_free_at = sq_free_at.unwrap_or(NO_SQ);
            *unissued_mask &= !(1u128 << p);
            let slot = 1u128 << (entry.idx & 127);
            readers[entry.srcs[0] as usize] &= !slot;
            readers[entry.srcs[1] as usize] &= !slot;
            *rob_unissued -= 1;
            if entry.class == CLASS_LOAD {
                *rob_loads_unissued -= 1;
            }
            if let Some(dst) = uop.dst {
                let r = dst as usize;
                let bit = 1u64 << r;
                if written & bit == 0 {
                    written |= bit;
                    pass_start_ready[r] = reg_ready[r];
                }
                reg_ready[r] = complete_at;
                min_complete = min_complete.min(complete_at);
                let younger = readers[r].rotate_right(head_slot) & after(p);
                after_write |= younger;
                if complete_at > now {
                    // Younger readers now wait on this write.
                    pending |= bit;
                    candidates &= !younger;
                } else if pending & bit != 0 {
                    // Ready this cycle: readers skipped for this register
                    // may issue in this very pass.
                    pending &= !bit;
                    candidates |= younger;
                }
            }
            // Branch redirect: if this branch was fetched mispredicted,
            // fetch resumes after it resolves plus the penalty.
            if *pending_redirect == Some(entry.idx as usize) {
                *pending_redirect = None;
                let resume_at = complete_at + cfg.mispredict_penalty;
                stats.redirect_stall_cycles += resume_at.saturating_sub(now);
                *fetch_resume_at = resume_at;
            }
        }
        *pending_regs = pending;
        // A ready-but-unit-blocked entry stays ready next cycle, and an
        // early break leaves entries unexamined: either forfeits the bound.
        self.issue_idle_until = if blocked_ready || !scanned_all {
            0
        } else {
            // Every entry still waiting was visited (or skipped as not
            // ready). Entries younger than a write to one of their sources
            // became ready no earlier than that write's completion, which
            // `min_complete` covers; every other one saw the scoreboard as
            // it stood when the pass began.
            let start_ready = |r: usize| {
                if written >> r & 1 != 0 {
                    self.pass_start_ready[r]
                } else {
                    self.reg_ready[r]
                }
            };
            let waiting = (self.unissued_mask & !after_write).rotate_left(head_slot);
            earliest_ready(waiting, pending_at_start, &self.readers, start_ready, min_complete)
        };
        any
    }

    /// The uop at `fetch_idx`, or `None` at program end. On the streaming
    /// path this refills the window from the source; the prune floor is
    /// the oldest in-flight ROB index (every younger uop may still be
    /// read by the issue stage), clamped to `fetch_idx` when the ROB is
    /// empty.
    #[inline]
    fn fetch_uop(&mut self) -> Option<Uop> {
        let idx = self.fetch_idx;
        match &mut self.feed {
            Feed::Whole(p) => p.uops.get(idx).copied(),
            Feed::Stream(s) => {
                let keep_from = self
                    .rob
                    .front()
                    .map_or(idx, |e| (e.idx as usize).min(idx));
                s.uop_at(idx, keep_from)
            }
        }
    }

    /// Fetch/dispatch stage. Returns true if anything dispatched.
    fn fetch(&mut self) -> bool {
        if self.now < self.fetch_resume_at {
            return false;
        }
        let mut any = false;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            let Some(uop) = self.fetch_uop() else {
                break;
            };
            match uop.kind {
                UopKind::Load { .. }
                    if self.lq_busy.len() + self.rob_loads_unissued >= self.cfg.load_buffer => {
                        break;
                    }
                UopKind::Store { .. }
                    if self.sq_busy.len() + self.rob_stores >= self.cfg.store_buffer => {
                        break;
                    }
                UopKind::Load { .. } => self.rob_loads_unissued += 1,
                UopKind::Store { .. } => self.rob_stores += 1,
                _ => {}
            }
            self.rob_unissued += 1;
            let entry = RobEntry {
                idx: self.fetch_idx as u32,
                srcs: [
                    uop.srcs[0].unwrap_or(NO_REG),
                    uop.srcs[1].unwrap_or(NO_REG),
                ],
                class: match uop.kind {
                    UopKind::Alu { .. } => CLASS_ALU,
                    UopKind::Fp { .. } => CLASS_FP,
                    UopKind::Load { .. } => CLASS_LOAD,
                    UopKind::Store { .. } => CLASS_STORE,
                    UopKind::Branch { .. } => CLASS_BRANCH,
                },
                complete_at: NOT_ISSUED,
                sq_free_at: NO_SQ,
            };
            // Keep the idle bound exact: a dispatched entry may be ready
            // earlier than everything already waiting. `reg_ready` only
            // changes inside issue passes and the bound is recomputed at
            // the end of each, so the ready cycle computed here is the
            // one the next pass would see.
            if self.issue_idle_until != 0 {
                let ready_at = self.reg_ready[entry.srcs[0] as usize]
                    .max(self.reg_ready[entry.srcs[1] as usize]);
                self.issue_idle_until = if ready_at <= self.now {
                    0
                } else {
                    self.issue_idle_until.min(ready_at)
                };
            }
            // Branch prediction at fetch.
            if let UopKind::Branch { taken } = uop.kind {
                let predicted = self.bp.predict(uop.pc);
                self.bp.update(uop.pc, predicted, taken);
                if predicted != taken {
                    self.stats.mispredicts += 1;
                    self.pending_redirect = Some(self.fetch_idx);
                    self.dispatch(entry);
                    // Stop fetching: the front end is on the wrong path
                    // until this branch resolves.
                    self.fetch_resume_at = u64::MAX;
                    return true;
                }
            }
            self.dispatch(entry);
            any = true;
        }
        any
    }

    /// Appends a fetched entry to the ROB as unissued and registers it as
    /// a reader of its sources.
    fn dispatch(&mut self, entry: RobEntry) {
        self.rob.push_back(entry);
        self.unissued_mask |= 1u128 << (self.rob.len() - 1);
        let slot = 1u128 << (entry.idx & 127);
        self.readers[entry.srcs[0] as usize] |= slot;
        self.readers[entry.srcs[1] as usize] |= slot;
        self.fetch_idx += 1;
    }

    /// Serializes the complete pipeline state: ROB (in order), register
    /// scoreboard, queue-occupancy heaps (sorted — heap entries are plain
    /// cycle numbers, so sorted reinsertion is observationally identical),
    /// branch predictor, forwarding window, and all counters.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.usize(self.fetch_idx);
        enc.u64(self.fetch_resume_at);
        enc.u64(self.now);
        enc.u64(self.issue_idle_until);
        enc.u64(self.total_retired);
        enc.u64(self.stats_base_cycle);
        enc.u128(self.unissued_mask);
        enc.usize(self.rob_loads_unissued);
        enc.usize(self.rob_stores);
        enc.usize(self.rob_unissued);
        match self.pending_redirect {
            Some(idx) => {
                enc.bool(true);
                enc.usize(idx);
            }
            None => enc.bool(false),
        }
        self.stats.save_state(enc);
        for r in &self.reg_ready {
            enc.u64(*r);
        }
        enc.seq_len(self.rob.len());
        for e in &self.rob {
            enc.u32(e.idx);
            enc.u8(e.srcs[0]);
            enc.u8(e.srcs[1]);
            enc.u8(e.class);
            enc.u64(e.complete_at);
            enc.u64(e.sq_free_at);
        }
        for heap in [&self.sq_busy, &self.lq_busy] {
            let mut entries: Vec<u64> = heap.iter().map(|r| r.0).collect();
            entries.sort_unstable();
            enc.seq_len(entries.len());
            for c in entries {
                enc.u64(c);
            }
        }
        enc.seq_len(self.forward_window.len());
        for &(addr, ready) in &self.forward_window {
            enc.u32(addr);
            enc.u64(ready);
        }
        self.bp.save_state(enc);
        enc.bool(self.stall_hist.is_some());
        if let Some(hist) = &self.stall_hist {
            enc.u64(self.stall_run);
            hist.save_state(enc);
        }
        // Feed kind last: a whole-program snapshot carries no extra
        // state; a streaming snapshot appends its window and the source's
        // generation cursor so resume replays bit-identical uops.
        match &self.feed {
            Feed::Whole(_) => enc.bool(false),
            Feed::Stream(s) => {
                enc.bool(true);
                s.save_state(enc);
            }
        }
    }

    /// Restores state written by [`Core::save_state`] into a freshly
    /// constructed core over the *same* program and configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation or on
    /// structurally impossible state (ROB deeper than `rob_size`, a uop
    /// index past the program end, ROB indices out of program order, an
    /// unknown uop class, an unissued mask that disagrees with the ROB).
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        let fetch_idx = dec.usize("core fetch_idx")?;
        // Streaming feeds validate index coverage after their window is
        // restored (end of this function).
        if let Feed::Whole(p) = &self.feed {
            if fetch_idx > p.len() {
                return Err(SnapshotError::Corrupt {
                    context: "core fetch_idx",
                });
            }
        }
        self.fetch_idx = fetch_idx;
        self.fetch_resume_at = dec.u64("core fetch_resume_at")?;
        self.now = dec.u64("core now")?;
        self.issue_idle_until = dec.u64("core issue_idle_until")?;
        self.total_retired = dec.u64("core total_retired")?;
        self.stats_base_cycle = dec.u64("core stats_base_cycle")?;
        self.unissued_mask = dec.u128("core unissued_mask")?;
        self.rob_loads_unissued = dec.usize("core rob_loads_unissued")?;
        self.rob_stores = dec.usize("core rob_stores")?;
        self.rob_unissued = dec.usize("core rob_unissued")?;
        self.pending_redirect = if dec.bool("core pending_redirect flag")? {
            Some(dec.usize("core pending_redirect")?)
        } else {
            None
        };
        self.stats.restore_state(dec)?;
        for r in self.reg_ready.iter_mut() {
            *r = dec.u64("core reg_ready")?;
        }
        let rob_len = dec.seq_len(4 + 3 + 8 + 8, "core rob length")?;
        if rob_len > self.cfg.rob_size {
            return Err(SnapshotError::Corrupt {
                context: "core rob length",
            });
        }
        self.rob.clear();
        for _ in 0..rob_len {
            let idx = dec.u32("core rob idx")?;
            if let Feed::Whole(p) = &self.feed {
                if idx as usize >= p.len() {
                    return Err(SnapshotError::Corrupt {
                        context: "core rob idx",
                    });
                }
            }
            let srcs = [dec.u8("core rob src0")?, dec.u8("core rob src1")?];
            if srcs.iter().any(|&s| s > NO_REG) {
                return Err(SnapshotError::Corrupt {
                    context: "core rob src register",
                });
            }
            let class = dec.u8("core rob class")?;
            if class > CLASS_BRANCH {
                return Err(SnapshotError::Corrupt {
                    context: "core rob class",
                });
            }
            self.rob.push_back(RobEntry {
                idx,
                srcs,
                class,
                complete_at: dec.u64("core rob complete_at")?,
                sq_free_at: dec.u64("core rob sq_free_at")?,
            });
        }
        self.sq_busy.clear();
        let n = dec.seq_len(8, "core sq_busy length")?;
        for _ in 0..n {
            self.sq_busy
                .push(std::cmp::Reverse(dec.u64("core sq_busy entry")?));
        }
        self.lq_busy.clear();
        let n = dec.seq_len(8, "core lq_busy length")?;
        for _ in 0..n {
            self.lq_busy
                .push(std::cmp::Reverse(dec.u64("core lq_busy entry")?));
        }
        self.forward_window.clear();
        let n = dec.seq_len(4 + 8, "core forward window length")?;
        for _ in 0..n {
            let addr = dec.u32("core forward addr")?;
            let ready = dec.u64("core forward ready")?;
            self.forward_window.push_back((addr, ready));
        }
        self.bp.restore_state(dec)?;
        // Histogram presence must match the restoring run's
        // configuration (mirroring the hierarchy's tracer rule): a
        // snapshot observed differently is not the same simulation.
        let has_hist = dec.bool("core stall hist presence")?;
        if has_hist != self.stall_hist.is_some() {
            return Err(SnapshotError::Corrupt {
                context: "core stall hist presence",
            });
        }
        if has_hist {
            self.stall_run = dec.u64("core stall_run")?;
            self.stall_hist = Some(Box::new(cdp_obs::Hist::restore_state(dec)?));
        } else {
            self.stall_run = 0;
        }
        // Feed kind must match the restoring core's construction (same
        // rule as the histogram above): a snapshot taken streaming is not
        // restorable into a materialized core, or vice versa.
        let is_stream = dec.bool("core feed kind")?;
        match (&mut self.feed, is_stream) {
            (Feed::Whole(_), false) => {}
            (Feed::Stream(s), true) => {
                s.restore_state(dec)?;
                let produced = s.produced();
                if self.fetch_idx > produced
                    || self
                        .rob
                        .iter()
                        .any(|e| (e.idx as usize) < s.base || e.idx as usize >= produced)
                {
                    return Err(SnapshotError::Corrupt {
                        context: "core feed coverage",
                    });
                }
            }
            _ => {
                return Err(SnapshotError::Corrupt {
                    context: "core feed kind",
                });
            }
        }
        self.rebuild_wakeup()
    }

    /// Rebuilds the issue stage's derived state (`readers`,
    /// `pending_regs`) from the restored ROB and scoreboard, checking the
    /// serialized `unissued_mask` and the ROB's index order on the way.
    fn rebuild_wakeup(&mut self) -> Result<(), cdp_types::SnapshotError> {
        use cdp_types::SnapshotError;
        self.readers = [0; NUM_REGS + 1];
        let mut unissued = 0u128;
        let head = self.rob.front().map_or(0, |e| e.idx);
        for (p, e) in self.rob.iter().enumerate() {
            if e.idx.wrapping_sub(head) as usize != p {
                return Err(SnapshotError::Corrupt {
                    context: "core rob idx order",
                });
            }
            if e.complete_at == NOT_ISSUED {
                unissued |= 1 << p;
                let slot = 1u128 << (e.idx & 127);
                self.readers[e.srcs[0] as usize] |= slot;
                self.readers[e.srcs[1] as usize] |= slot;
            }
        }
        if unissued != self.unissued_mask {
            return Err(SnapshotError::Corrupt {
                context: "core unissued_mask",
            });
        }
        self.pending_regs = (0..NUM_REGS)
            .filter(|&r| self.reg_ready[r] > self.now)
            .fold(0, |m, r| m | 1 << r);
        Ok(())
    }
}

/// ROB positions strictly after `p`.
#[inline]
fn after(p: usize) -> u128 {
    at_or_after(p + 1)
}

/// ROB positions `p` and later.
#[inline]
fn at_or_after(p: usize) -> u128 {
    u128::MAX.checked_shl(p as u32).unwrap_or(0)
}

/// The earliest cycle any entry of `waiting` (a slot mask) becomes ready,
/// capped at `cap`: the minimum over those entries of their latest
/// source's `ready(r)`. Every entry must read at least one register of
/// `pending`, and every register it reads outside `pending` must already
/// be ready.
///
/// Walks the pending registers in ascending ready order. Once the
/// registers at or below cycle `v` are set aside, an entry that reads none
/// of the remaining ones is ready at exactly `v`.
fn earliest_ready(
    waiting: u128,
    pending: u64,
    readers: &[u128; NUM_REGS + 1],
    ready: impl Fn(usize) -> u64,
    cap: u64,
) -> u64 {
    if waiting == 0 {
        return cap;
    }
    let mut rest = pending;
    while rest != 0 {
        let mut v = u64::MAX;
        let mut group = 0u64;
        let mut bits = rest;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let at = ready(r);
            if at < v {
                v = at;
                group = 1 << r;
            } else if at == v {
                group |= 1 << r;
            }
        }
        if v >= cap {
            break;
        }
        rest &= !group;
        let mut later = 0u128;
        let mut bits = rest;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            later |= readers[r];
        }
        if waiting & !later != 0 {
            return v;
        }
    }
    cap
}

impl CoreStats {
    /// Serializes every counter.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.cycles);
        enc.u64(self.retired);
        enc.u64(self.loads);
        enc.u64(self.stores);
        enc.u64(self.branches);
        enc.u64(self.mispredicts);
        enc.u64(self.redirect_stall_cycles);
        enc.u64(self.forwarded_loads);
        enc.u64(self.rob_occupancy_cycles);
    }

    /// Restores counters written by [`CoreStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.cycles = dec.u64("core stats cycles")?;
        self.retired = dec.u64("core stats retired")?;
        self.loads = dec.u64("core stats loads")?;
        self.stores = dec.u64("core stats stores")?;
        self.branches = dec.u64("core stats branches")?;
        self.mispredicts = dec.u64("core stats mispredicts")?;
        self.redirect_stall_cycles = dec.u64("core stats redirect_stall_cycles")?;
        self.forwarded_loads = dec.u64("core stats forwarded_loads")?;
        self.rob_occupancy_cycles = dec.u64("core stats rob_occupancy_cycles")?;
        Ok(())
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::Uop;
    use crate::FixedLatencyMemory;
    use cdp_types::VirtAddr;

    fn run(program: &Program, latency: u64) -> CoreStats {
        let mut core = Core::new(CoreConfig::default(), program);
        let mut mem = FixedLatencyMemory { latency };
        core.run_to_completion(&mut mem);
        core.stats()
    }

    #[test]
    fn empty_program_terminates() {
        let p = Program::default();
        let s = run(&p, 3);
        assert_eq!(s.retired, 0);
    }

    #[test]
    fn independent_alus_reach_full_width() {
        let p: Program = (0..3000).map(|i| Uop::alu(i * 4)).collect();
        let s = run(&p, 3);
        assert_eq!(s.retired, 3000);
        assert!(s.ipc() > 2.5, "ipc {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // r1 = r1 + 1, 1000 times: ~1 IPC max.
        let p: Program = (0..1000)
            .map(|i| Uop::alu_dep(i * 4, 1, [Some(1), None], 1))
            .collect();
        let s = run(&p, 3);
        assert!(s.ipc() < 1.2, "dependent chain ipc {}", s.ipc());
    }

    #[test]
    fn pointer_chase_pays_memory_latency_per_hop() {
        // 100 loads, each feeding the next one's address.
        let p: Program = (0..100)
            .map(|i| Uop::load(i * 4, VirtAddr(0x1000 + i * 64), 1, Some(1)))
            .collect();
        let s = run(&p, 100);
        // Each hop costs >= 100 cycles: at least 100*100 cycles total.
        assert!(s.cycles >= 100 * 100, "cycles {}", s.cycles);
        assert_eq!(s.loads, 100);
    }

    #[test]
    fn independent_loads_overlap() {
        // 100 independent loads into distinct registers: MLP limited by
        // 2 mem ports, not by latency.
        let p: Program = (0..100)
            .map(|i| Uop::load(i * 4, VirtAddr(0x1000 + i * 64), (i % 32) as u8 + 8, None))
            .collect();
        let s = run(&p, 100);
        assert!(
            s.cycles < 100 * 100 / 2,
            "independent loads must overlap: {} cycles",
            s.cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_penalty() {
        // Random outcomes -> ~half mispredict, each costing >= 28 cycles.
        let mut x = 0x9e3779b9u64;
        let mut uops = Vec::new();
        for i in 0..500u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            uops.push(Uop::branch(i * 4, (x >> 63) == 1, None));
        }
        let p = Program::new(uops);
        let s = run(&p, 3);
        assert!(s.mispredicts > 100, "mispredicts {}", s.mispredicts);
        assert!(
            s.cycles > s.mispredicts * 28,
            "each mispredict costs the redirect penalty: {} cycles, {} mispredicts",
            s.cycles,
            s.mispredicts
        );
    }

    #[test]
    fn predictable_branches_are_cheap() {
        let p: Program = (0..500).map(|_| Uop::branch(0x40, true, None)).collect();
        let s = run(&p, 3);
        // Allow the gshare history warm-up transient (~14 churned counters).
        assert!(s.mispredicts < 30, "always-taken learns: {}", s.mispredicts);
    }

    #[test]
    fn store_queue_backpressure() {
        // 200 stores with huge memory latency: SQ (32 entries) limits
        // in-flight stores, so the run takes many latency periods.
        let p: Program = (0..200)
            .map(|i| Uop::store(i * 4, VirtAddr(0x1_0000 + i * 64), None, None))
            .collect();
        let s = run(&p, 1000);
        assert_eq!(s.stores, 200);
        // 200 stores / 32 SQ entries ≈ 7 waves of ~1000 cycles.
        assert!(s.cycles >= 5000, "SQ pressure expected: {} cycles", s.cycles);
    }

    #[test]
    fn rob_bounds_inflight_window() {
        // A load with 10_000-cycle latency at the head blocks retire; the
        // ROB (128) fills and fetch stops, so cycles ~ latency, retired all.
        let mut uops = vec![Uop::load(0, VirtAddr(0x1000), 1, None)];
        for i in 1..1000 {
            uops.push(Uop::alu(i * 4));
        }
        let s = run(&Program::new(uops), 10_000);
        assert_eq!(s.retired, 1000);
        assert!(s.cycles >= 10_000);
        assert!(s.cycles < 11_500, "post-miss uops drain quickly: {}", s.cycles);
    }

    #[test]
    fn rob_occupancy_tracks_stalls() {
        // A long-latency load at the head keeps the ROB full while the
        // trailing ALUs wait to retire: average occupancy near capacity.
        let mut uops = vec![Uop::load(0, VirtAddr(0x1000), 1, None)];
        for i in 1..400 {
            uops.push(Uop::alu(i * 4));
        }
        let stalled = run(&Program::new(uops), 5_000);
        assert!(
            stalled.avg_rob_occupancy() > 64.0,
            "stalled occupancy {:.1}",
            stalled.avg_rob_occupancy()
        );
        // Free-flowing ALUs drain as fast as they fetch: small window.
        let flowing: Program = (0..400).map(|i| Uop::alu(i * 4)).collect();
        let f = run(&flowing, 3);
        assert!(
            f.avg_rob_occupancy() < stalled.avg_rob_occupancy() / 2.0,
            "flowing {:.1} vs stalled {:.1}",
            f.avg_rob_occupancy(),
            stalled.avg_rob_occupancy()
        );
    }

    #[test]
    fn single_fp_unit_serializes_fp_work() {
        let fp: Program = (0..300)
            .map(|i| Uop {
                pc: i * 4,
                kind: UopKind::Fp { latency: 1 },
                dst: None,
                srcs: [None, None],
            })
            .collect();
        let s_fp = run(&fp, 3);
        let alu: Program = (0..300).map(|i| Uop::alu(i * 4)).collect();
        let s_alu = run(&alu, 3);
        // One FP unit vs three integer units: the FP version must take
        // roughly 3x the cycles.
        assert!(
            s_fp.cycles > s_alu.cycles * 2,
            "fp {} vs alu {}",
            s_fp.cycles,
            s_alu.cycles
        );
    }

    #[test]
    fn two_memory_ports_bound_load_issue() {
        // 300 independent L1-hit-speed loads: at 2 ports, at least 150
        // cycles; integer work of the same length is 3-wide.
        let p: Program = (0..300)
            .map(|i| Uop::load(i * 4, VirtAddr(0x1000 + (i % 8) * 64), (i % 8) as u8 + 8, None))
            .collect();
        let s = run(&p, 1);
        assert!(s.cycles >= 150, "mem ports must bound issue: {}", s.cycles);
    }

    #[test]
    fn wider_machine_runs_faster() {
        let p: Program = (0..3000).map(|i| Uop::alu(i * 4)).collect();
        let narrow_cfg = CoreConfig {
            fetch_width: 1,
            issue_width: 1,
            retire_width: 1,
            int_units: 1,
            ..CoreConfig::default()
        };
        let mut narrow = Core::new(narrow_cfg, &p);
        let mut mem = FixedLatencyMemory { latency: 3 };
        narrow.run_to_completion(&mut mem);
        let wide = run(&p, 3);
        assert!(
            narrow.stats().cycles > wide.cycles * 2,
            "1-wide {} vs 3-wide {}",
            narrow.stats().cycles,
            wide.cycles
        );
    }

    #[test]
    fn load_queue_bounds_memory_level_parallelism() {
        // Independent long-latency loads: 48 LQ entries cap the overlap,
        // so 96 loads need at least two full latency windows.
        let p: Program = (0..96)
            .map(|i| Uop::load(i * 4, VirtAddr(0x10_0000 + i * 64), (i % 32) as u8 + 8, None))
            .collect();
        let s = run(&p, 5_000);
        assert!(
            s.cycles >= 10_000,
            "LQ must cap MLP at 48: {} cycles",
            s.cycles
        );
        assert!(s.cycles < 20_000, "but not serialize: {}", s.cycles);
    }

    #[test]
    fn store_to_load_forwarding_skips_memory() {
        // store [X]; load [X] — the load forwards and never touches the
        // hierarchy (latency 10_000 would otherwise dominate).
        let uops = vec![
            Uop::store(0, VirtAddr(0x5000), None, None),
            Uop::load(4, VirtAddr(0x5000), 1, None),
            Uop::load(8, VirtAddr(0x6000), 2, None),
        ];
        let s = run(&Program::new(uops), 10_000);
        assert_eq!(s.forwarded_loads, 1);
        // Only the un-forwarded load (plus the store's fill) pays latency.
        assert!(s.cycles < 25_000, "{}", s.cycles);
    }

    #[test]
    fn forwarding_window_is_bounded_by_store_buffer() {
        // 40 distinct stores (> 32 SQ entries), then a load to the first
        // store's address: its window entry has been displaced.
        let mut uops: Vec<Uop> = (0..40)
            .map(|i| Uop::store(i * 4, VirtAddr(0x5000 + i * 64), None, None))
            .collect();
        uops.push(Uop::load(400, VirtAddr(0x5000), 1, None));
        let s = run(&Program::new(uops), 50);
        assert_eq!(s.forwarded_loads, 0);
    }

    #[test]
    fn reset_stats_clears_counts_midstream() {
        let p: Program = (0..600).map(|i| Uop::alu(i * 4)).collect();
        let mut core = Core::new(CoreConfig::default(), &p);
        let mut mem = FixedLatencyMemory { latency: 3 };
        core.run_until_retired(&mut mem, 300);
        assert!(core.stats().retired >= 300);
        core.reset_stats();
        assert_eq!(core.stats().retired, 0);
        assert_eq!(core.stats().cycles, 0);
        core.run_to_completion(&mut mem);
        assert!(core.stats().retired <= 310, "only post-reset uops counted");
        assert!(core.done());
    }

    mod props {
        use super::*;
        use cdp_types::rng::Rng;

        fn random_program(rng: &mut Rng) -> Program {
            let n = rng.gen_range_usize(1..120);
            (0..n)
                .map(|i| {
                    let kind = rng.gen_range_u8(0..5);
                    let reg = rng.gen_range_u8(0..8);
                    let flag = rng.gen_bool(0.5);
                    let pc = (i as u32) * 4;
                    match kind {
                        0 => Uop::alu(pc),
                        1 => Uop::alu_dep(pc, reg + 1, [Some((reg % 4) + 1), None], 2),
                        2 => Uop::load(pc, VirtAddr(0x1000 + i as u32 * 32), reg + 1, None),
                        3 => Uop::store(pc, VirtAddr(0x9000 + i as u32 * 32), None, None),
                        _ => Uop::branch(pc, flag, Some((reg % 4) + 1)),
                    }
                })
                .collect()
        }

        /// Every program terminates with all uops retired, op counts
        /// matching the trace, and IPC bounded by the machine width.
        #[test]
        fn any_program_terminates_and_accounts() {
            let mut rng = Rng::seed_from_u64(0xc04e_0001);
            for _ in 0..48 {
                let p = random_program(&mut rng);
                let mut core = Core::new(CoreConfig::default(), &p);
                let mut mem = FixedLatencyMemory { latency: 7 };
                core.run_to_completion(&mut mem);
                let s = core.stats();
                assert_eq!(s.retired as usize, p.len());
                assert_eq!(
                    s.loads as usize + s.stores as usize,
                    p.num_loads() + p.num_stores()
                );
                assert_eq!(s.branches as usize, p.num_branches());
                assert!(s.ipc() <= 3.0 + 1e-9, "ipc {}", s.ipc());
                assert!(s.cycles >= (p.len() as u64).div_ceil(3));
            }
        }

        /// Higher memory latency never makes a program faster.
        #[test]
        fn latency_monotonicity() {
            let mut rng = Rng::seed_from_u64(0xc04e_0002);
            for _ in 0..48 {
                let p = random_program(&mut rng);
                let run_at = |lat: u64| {
                    let mut core = Core::new(CoreConfig::default(), &p);
                    let mut mem = FixedLatencyMemory { latency: lat };
                    core.run_to_completion(&mut mem);
                    core.stats().cycles
                };
                assert!(run_at(100) >= run_at(3));
            }
        }

        /// Determinism: identical runs produce identical statistics.
        #[test]
        fn deterministic_execution() {
            let mut rng = Rng::seed_from_u64(0xc04e_0003);
            for _ in 0..48 {
                let p = random_program(&mut rng);
                let run = || {
                    let mut core = Core::new(CoreConfig::default(), &p);
                    let mut mem = FixedLatencyMemory { latency: 11 };
                    core.run_to_completion(&mut mem);
                    core.stats()
                };
                assert_eq!(run(), run());
            }
        }
    }

    /// Snapshot mid-run, restore into a fresh core, and drive both to
    /// completion: every statistic (including cycle counts) must match,
    /// i.e. resume(snapshot(S)) continues bit-identically.
    #[test]
    fn snapshot_mid_run_resumes_bit_identically() {
        let mut rng = cdp_types::rng::Rng::seed_from_u64(0xc04e_5a9e);
        for trial in 0..24 {
            let p: Program = (0..400)
                .map(|i| {
                    let pc = (i as u32) * 4;
                    match rng.gen_range_u8(0..5) {
                        0 => Uop::alu(pc),
                        1 => Uop::alu_dep(pc, 3, [Some(2), None], 2),
                        2 => Uop::load(pc, VirtAddr(0x1000 + i as u32 * 32), 5, Some(5)),
                        3 => Uop::store(pc, VirtAddr(0x9000 + i as u32 * 32), None, None),
                        _ => Uop::branch(pc, rng.gen_bool(0.5), None),
                    }
                })
                .collect();
            let stop = u64::from(rng.gen_range_u32(1..350));
            let mut mem_a = FixedLatencyMemory { latency: 9 };
            let mut a = Core::new(CoreConfig::default(), &p);
            a.run_until_retired(&mut mem_a, stop);

            let mut enc = cdp_snap::Enc::new();
            a.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut b = Core::new(CoreConfig::default(), &p);
            let mut dec = cdp_snap::Dec::new(&bytes);
            b.restore_state(&mut dec).unwrap();
            assert!(dec.is_exhausted(), "trial {trial}: trailing bytes");
            assert_eq!(a.now(), b.now());

            let mut mem_b = FixedLatencyMemory { latency: 9 };
            a.run_to_completion(&mut mem_a);
            b.run_to_completion(&mut mem_b);
            assert_eq!(a.stats(), b.stats(), "trial {trial} diverged");
            assert_eq!(a.now(), b.now(), "trial {trial} cycle drift");
        }
    }

    #[test]
    fn run_until_retired_is_resumable() {
        let p: Program = (0..90).map(|i| Uop::alu(i * 4)).collect();
        let mut core = Core::new(CoreConfig::default(), &p);
        let mut mem = FixedLatencyMemory { latency: 3 };
        assert!(!core.run_until_retired(&mut mem, 30));
        let r1 = core.stats().retired;
        assert!((30..60).contains(&r1), "r1 {r1}");
        assert!(core.run_until_retired(&mut mem, 10_000));
        assert_eq!(core.stats().retired, 90);
    }

    /// Feeds a pre-built uop list in fixed-size chunks — the reference
    /// streaming source for differential tests.
    #[derive(Clone, Debug)]
    struct SliceSource {
        uops: Vec<Uop>,
        pos: usize,
        chunk: usize,
    }

    impl crate::feed::UopSource for SliceSource {
        fn fill(&mut self, out: &mut std::collections::VecDeque<Uop>) -> usize {
            let n = self.chunk.min(self.uops.len() - self.pos);
            out.extend(self.uops[self.pos..self.pos + n].iter().copied());
            self.pos += n;
            n
        }

        fn exhausted(&self) -> bool {
            self.pos >= self.uops.len()
        }

        fn box_clone(&self) -> Box<dyn crate::feed::UopSource> {
            Box::new(self.clone())
        }

        fn save_cursor(&self, enc: &mut cdp_snap::Enc) {
            enc.usize(self.pos);
        }

        fn restore_cursor(
            &mut self,
            dec: &mut cdp_snap::Dec<'_>,
        ) -> Result<(), cdp_types::SnapshotError> {
            self.pos = dec.usize("slice cursor")?;
            Ok(())
        }
    }

    fn mixed_program(n: u32, seed: u64) -> Program {
        let mut x = seed;
        let mut uops = Vec::new();
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = i * 4;
            uops.push(match x % 5 {
                0 => Uop::load(pc, VirtAddr(0x1000 + (x as u32 % 512) * 64), (i % 32) as u8 + 8, Some(1)),
                1 => Uop::store(pc, VirtAddr(0x9000 + (x as u32 % 64) * 4), None, Some(2)),
                2 => Uop::branch(pc, (x >> 63) == 1, None),
                3 => Uop::alu_dep(pc, 1, [Some(1), None], 2),
                _ => Uop::alu(pc),
            });
        }
        Program::new(uops)
    }

    /// A streaming core over the same uop sequence must trace the exact
    /// trajectory of the materialized core — every statistic and the
    /// final cycle count — while keeping only a bounded window resident.
    #[test]
    fn streaming_feed_matches_materialized() {
        for seed in [0x12345678u64, 0xdeadbeef, 7] {
            let p = mixed_program(5000, seed);
            let mut mem = FixedLatencyMemory { latency: 40 };
            let mut whole = Core::new(CoreConfig::default(), &p);
            whole.run_to_completion(&mut mem);

            let src = SliceSource {
                uops: p.uops.clone(),
                pos: 0,
                chunk: 64,
            };
            let mut mem2 = FixedLatencyMemory { latency: 40 };
            let mut stream = Core::new_streaming(CoreConfig::default(), Box::new(src));
            let cap = CoreConfig::default().rob_size + 2 * 64;
            while !stream.done() {
                stream.step(&mut mem2);
                if let Feed::Stream(s) = &stream.feed {
                    assert!(s.window.len() <= cap, "window {} > {cap}", s.window.len());
                }
            }
            assert_eq!(whole.stats(), stream.stats(), "seed {seed:#x}");
            assert_eq!(whole.now(), stream.now(), "seed {seed:#x}");
        }
    }

    /// Snapshot a streaming core mid-run and restore into a fresh
    /// streaming core over an un-advanced source: the cursor round-trip
    /// must continue bit-identically.
    #[test]
    fn streaming_snapshot_resumes_bit_identically() {
        let p = mixed_program(3000, 0xfeed_f00d);
        let make = || SliceSource {
            uops: p.uops.clone(),
            pos: 0,
            chunk: 128,
        };
        let mut mem_a = FixedLatencyMemory { latency: 17 };
        let mut a = Core::new_streaming(CoreConfig::default(), Box::new(make()));
        a.run_until_retired(&mut mem_a, 1200);

        let mut enc = cdp_snap::Enc::new();
        a.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut b = Core::new_streaming(CoreConfig::default(), Box::new(make()));
        let mut dec = cdp_snap::Dec::new(&bytes);
        b.restore_state(&mut dec).unwrap();
        assert!(dec.is_exhausted(), "trailing bytes");
        assert_eq!(a.now(), b.now());

        let mut mem_b = FixedLatencyMemory { latency: 17 };
        a.run_to_completion(&mut mem_a);
        b.run_to_completion(&mut mem_b);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now(), b.now());
    }

    /// A whole-program snapshot must not restore into a streaming core
    /// (and vice versa) — mirroring the histogram-presence rule.
    #[test]
    fn feed_kind_mismatch_is_rejected() {
        let p = mixed_program(500, 3);
        let mut mem = FixedLatencyMemory { latency: 5 };
        let mut whole = Core::new(CoreConfig::default(), &p);
        whole.run_until_retired(&mut mem, 100);
        let mut enc = cdp_snap::Enc::new();
        whole.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let src = SliceSource {
            uops: p.uops.clone(),
            pos: 0,
            chunk: 64,
        };
        let mut stream = Core::new_streaming(CoreConfig::default(), Box::new(src));
        let mut dec = cdp_snap::Dec::new(&bytes);
        assert!(stream.restore_state(&mut dec).is_err());
    }
}
