//! Differential test of the issue stage against a reference scan.
//!
//! [`scan_issue`] is the issue stage as a plain walk over every unissued
//! ROB entry, oldest first, reading each entry's sources at its visit and
//! computing the idle bound from everything it saw. The wakeup-driven
//! [`Core::issue`] must be indistinguishable from it: the same snapshot
//! bytes after every step, the same memory accesses in the same order,
//! the same final statistics, and the same run after a restore (which
//! rebuilds the wakeup state from the snapshot).

use super::*;
use crate::FixedLatencyMemory;
use cdp_types::rng::Rng;
use cdp_types::VirtAddr;

/// The reference issue stage: one visit per unissued entry per pass.
fn scan_issue<M: MemoryModel>(core: &mut Core<'_>, mem: &mut M) -> bool {
    let now = core.now;
    while matches!(core.sq_busy.peek(), Some(&std::cmp::Reverse(c)) if c <= now) {
        core.sq_busy.pop();
    }
    while matches!(core.lq_busy.peek(), Some(&std::cmp::Reverse(c)) if c <= now) {
        core.lq_busy.pop();
    }
    if now < core.issue_idle_until {
        return false;
    }
    let mut issued = 0;
    let mut int_used = 0;
    let mut mem_used = 0;
    let mut fp_used = 0;
    let mut any = false;
    let mut min_ready = u64::MAX;
    let mut min_complete = u64::MAX;
    let mut scanned_all = true;
    let mut blocked_ready = false;
    let cfg = core.cfg.clone();
    let mut left = core.unissued_mask;
    while left != 0 {
        let p = left.trailing_zeros() as usize;
        left &= left - 1;
        if issued >= cfg.issue_width
            || (int_used >= cfg.int_units && fp_used >= cfg.fp_units && mem_used >= cfg.mem_units)
        {
            scanned_all = false;
            break;
        }
        let entry = core.rob[p];
        assert_eq!(entry.complete_at, NOT_ISSUED, "mask bit set for an issued entry");
        let ready_at = core.reg_ready[entry.srcs[0] as usize]
            .max(core.reg_ready[entry.srcs[1] as usize]);
        if ready_at > now {
            min_ready = min_ready.min(ready_at);
            continue;
        }
        let (unit_ok, unit) = match entry.class {
            CLASS_ALU | CLASS_BRANCH => (int_used < cfg.int_units, 0),
            CLASS_FP => (fp_used < cfg.fp_units, 1),
            _ => (mem_used < cfg.mem_units, 2),
        };
        if !unit_ok {
            blocked_ready = true;
            continue;
        }
        let uop = match &core.feed {
            Feed::Whole(p) => p.uops[entry.idx as usize],
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
            UopKind::Alu { latency } | UopKind::Fp { latency } => (now + latency as u64, None),
            UopKind::Branch { .. } => {
                core.stats.branches += 1;
                (now + 1, None)
            }
            UopKind::Load { vaddr } => {
                core.stats.loads += 1;
                let forwarded = core
                    .forward_window
                    .iter()
                    .rev()
                    .find(|&&(a, _)| a == vaddr.0)
                    .map(|&(_, ready)| ready);
                let done = match forwarded {
                    Some(ready) => {
                        core.stats.forwarded_loads += 1;
                        ready.max(now) + 1
                    }
                    None => mem.access(uop.pc, vaddr, AccessKind::Load, now),
                };
                core.lq_busy.push(std::cmp::Reverse(done));
                (done, None)
            }
            UopKind::Store { vaddr } => {
                core.stats.stores += 1;
                let done = mem.access(uop.pc, vaddr, AccessKind::Store, now);
                core.forward_window.push_back((vaddr.0, now + 1));
                while core.forward_window.len() > cfg.store_buffer {
                    core.forward_window.pop_front();
                }
                (now + 1, Some(done))
            }
        };
        let entry = &mut core.rob[p];
        entry.complete_at = complete_at;
        entry.sq_free_at = sq_free_at.unwrap_or(NO_SQ);
        core.unissued_mask &= !(1u128 << p);
        core.rob_unissued -= 1;
        if entry.class == CLASS_LOAD {
            core.rob_loads_unissued -= 1;
        }
        if let Some(dst) = uop.dst {
            core.reg_ready[dst as usize] = complete_at;
            min_complete = min_complete.min(complete_at);
        }
        if core.pending_redirect == Some(entry.idx as usize) {
            core.pending_redirect = None;
            let resume_at = complete_at + cfg.mispredict_penalty;
            core.stats.redirect_stall_cycles += resume_at.saturating_sub(now);
            core.fetch_resume_at = resume_at;
        }
    }
    core.issue_idle_until = if blocked_ready || !scanned_all {
        0
    } else {
        min_ready.min(min_complete)
    };
    any
}

/// [`Core::step`] with the reference issue stage.
fn scan_step<M: MemoryModel>(core: &mut Core<'_>, mem: &mut M) {
    let progressed = core.retire() | scan_issue(core, mem) | core.fetch();
    if progressed || !core.fast_forward {
        core.advance_to(core.now + 1);
    } else {
        let next = core.next_event_cycle().max(core.now + 1);
        core.advance_to(next);
    }
}

/// A memory that logs every access and answers with a latency drawn from
/// the address and cycle (zero included), or a fixed one.
#[derive(Clone, Debug, Default)]
struct LoggingMemory {
    fixed: Option<u64>,
    max_latency: u64,
    log: Vec<(u32, u32, bool, u64)>,
}

impl MemoryModel for LoggingMemory {
    fn access(&mut self, pc: u32, vaddr: VirtAddr, kind: AccessKind, now: u64) -> u64 {
        self.log.push((pc, vaddr.0, kind == AccessKind::Load, now));
        let latency = self.fixed.unwrap_or_else(|| {
            let h = (u64::from(vaddr.0) ^ now.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 40) % (self.max_latency + 1)
        });
        FixedLatencyMemory { latency }.access(pc, vaddr, kind, now)
    }
}

/// A program over a small register pool (dense dependences) and a small
/// address pool (store-to-load forwarding), with every uop class.
fn random_program(rng: &mut Rng, with_fp: bool) -> Program {
    let n = rng.gen_range_usize(1..400);
    let regs = rng.gen_range_u8(1..16);
    let reg = |rng: &mut Rng| rng.gen_range_u8(0..regs);
    let src = |rng: &mut Rng| rng.gen_bool(0.8).then(|| reg(rng));
    (0..n)
        .map(|i| {
            let pc = (i as u32) * 4;
            let addr = VirtAddr(0x4000 + rng.gen_range_u32(0..24) * 4);
            let kind = rng.gen_range_u8(0..6);
            match kind {
                0 => Uop::alu(pc),
                1 => Uop::alu_dep(pc, reg(rng), [src(rng), src(rng)], rng.gen_range_u8(1..5)),
                2 if with_fp => Uop {
                    pc,
                    kind: UopKind::Fp {
                        latency: rng.gen_range_u8(1..6),
                    },
                    dst: Some(reg(rng)),
                    srcs: [src(rng), src(rng)],
                },
                2 | 3 => Uop::load(pc, addr, reg(rng), src(rng)),
                4 => Uop::store(pc, addr, src(rng), src(rng)),
                _ => Uop::branch(pc, rng.gen_bool(0.5), src(rng)),
            }
        })
        .collect()
}

fn random_config(rng: &mut Rng) -> CoreConfig {
    let width = if rng.gen_bool(0.5) { 1 } else { 3 };
    CoreConfig {
        fetch_width: if rng.gen_bool(0.5) { width } else { 3 },
        issue_width: width,
        retire_width: if rng.gen_bool(0.5) { width } else { 3 },
        rob_size: [128, 128, 64, 37][rng.gen_range_usize(0..4)],
        store_buffer: [32, 4][rng.gen_range_usize(0..2)],
        load_buffer: [48, 6][rng.gen_range_usize(0..2)],
        int_units: rng.gen_range_usize(1..4),
        mem_units: rng.gen_range_usize(1..3),
        fp_units: rng.gen_range_usize(0..2),
        mispredict_penalty: [28, 0][rng.gen_range_usize(0..2)],
        gshare_log2_entries: 6,
    }
}

fn state(core: &Core<'_>) -> Vec<u8> {
    let mut enc = cdp_snap::Enc::new();
    core.save_state(&mut enc);
    enc.into_bytes()
}

/// An ample step budget: every test program retires within it.
const MAX_STEPS: usize = 1_000_000;

#[test]
fn wakeup_issue_matches_the_reference_scan() {
    let mut rng = Rng::seed_from_u64(0xd1ff_155e);
    for trial in 0..64 {
        let cfg = random_config(&mut rng);
        // With no FP unit an FP uop could never issue.
        let p = random_program(&mut rng, cfg.fp_units > 0);
        let mem = LoggingMemory {
            fixed: [Some(0), Some(3), None, None][rng.gen_range_usize(0..4)],
            max_latency: [2, 60][rng.gen_range_usize(0..2)],
            log: Vec::new(),
        };
        let fast_forward = rng.gen_bool(0.75);
        let ctx = format!("trial {trial} ({} uops, {cfg:?})", p.len());

        let mut core = Core::new(cfg.clone(), &p);
        let mut reference = Core::new(cfg.clone(), &p);
        core.set_fast_forward(fast_forward);
        reference.set_fast_forward(fast_forward);
        let (mut mem_core, mut mem_ref) = (mem.clone(), mem.clone());
        let cut = rng.gen_range_usize(0..2 * p.len());
        let mut at_cut = None;
        let mut steps = 0;
        while !reference.done() {
            assert!(!core.done(), "{ctx}: finished early at step {steps}");
            core.step(&mut mem_core);
            scan_step(&mut reference, &mut mem_ref);
            steps += 1;
            assert!(steps < MAX_STEPS, "{ctx}: no progress");
            let bytes = state(&core);
            assert!(bytes == state(&reference), "{ctx}: state differs after step {steps}");
            assert_eq!(mem_core.log, mem_ref.log, "{ctx}: access order, step {steps}");
            if steps == cut {
                at_cut = Some((bytes, mem_core.log.len()));
            }
        }
        assert!(core.done(), "{ctx}: the reference finished first");
        assert_eq!(core.stats(), reference.stats(), "{ctx}");
        assert_eq!(core.stats().retired as usize, p.len(), "{ctx}");

        // Resume the cut snapshot on a fresh core: the rebuilt wakeup
        // state must continue exactly as the reference did.
        let Some((bytes, accesses)) = at_cut else {
            continue;
        };
        let mut resumed = Core::new(cfg, &p);
        resumed.set_fast_forward(fast_forward);
        let mut dec = cdp_snap::Dec::new(&bytes);
        resumed.restore_state(&mut dec).expect("snapshot restores");
        assert!(dec.is_exhausted(), "{ctx}: trailing bytes");
        let mut mem_resumed = LoggingMemory {
            log: Vec::new(),
            ..mem
        };
        let mut guard = 0;
        while !resumed.done() {
            resumed.step(&mut mem_resumed);
            guard += 1;
            assert!(guard < MAX_STEPS, "{ctx}: resumed run makes no progress");
        }
        assert_eq!(resumed.stats(), reference.stats(), "{ctx}: resumed at step {cut}");
        assert_eq!(resumed.now(), reference.now(), "{ctx}: resumed at step {cut}");
        assert_eq!(mem_resumed.log, mem_ref.log[accesses..], "{ctx}: resumed accesses");
    }
}

/// A snapshot whose unissued mask disagrees with its ROB is refused
/// instead of steering the wakeup state.
#[test]
fn restore_refuses_an_inconsistent_unissued_mask() {
    let p: Program = (0..300)
        .map(|i| Uop::load(i * 4, VirtAddr(0x1000 + i * 64), 1, Some(1)))
        .collect();
    let mut core = Core::new(CoreConfig::default(), &p);
    core.run_until_retired(&mut FixedLatencyMemory { latency: 50 }, 10);
    assert!(core.unissued_mask != 0);
    core.unissued_mask ^= 1 << (core.rob.len() - 1);
    let bytes = state(&core);
    let mut fresh = Core::new(CoreConfig::default(), &p);
    let err = fresh
        .restore_state(&mut cdp_snap::Dec::new(&bytes))
        .expect_err("inconsistent mask must be refused");
    assert!(err.to_string().contains("unissued_mask"), "{err}");
}
