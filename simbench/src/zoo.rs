//! `zoo_sweep`: the tournament entrants over the OLTP/runtime benchmarks,
//! driven through `cdp_sim::Pool`, with a snapshot/resume per cell and a
//! result-store write and read-back per cell.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cdp_sim::{decode_result, encode_result, Pool, RunStats, Simulator};
use cdp_store::ResultStore;
use cdp_workloads::Workload;

use crate::check;
use crate::layers::{self, ratio, Traced};
use crate::metrics::median;
use crate::plan::{self, Cell, WorkloadId};
use crate::run::{
    engine_metrics, fastest, layer_metrics, repeat, scan_metrics, secs, Options, Report,
};

/// Worker threads: the machine's parallelism, capped at 2 so that the
/// figures do not depend on how many cores the host has beyond that.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What one cell of the sweep measured.
#[derive(Clone, Copy, Debug, Default)]
struct CellOut {
    stats: RunStats,
    snapshotted: bool,
    session_s: f64,
    step_s: f64,
    snap_bytes: u64,
    snap_s: f64,
    resume_s: f64,
    encode_s: f64,
    put_s: f64,
    busy_s: f64,
}

/// What one read-back of a cell measured.
#[derive(Clone, Debug)]
struct ReadOut {
    get_s: f64,
    decode_s: f64,
    outcome: Result<(), String>,
}

/// Simulates one cell: steps a session to the middle of its measured
/// window, snapshots it, resumes from the snapshot bytes, finishes, and
/// writes the result to `store`.
fn run_cell(
    cell: &Cell,
    w: &Workload,
    len: u64,
    store: &ResultStore,
    key: u64,
) -> Result<CellOut, String> {
    let start = Instant::now();
    let mut out = CellOut::default();
    let sim = Simulator::try_new(cell.cfg.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut session = sim.session(w, None);
    out.session_s = secs(t);
    let mid = len.saturating_sub(cell.cfg.warmup_uops) / 2;
    loop {
        let t = Instant::now();
        let done = session.step().map_err(|e| e.to_string())?;
        out.step_s += secs(t);
        if done {
            break;
        }
        if !out.snapshotted && session.retired() >= mid {
            let t = Instant::now();
            let bytes = session.snapshot_into(Vec::new());
            out.snap_s = secs(t);
            out.snap_bytes = bytes.len() as u64;
            drop(session);
            let t = Instant::now();
            session = sim.resume(w, None, &bytes).map_err(|e| e.to_string())?;
            out.resume_s = secs(t);
            out.snapshotted = true;
        }
    }
    out.stats = session.finish().0;
    let t = Instant::now();
    let payload = encode_result(&out.stats, None);
    out.encode_s = secs(t);
    let t = Instant::now();
    store.put(key, &payload);
    out.put_s = secs(t);
    out.busy_s = secs(start);
    Ok(out)
}

/// Reads one cell back from `store` and compares it with `expected`.
fn read_cell(store: &ResultStore, key: u64, expected: &RunStats) -> ReadOut {
    let t = Instant::now();
    let bytes = store.get(key);
    let get_s = secs(t);
    let t = Instant::now();
    let decoded = bytes.map(|b| decode_result(&b));
    let decode_s = secs(t);
    let outcome = match decoded {
        None => Err("entry missing from the store".to_string()),
        Some(Err(e)) => Err(format!("decode failed: {e}")),
        Some(Ok((stats, _))) => check::same_stats(expected, &stats),
    };
    ReadOut {
        get_s,
        decode_s,
        outcome,
    }
}

/// The store key of a cell.
fn key(cell: &Cell, seed: u64) -> u64 {
    let mut h = cdp_snap::Fnv1a::new();
    h.write(cell.label.as_bytes());
    h.write_u64(seed);
    h.finish()
}

/// A fresh, empty store directory inside the benchmark's own directory.
fn scratch_store() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".scratch")
        .join(format!(
            "store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Field-wise sum of the counters the zoo's per-layer metrics read.
fn sum_stats(runs: &[RunStats]) -> RunStats {
    let mut s = RunStats::default();
    for r in runs {
        s.cycles += r.cycles;
        s.retired += r.retired;
        s.core.cycles += r.core.cycles;
        s.core.retired += r.core.retired;
        s.core.mispredicts += r.core.mispredicts;
        s.core.forwarded_loads += r.core.forwarded_loads;
        s.core.rob_occupancy_cycles += r.core.rob_occupancy_cycles;
        let (m, x) = (&mut s.mem, &r.mem);
        m.accesses += x.accesses;
        m.l1_hits += x.l1_hits;
        m.l1_misses += x.l1_misses;
        m.l2_demand_misses += x.l2_demand_misses;
        m.l2_miss_merged += x.l2_miss_merged;
        m.dtlb_hits += x.dtlb_hits;
        m.dtlb_misses += x.dtlb_misses;
        m.prefetch_walks += x.prefetch_walks;
        for (sum, c) in [
            (&mut m.stride, &x.stride),
            (&mut m.content, &x.content),
            (&mut m.markov, &x.markov),
            (&mut m.delta, &x.delta),
            (&mut m.jump, &x.jump),
        ] {
            sum.issued += c.issued;
            sum.useful_full += c.useful_full;
            sum.useful_partial += c.useful_partial;
            sum.wasted_evictions += c.wasted_evictions;
        }
        m.drops.resident += x.drops.resident;
        m.drops.in_flight += x.drops.in_flight;
        m.drops.unmapped += x.drops.unmapped;
        m.drops.queue_full += x.drops.queue_full;
        m.drops.too_deep += x.drops.too_deep;
        s.bus.transfers += r.bus.transfers;
        s.bus.busy_cycles += r.bus.busy_cycles;
        s.bus.queue_waits += r.bus.queue_waits;
        if let Some(c) = r.content {
            let sum = s.content.get_or_insert_with(Default::default);
            sum.fills_scanned += c.fills_scanned;
            sum.rescans += c.rescans;
            sum.candidates += c.candidates;
        }
        if let Some(p) = r.perceptron {
            s.perceptron.get_or_insert_with(Default::default).rejected += p.rejected;
        }
    }
    s
}

/// Sums the traced cells of one repetition into one [`Traced`].
fn sum_traced(cells: &[Traced]) -> Traced {
    let stats: Vec<RunStats> = cells.iter().map(|t| t.stats).collect();
    let mut sum = Traced {
        stats: sum_stats(&stats),
        ..Traced::default()
    };
    for t in cells {
        sum.warm_retired += t.warm_retired;
        sum.total_cycles += t.total_cycles;
        sum.step_ns += t.step_ns;
        sum.l1_hit.merge(&t.l1_hit);
        sum.l1_miss.merge(&t.l1_miss);
        sum.feed.merge(&t.feed);
    }
    sum
}

/// What one repetition of the sweep measured.
struct SweepRep {
    /// Wall time of both passes: cells, then read-backs.
    wall_s: f64,
    /// Wall time of the cell pass alone.
    cell_wall_s: f64,
    /// Summed stepping time of every cell.
    step_s: f64,
    cells: Vec<CellOut>,
    reads: Vec<ReadOut>,
}

/// Mean of `f` over `items`.
fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    ratio(items.iter().map(f).sum(), items.len() as f64)
}

/// Runs the sweep repeatedly for `opts.seconds` and fills `report`.
///
/// Every repetition builds the five workloads (the set-up), runs the
/// cell pass and the read-back pass on the pool (the timed sweep) and, in
/// a traced run, every cell once more through the timing adapters. Host
/// noise only ever adds time, so throughput and the per-layer split come
/// from the fastest repetition; set-up times are medians.
pub fn run(opts: &Options, report: &mut Report) {
    let cells = plan::cells(WorkloadId::ZooSweep, opts.size);
    let benches = plan::benches(WorkloadId::ZooSweep);
    let pool = Pool::new(workers());
    let mut first: Option<Vec<RunStats>> = None;
    let mut reps: Vec<SweepRep> = Vec::new();
    let mut traced_reps: Vec<Traced> = Vec::new();
    let (mut setup, mut fingerprint) = (Vec::new(), Vec::new());
    let mut quarantined = 0u64;
    let mut uops = 0u64;
    let peak_mib = repeat(opts.seconds, || {
        let t = Instant::now();
        let workloads: Vec<Workload> = benches
            .iter()
            .map(|&b| plan::build(WorkloadId::ZooSweep, opts.size, b, opts.seed))
            .collect();
        setup.push(secs(t));
        let lens: Vec<u64> = workloads.iter().map(check::trace_len).collect();
        let of = |c: &Cell| {
            let i = benches
                .iter()
                .position(|&b| b == c.bench)
                .expect("cell benchmark is built");
            (&workloads[i], lens[i])
        };
        uops = cells.iter().map(|c| of(c).1).sum();

        let dir = scratch_store();
        let store = match ResultStore::open(&dir) {
            Ok(s) => s,
            Err(e) => return report.op("open store", Err(e.to_string())),
        };
        let keys: Vec<u64> = cells.iter().map(|c| key(c, opts.seed)).collect();
        let t = Instant::now();
        let outs = pool.try_run(
            cells
                .iter()
                .zip(&keys)
                .map(|(c, &k)| {
                    let (w, len) = of(c);
                    let store = &store;
                    move || run_cell(c, w, len, store, k)
                })
                .collect(),
        );
        let cell_wall_s = secs(t);
        let expected: Vec<Option<RunStats>> = outs
            .iter()
            .map(|o| o.as_ref().and_then(|r| r.as_ref().ok()).map(|c| c.stats))
            .collect();
        let reads = pool.try_run(
            keys.iter()
                .zip(&expected)
                .filter_map(|(&k, e)| e.map(|e| (k, e)))
                .map(|(k, e)| {
                    let store = &store;
                    move || read_cell(store, k, &e)
                })
                .collect(),
        );
        let wall_s = secs(t);
        let store_stats = store.stats();
        quarantined += store_stats.quarantined;
        let _ = std::fs::remove_dir_all(&dir);

        // Checks: every cell, every write, every read.
        let mut ok: Vec<CellOut> = Vec::new();
        for (i, (c, o)) in cells.iter().zip(&outs).enumerate() {
            let outcome = match o {
                None => Err("cell panicked".to_string()),
                Some(Err(e)) => Err(e.clone()),
                Some(Ok(out)) => {
                    ok.push(*out);
                    let reference = first.as_ref().map_or(&out.stats, |f| &f[i]);
                    check::identities(&out.stats)
                        .and_then(|()| {
                            check::all_retired_within(
                                of(c).1,
                                c.cfg.warmup_uops,
                                c.cfg.core.retire_width as u64,
                                &out.stats,
                            )
                        })
                        .and_then(|()| {
                            if out.snapshotted {
                                Ok(())
                            } else {
                                Err("no window boundary past the midpoint to snapshot at".into())
                            }
                        })
                        .and_then(|()| check::same_stats(reference, &out.stats))
                }
            };
            report.op(&c.label, outcome);
        }
        for i in 0..ok.len() as u64 {
            report.op(
                "store write",
                if i < store_stats.write_failures {
                    Err("write dropped by the store".into())
                } else {
                    Ok(())
                },
            );
        }
        let reads: Vec<ReadOut> = reads
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| ReadOut {
                    get_s: 0.0,
                    decode_s: 0.0,
                    outcome: Err("read-back panicked".into()),
                })
            })
            .collect();
        for r in &reads {
            report.op("store read", r.outcome.clone());
        }
        if first.is_none() && ok.len() == cells.len() {
            first = Some(ok.iter().map(|c| c.stats).collect());
        }

        if opts.trace {
            let t = Instant::now();
            for c in &cells {
                let sim = Simulator::new(c.cfg.clone());
                std::hint::black_box(sim.snapshot_fingerprint(of(c).0, None));
            }
            fingerprint.push(secs(t) / cells.len() as f64);
            let traced = pool.try_run(
                cells
                    .iter()
                    .map(|c| {
                        let (w, _) = of(c);
                        move || layers::run_traced(&c.cfg, w)
                    })
                    .collect(),
            );
            let mut all = Vec::new();
            for ((c, t), o) in cells.iter().zip(traced).zip(&expected) {
                let label = format!("{} (traced)", c.label);
                let traced = match t {
                    None => Err("traced cell panicked".to_string()),
                    Some(r) => r.map_err(|e| e.to_string()),
                };
                report.op(
                    &label,
                    traced.and_then(|tr| {
                        all.push(tr);
                        check::identities(&tr.stats)
                            .and_then(|()| check::all_retired(of(c).1, tr.warm_retired, &tr.stats))
                            .and_then(|()| match o {
                                Some(s) => check::same_stats(s, &tr.stats),
                                None => Err("no untraced run to compare with".into()),
                            })
                    }),
                );
            }
            if all.len() == cells.len() {
                traced_reps.push(sum_traced(&all));
            }
        }
        reps.push(SweepRep {
            wall_s,
            cell_wall_s,
            step_s: ok.iter().map(|c| c.step_s).sum(),
            cells: ok,
            reads,
        });
    });

    if quarantined > 0 {
        report.check("store", Err(format!("{quarantined} entries quarantined")));
    }
    let (Some(stats), Some(best)) = (first, fastest(&reps, |r| r.wall_s)) else {
        return;
    };
    report.digest = check::digest(&stats);
    let m = &mut report.metrics;
    if !opts.trace {
        m.set("muops_per_s", ratio(uops as f64, best.wall_s) / 1e6);
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mib", peak_mib);
        m.set("sim_ipc", sum_stats(&stats).ipc());
        return;
    }
    m.set("workloads.build_s", median(&setup));
    m.set(
        "sim.session_new_ms",
        mean(&best.cells, |c| c.session_s) * 1e3,
    );
    m.set("sim.fingerprint_ms", median(&fingerprint) * 1e3);
    m.set("snap.bytes", mean(&best.cells, |c| c.snap_bytes as f64));
    m.set("snap.encode_ms", mean(&best.cells, |c| c.snap_s) * 1e3);
    m.set("snap.resume_ms", mean(&best.cells, |c| c.resume_s) * 1e3);
    m.set("store.put_ms", mean(&best.cells, |c| c.put_s) * 1e3);
    m.set("store.get_ms", mean(&best.reads, |r| r.get_s) * 1e3);
    m.set("store.quarantined", quarantined);
    m.set("persist.encode_us", mean(&best.cells, |c| c.encode_s) * 1e6);
    m.set("persist.decode_us", mean(&best.reads, |r| r.decode_s) * 1e6);
    let busy: Vec<f64> = best.cells.iter().map(|c| c.busy_s).collect();
    m.set("exec.cells", cells.len() as u64);
    m.set("exec.cell_s_p50", median(&busy));
    m.set("exec.cell_s_max", busy.iter().copied().fold(0.0, f64::max));
    m.set(
        "exec.idle_frac",
        1.0 - ratio(busy.iter().sum(), pool.jobs() as f64 * best.cell_wall_s),
    );
    let Some(traced) = fastest(&traced_reps, |t| t.step_ns as f64) else {
        return;
    };
    let plain = reps.iter().map(|r| r.step_s).fold(f64::INFINITY, f64::min);
    m.set(
        "trace.overhead_frac",
        traced.step_ns as f64 / 1e9 / plain - 1.0,
    );
    layer_metrics(m, traced, uops);
    let mem = &traced.stats.mem;
    for (name, c) in [
        ("markov", mem.markov),
        ("delta", mem.delta),
        ("jump", mem.jump),
    ] {
        engine_metrics(m, name, c);
    }
    m.set(
        "prefetch.perceptron.rejected",
        traced.stats.perceptron.map_or(0, |p| p.rejected),
    );

    let cdp = cells
        .iter()
        .find_map(|c| c.cfg.prefetchers.content)
        .expect("the zoo has a content-prefetching entrant");
    let images: Vec<Workload> = benches
        .iter()
        .map(|&b| plan::build(WorkloadId::ZooSweep, opts.size, b, opts.seed))
        .collect();
    let images: Vec<&Workload> = images.iter().collect();
    let scan_ns = layers::scan_fill_ns(&cdp, &images, opts.seed, 200);
    let scans = stats.iter().map(layers::scans).sum();
    scan_metrics(m, scan_ns, scans, traced.step_ns as f64);
}
