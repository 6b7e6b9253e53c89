//! Result payload codec for the persistent store (`cdp-store`).
//!
//! The store moves opaque bytes; this module defines what those bytes
//! *are* for a simulation result: a versioned encoding of
//! ([`RunStats`], `Option<`[`Observation`]`>`) — exactly the pair the
//! in-memory [`crate::exec::ResultCache`] holds per cell. The encoding
//! rides inside a checksummed `cdp-snap` section, so this layer only
//! needs structural validation (version gate, length guards); bit-level
//! damage is caught by the envelope before these bytes are ever decoded.
//!
//! The payload carries its own version, independent of the store's
//! envelope version: the envelope describes *how entries are framed*,
//! this describes *what a result contains*. Bumping either refuses old
//! files safely (typed [`SnapshotError::UnsupportedVersion`]), and a
//! refused entry is just a cache miss — the cell recomputes.

use cdp_core::CoreStats;
use cdp_mem::BusStats;
use cdp_obs::trace::{load_trace_data, save_trace_data, TraceEvent};
use cdp_prefetch::adaptive::AdaptiveStats;
use cdp_prefetch::{
    ContentStats, DeltaStats, JumpStats, MarkovStats, PerceptronStats, StreamStats, StrideStats,
};
use cdp_snap::{Dec, Enc};
use cdp_types::{ContentConfig, SnapshotError, VamConfig};

use crate::observe::{MetricsWindow, Observation};
use crate::system::RunStats;

/// Version of the result payload encoding. Bump on any layout change;
/// a build refuses payloads of any other version (and recomputes)
/// instead of misdecoding them. History: v1 — initial layout; v2 —
/// appends the optional latency-attribution [`cdp_obs::Profile`] to
/// observations; v3 — carries the delta, jump, and perceptron engine
/// internals. Older payloads are refused rather than upgraded: a v2
/// entry for a zoo cell cannot show that those fields are missing.
pub const RESULT_VERSION: u32 = 3;

/// Encodes a cached cell result — run statistics plus the optional
/// observation — into self-contained payload bytes for the store.
#[must_use]
pub fn encode_result(stats: &RunStats, obs: Option<&Observation>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(RESULT_VERSION);
    save_run_stats(stats, &mut e);
    match obs {
        Some(o) => {
            e.bool(true);
            save_observation(o, &mut e);
        }
        None => e.bool(false),
    }
    e.into_bytes()
}

/// Decodes payload bytes written by [`encode_result`].
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] on truncation, a payload version
/// other than [`RESULT_VERSION`], or structurally impossible values. Callers treat any error
/// as a miss (recompute) after the store quarantines the entry.
pub fn decode_result(bytes: &[u8]) -> Result<(RunStats, Option<Observation>), SnapshotError> {
    let mut d = Dec::new(bytes);
    let version = d.u32("result payload version")?;
    if version != RESULT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: RESULT_VERSION,
        });
    }
    let stats = load_run_stats(&mut d)?;
    let obs = if d.bool("result has observation")? {
        Some(load_observation(&mut d)?)
    } else {
        None
    };
    if !d.is_exhausted() {
        return Err(SnapshotError::Corrupt {
            context: "result payload trailing bytes",
        });
    }
    Ok((stats, obs))
}

fn save_run_stats(s: &RunStats, e: &mut Enc) {
    e.u64(s.cycles);
    e.u64(s.retired);
    save_core_stats(&s.core, e);
    s.mem.save_state(e);
    opt(e, s.content.as_ref(), save_content_stats);
    opt(e, s.stride.as_ref(), save_stride_stats);
    opt(e, s.markov.as_ref(), save_markov_stats);
    opt(e, s.stream.as_ref(), save_stream_stats);
    match &s.adaptive {
        Some((a, cfg)) => {
            e.bool(true);
            e.u64(a.windows);
            e.u64(a.tightened);
            e.u64(a.loosened);
            save_content_config(cfg, e);
        }
        None => e.bool(false),
    }
    opt(e, s.delta.as_ref(), save_delta_stats);
    opt(e, s.jump.as_ref(), save_jump_stats);
    opt(e, s.perceptron.as_ref(), save_perceptron_stats);
    e.u64(s.bus.transfers);
    e.u64(s.bus.demand_transfers);
    e.u64(s.bus.busy_cycles);
    e.u64(s.bus.queue_waits);
}

fn load_run_stats(d: &mut Dec<'_>) -> Result<RunStats, SnapshotError> {
    let mut s = RunStats {
        cycles: d.u64("result cycles")?,
        retired: d.u64("result retired")?,
        core: load_core_stats(d)?,
        ..RunStats::default()
    };
    s.mem.restore_state(d)?;
    s.content = opt_load(d, "result content stats", load_content_stats)?;
    s.stride = opt_load(d, "result stride stats", load_stride_stats)?;
    s.markov = opt_load(d, "result markov stats", load_markov_stats)?;
    s.stream = opt_load(d, "result stream stats", load_stream_stats)?;
    s.adaptive = if d.bool("result has adaptive")? {
        let a = AdaptiveStats {
            windows: d.u64("adaptive windows")?,
            tightened: d.u64("adaptive tightened")?,
            loosened: d.u64("adaptive loosened")?,
        };
        Some((a, load_content_config(d)?))
    } else {
        None
    };
    s.delta = opt_load(d, "result delta stats", load_delta_stats)?;
    s.jump = opt_load(d, "result jump stats", load_jump_stats)?;
    s.perceptron = opt_load(d, "result perceptron stats", load_perceptron_stats)?;
    s.bus = BusStats {
        transfers: d.u64("bus transfers")?,
        demand_transfers: d.u64("bus demand_transfers")?,
        busy_cycles: d.u64("bus busy_cycles")?,
        queue_waits: d.u64("bus queue_waits")?,
    };
    Ok(s)
}

fn opt<T>(e: &mut Enc, v: Option<&T>, save: impl Fn(&T, &mut Enc)) {
    match v {
        Some(v) => {
            e.bool(true);
            save(v, e);
        }
        None => e.bool(false),
    }
}

fn opt_load<T>(
    d: &mut Dec<'_>,
    context: &'static str,
    load: impl Fn(&mut Dec<'_>) -> Result<T, SnapshotError>,
) -> Result<Option<T>, SnapshotError> {
    if d.bool(context)? {
        Ok(Some(load(d)?))
    } else {
        Ok(None)
    }
}

fn save_core_stats(c: &CoreStats, e: &mut Enc) {
    e.u64(c.cycles);
    e.u64(c.retired);
    e.u64(c.loads);
    e.u64(c.stores);
    e.u64(c.branches);
    e.u64(c.mispredicts);
    e.u64(c.redirect_stall_cycles);
    e.u64(c.forwarded_loads);
    e.u64(c.rob_occupancy_cycles);
}

fn load_core_stats(d: &mut Dec<'_>) -> Result<CoreStats, SnapshotError> {
    Ok(CoreStats {
        cycles: d.u64("core cycles")?,
        retired: d.u64("core retired")?,
        loads: d.u64("core loads")?,
        stores: d.u64("core stores")?,
        branches: d.u64("core branches")?,
        mispredicts: d.u64("core mispredicts")?,
        redirect_stall_cycles: d.u64("core redirect_stall_cycles")?,
        forwarded_loads: d.u64("core forwarded_loads")?,
        rob_occupancy_cycles: d.u64("core rob_occupancy_cycles")?,
    })
}

fn save_content_stats(c: &ContentStats, e: &mut Enc) {
    e.u64(c.fills_scanned);
    e.u64(c.rescans);
    e.u64(c.candidates);
    e.u64(c.emitted);
    e.u64(c.depth_terminations);
}

fn load_content_stats(d: &mut Dec<'_>) -> Result<ContentStats, SnapshotError> {
    Ok(ContentStats {
        fills_scanned: d.u64("content fills_scanned")?,
        rescans: d.u64("content rescans")?,
        candidates: d.u64("content candidates")?,
        emitted: d.u64("content emitted")?,
        depth_terminations: d.u64("content depth_terminations")?,
    })
}

fn save_stride_stats(s: &StrideStats, e: &mut Enc) {
    e.u64(s.observed);
    e.u64(s.emitted);
    e.u64(s.conflicts);
}

fn load_stride_stats(d: &mut Dec<'_>) -> Result<StrideStats, SnapshotError> {
    Ok(StrideStats {
        observed: d.u64("stride observed")?,
        emitted: d.u64("stride emitted")?,
        conflicts: d.u64("stride conflicts")?,
    })
}

fn save_markov_stats(m: &MarkovStats, e: &mut Enc) {
    e.u64(m.observed);
    e.u64(m.stab_hits);
    e.u64(m.emitted);
    e.u64(m.trained);
    e.u64(m.evictions);
}

fn load_markov_stats(d: &mut Dec<'_>) -> Result<MarkovStats, SnapshotError> {
    Ok(MarkovStats {
        observed: d.u64("markov observed")?,
        stab_hits: d.u64("markov stab_hits")?,
        emitted: d.u64("markov emitted")?,
        trained: d.u64("markov trained")?,
        evictions: d.u64("markov evictions")?,
    })
}

fn save_stream_stats(s: &StreamStats, e: &mut Enc) {
    e.u64(s.observed);
    e.u64(s.confirmed);
    e.u64(s.allocated);
    e.u64(s.emitted);
}

fn load_stream_stats(d: &mut Dec<'_>) -> Result<StreamStats, SnapshotError> {
    Ok(StreamStats {
        observed: d.u64("stream observed")?,
        confirmed: d.u64("stream confirmed")?,
        allocated: d.u64("stream allocated")?,
        emitted: d.u64("stream emitted")?,
    })
}

fn save_delta_stats(s: &DeltaStats, e: &mut Enc) {
    e.u64(s.observed);
    e.u64(s.table_hits);
    e.u64(s.emitted);
    e.u64(s.trained);
    e.u64(s.evictions);
}

fn load_delta_stats(d: &mut Dec<'_>) -> Result<DeltaStats, SnapshotError> {
    Ok(DeltaStats {
        observed: d.u64("delta observed")?,
        table_hits: d.u64("delta table_hits")?,
        emitted: d.u64("delta emitted")?,
        trained: d.u64("delta trained")?,
        evictions: d.u64("delta evictions")?,
    })
}

fn save_jump_stats(s: &JumpStats, e: &mut Enc) {
    e.u64(s.observed);
    e.u64(s.trained);
    e.u64(s.table_hits);
    e.u64(s.emitted);
    e.u64(s.evictions);
}

fn load_jump_stats(d: &mut Dec<'_>) -> Result<JumpStats, SnapshotError> {
    Ok(JumpStats {
        observed: d.u64("jump observed")?,
        trained: d.u64("jump trained")?,
        table_hits: d.u64("jump table_hits")?,
        emitted: d.u64("jump emitted")?,
        evictions: d.u64("jump evictions")?,
    })
}

fn save_perceptron_stats(s: &PerceptronStats, e: &mut Enc) {
    e.u64(s.considered);
    e.u64(s.accepted);
    e.u64(s.rejected);
    e.u64(s.trained_useful);
    e.u64(s.trained_wasted);
    e.u64(s.false_negatives);
}

fn load_perceptron_stats(d: &mut Dec<'_>) -> Result<PerceptronStats, SnapshotError> {
    Ok(PerceptronStats {
        considered: d.u64("perceptron considered")?,
        accepted: d.u64("perceptron accepted")?,
        rejected: d.u64("perceptron rejected")?,
        trained_useful: d.u64("perceptron trained_useful")?,
        trained_wasted: d.u64("perceptron trained_wasted")?,
        false_negatives: d.u64("perceptron false_negatives")?,
    })
}

fn save_content_config(c: &ContentConfig, e: &mut Enc) {
    e.u32(c.vam.compare_bits);
    e.u32(c.vam.filter_bits);
    e.u32(c.vam.align_bits);
    e.usize(c.vam.scan_step);
    e.u8(c.depth_threshold);
    e.bool(c.reinforcement);
    e.u8(c.reinforcement_margin);
    e.u32(c.prev_lines);
    e.u32(c.next_lines);
}

fn load_content_config(d: &mut Dec<'_>) -> Result<ContentConfig, SnapshotError> {
    Ok(ContentConfig {
        vam: VamConfig {
            compare_bits: d.u32("vam compare_bits")?,
            filter_bits: d.u32("vam filter_bits")?,
            align_bits: d.u32("vam align_bits")?,
            scan_step: d.usize("vam scan_step")?,
        },
        depth_threshold: d.u8("content depth_threshold")?,
        reinforcement: d.bool("content reinforcement")?,
        reinforcement_margin: d.u8("content reinforcement_margin")?,
        prev_lines: d.u32("content prev_lines")?,
        next_lines: d.u32("content next_lines")?,
    })
}

fn save_observation(o: &Observation, e: &mut Enc) {
    e.seq_len(o.windows.len());
    for w in &o.windows {
        w.save_state(e);
    }
    e.seq_len(o.events.len());
    for ev in &o.events {
        e.u64(ev.seq);
        e.u64(ev.at);
        save_trace_data(&ev.data, e);
    }
    e.u64(o.trace_recorded);
    e.u64(o.trace_overwritten);
    e.u64(o.trace_sampled_out);
    opt(e, o.profile.as_ref(), cdp_obs::Profile::save_state);
}

fn load_observation(d: &mut Dec<'_>) -> Result<Observation, SnapshotError> {
    // MetricsWindow is 16 fixed-width fields; 17 is the smallest
    // possible encoding (usize can shrink, the u64s cannot... both are
    // fixed 8 bytes here, but a conservative floor still bounds the
    // allocation).
    let n_windows = d.seq_len(16 * 8, "observation window count")?;
    let mut windows = Vec::with_capacity(n_windows);
    for _ in 0..n_windows {
        windows.push(MetricsWindow::restore_state(d)?);
    }
    let n_events = d.seq_len(17, "observation event count")?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        events.push(TraceEvent {
            seq: d.u64("event seq")?,
            at: d.u64("event at")?,
            data: load_trace_data(d)?,
        });
    }
    let trace_recorded = d.u64("observation trace_recorded")?;
    let trace_overwritten = d.u64("observation trace_overwritten")?;
    let trace_sampled_out = d.u64("observation trace_sampled_out")?;
    let profile = opt_load(
        d,
        "observation has profile",
        cdp_obs::Profile::restore_state,
    )?;
    Ok(Observation {
        windows,
        events,
        trace_recorded,
        trace_overwritten,
        trace_sampled_out,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_obs::trace::TraceData;

    fn sample_stats() -> RunStats {
        let mut s = RunStats {
            cycles: 123_456,
            retired: 99_000,
            ..RunStats::default()
        };
        s.core.loads = 42_000;
        s.core.mispredicts = 77;
        s.mem.l2_demand_misses = 1_234;
        s.mem.stride.issued = 500;
        s.mem.content.useful_full = 300;
        s.mem.markov.useful_partial = 4;
        s.content = Some(ContentStats {
            fills_scanned: 10,
            rescans: 2,
            candidates: 8,
            emitted: 20,
            depth_terminations: 1,
        });
        s.adaptive = Some((
            AdaptiveStats {
                windows: 4,
                tightened: 1,
                loosened: 2,
            },
            ContentConfig::tuned(),
        ));
        s.delta = Some(DeltaStats {
            observed: 31,
            table_hits: 12,
            emitted: 9,
            trained: 30,
            evictions: 3,
        });
        s.jump = Some(JumpStats {
            observed: 41,
            trained: 17,
            table_hits: 8,
            emitted: 6,
            evictions: 2,
        });
        s.perceptron = Some(PerceptronStats {
            considered: 50,
            accepted: 35,
            rejected: 15,
            trained_useful: 20,
            trained_wasted: 11,
            false_negatives: 4,
        });
        s.bus.transfers = 999;
        s
    }

    fn sample_observation() -> Observation {
        Observation {
            windows: vec![MetricsWindow {
                window: 0,
                retired: 1000,
                cycles: 2000,
                ..MetricsWindow::default()
            }],
            events: vec![TraceEvent {
                seq: 7,
                at: 1234,
                data: TraceData::VamAccept { word: 0x1000_0040 },
            }],
            trace_recorded: 8,
            trace_overwritten: 1,
            trace_sampled_out: 2,
            profile: Some({
                let mut p = cdp_obs::Profile::new();
                for v in [3u64, 5, 900, 4096, 1 << 40] {
                    p.load_to_use.record(v);
                    p.rob_stall.record(v / 2);
                }
                p.mshr_occupancy.record(4);
                p
            }),
        }
    }

    #[test]
    fn round_trips_stats_without_observation() {
        let stats = sample_stats();
        let bytes = encode_result(&stats, None);
        let (back, obs) = decode_result(&bytes).unwrap();
        assert!(obs.is_none());
        assert_eq!(format!("{stats:?}"), format!("{back:?}"));
    }

    #[test]
    fn round_trips_stats_with_observation() {
        let stats = sample_stats();
        let obs = sample_observation();
        let bytes = encode_result(&stats, Some(&obs));
        let (back_stats, back_obs) = decode_result(&bytes).unwrap();
        assert_eq!(format!("{stats:?}"), format!("{back_stats:?}"));
        assert_eq!(format!("{obs:?}"), format!("{:?}", back_obs.unwrap()));
    }

    #[test]
    fn default_stats_round_trip() {
        let stats = RunStats::default();
        let (back, obs) = decode_result(&encode_result(&stats, None)).unwrap();
        assert!(obs.is_none());
        assert_eq!(format!("{stats:?}"), format!("{back:?}"));
    }

    #[test]
    fn pre_v3_payloads_are_refused_typed() {
        // v1/v2 layouts lack the delta/jump/perceptron internals; a
        // decoded zoo cell would silently read them as `None`. Both must
        // be refused so the store quarantines and recomputes them.
        for old in [1u32, 2] {
            let mut bytes = encode_result(&sample_stats(), Some(&sample_observation()));
            bytes[0..4].copy_from_slice(&old.to_le_bytes());
            match decode_result(&bytes) {
                Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, old);
                    assert_eq!(supported, RESULT_VERSION);
                }
                other => panic!("v{old} payload must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn future_version_is_refused_typed() {
        let mut bytes = encode_result(&RunStats::default(), None);
        bytes[0..4].copy_from_slice(&(RESULT_VERSION + 1).to_le_bytes());
        match decode_result(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, RESULT_VERSION + 1);
                assert_eq!(supported, RESULT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_refused_typed() {
        let bytes = encode_result(&sample_stats(), Some(&sample_observation()));
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            match decode_result(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} must not decode"),
            }
        }
    }

    #[test]
    fn distribution_slot_disagreeing_with_its_counter_is_refused() {
        let stats = sample_stats();
        let bytes = encode_result(&stats, None);
        let mut mem = Enc::new();
        stats.mem.save_state(&mut mem);
        let mem = mem.into_bytes();
        let start = bytes
            .windows(mem.len())
            .position(|w| w == mem.as_slice())
            .expect("the payload holds the memory statistics");
        // The seven Figure 10 slots precede the last two memory counters
        // (injected_pollution, writebacks).
        let slots = start + mem.len() - 2 * 8 - 7 * 8;
        let names = [
            "dist stride_full",
            "dist stride_partial",
            "dist cpf_full",
            "dist cpf_partial",
            "dist markov_full",
            "dist markov_partial",
            "dist unmasked_misses",
        ];
        for (i, name) in names.into_iter().enumerate() {
            let mut bad = bytes.clone();
            bad[slots + 8 * i] ^= 1;
            match decode_result(&bad) {
                Err(SnapshotError::Corrupt { context }) => assert_eq!(context, name),
                other => panic!("patched {name} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let mut bytes = encode_result(&RunStats::default(), None);
        bytes.extend_from_slice(&[0xAA; 8]);
        match decode_result(&bytes) {
            Err(SnapshotError::Corrupt { context }) => {
                assert!(context.contains("trailing"), "{context}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
