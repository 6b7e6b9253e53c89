//! Memory-system statistics.
//!
//! Everything the paper's evaluation reads out of the memory system:
//! MPTU inputs (§2.2), prefetch coverage/accuracy inputs (§4.1), the
//! timeliness classification of Figure 10 (full vs partial latency
//! masking per engine), and drop accounting for the arbiters.

use cdp_types::{EngineId, SnapshotError};

/// Per-engine prefetch counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Prefetches issued to the memory system (post-drop-checks).
    pub issued: u64,
    /// Demand hits on this engine's resident prefetched lines
    /// (full latency mask; counted once per line).
    pub useful_full: u64,
    /// Demands that joined this engine's in-flight prefetch
    /// (partial latency mask).
    pub useful_partial: u64,
    /// Prefetched lines evicted without ever being demanded.
    pub wasted_evictions: u64,
}

impl EngineCounters {
    /// Total useful prefetches (full + partial).
    pub fn useful(&self) -> u64 {
        self.useful_full + self.useful_partial
    }

    /// accuracy = useful / issued (Equation 2 of the paper).
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful() as f64 / self.issued as f64
        }
    }

    /// wasted = evicted-unused / issued — the pollution-pressure ratio
    /// complementing [`EngineCounters::accuracy`].
    pub fn wasted(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.wasted_evictions as f64 / self.issued as f64
        }
    }
}

/// Why a prefetch request was dropped before issue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropCounters {
    /// Target line already resident in the L2.
    pub resident: u64,
    /// Matching transaction already in flight (request merged/promoted).
    pub in_flight: u64,
    /// Candidate page had no virtual-to-physical mapping.
    pub unmapped: u64,
    /// L2 request queue full (§3.5: "the prefetch request is squashed").
    pub queue_full: u64,
    /// Chain depth exceeded the threshold.
    pub too_deep: u64,
}

impl DropCounters {
    /// Total dropped.
    pub fn total(&self) -> u64 {
        self.resident + self.in_flight + self.unmapped + self.queue_full + self.too_deep
    }
}

/// The Figure 10 classification of demand L2 load requests, a view over
/// the engine counters ([`MemStats::distribution`]).
///
/// Denominator: demand accesses that *would have missed* the L2 without
/// prefetching — i.e. raw misses plus demands served (fully or partially)
/// by any engine's prefetched line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestDistribution {
    /// Demand hits on stride-prefetched resident lines.
    pub stride_full: u64,
    /// Demands that joined in-flight stride prefetches.
    pub stride_partial: u64,
    /// Demand hits on content-prefetched resident lines.
    pub cpf_full: u64,
    /// Demands that joined in-flight content prefetches.
    pub cpf_partial: u64,
    /// Demand hits on Markov-, delta- or jump-prefetched resident lines.
    pub other_full: u64,
    /// Demands that joined in-flight Markov, delta or jump prefetches.
    pub other_partial: u64,
    /// Unmasked demand misses.
    pub unmasked_misses: u64,
}

impl RequestDistribution {
    /// Total classified requests.
    pub fn total(&self) -> u64 {
        self.stride_full
            + self.stride_partial
            + self.cpf_full
            + self.cpf_partial
            + self.other_full
            + self.other_partial
            + self.unmasked_misses
    }

    /// Fractions in Figure 10 order:
    /// `[str-full, str-part, cpf-full, cpf-part, ul2-miss]`
    /// (the other engines fold into the miss column when present; the
    /// paper's Figure 10 has only stride and content).
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().max(1) as f64;
        [
            self.stride_full as f64 / t,
            self.stride_partial as f64 / t,
            self.cpf_full as f64 / t,
            self.cpf_partial as f64 / t,
            (self.unmasked_misses + self.other_full + self.other_partial) as f64 / t,
        ]
    }

    /// Of the non-stride-covered requests, the fraction fully eliminated
    /// by the content prefetcher (§4.2.3 reports 43%).
    pub fn cpf_full_share_of_nonstride(&self) -> f64 {
        let nonstride = self.cpf_full + self.cpf_partial + self.unmasked_misses;
        if nonstride == 0 {
            0.0
        } else {
            self.cpf_full as f64 / nonstride as f64
        }
    }

    /// Of content prefetches that masked any latency, the fraction that
    /// masked it fully (§4.2.3 reports 72%).
    pub fn cpf_fully_masked_share(&self) -> f64 {
        let masked = self.cpf_full + self.cpf_partial;
        if masked == 0 {
            0.0
        } else {
            self.cpf_full as f64 / masked as f64
        }
    }
}

/// Aggregate memory-system statistics for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand data accesses (loads + stores reaching the hierarchy).
    pub accesses: u64,
    /// L1 data cache hits.
    pub l1_hits: u64,
    /// L1 data cache misses.
    pub l1_misses: u64,
    /// Demand accesses reaching the L2.
    pub l2_demand_accesses: u64,
    /// Demand hits in the L2 (including hits on prefetched lines).
    pub l2_demand_hits: u64,
    /// Demand L2 misses that found a matching fill in flight.
    pub l2_miss_merged: u64,
    /// Demand L2 misses that went to memory (the MPTU numerator).
    pub l2_demand_misses: u64,
    /// DTLB hits.
    pub dtlb_hits: u64,
    /// DTLB misses (page walks performed).
    pub dtlb_misses: u64,
    /// Page walks triggered by prefetch-candidate translation (§4.2.2:
    /// "over a third of the prefetch requests issued required an address
    /// translation not present in the data TLB").
    pub prefetch_walks: u64,
    /// Prefetch translations served by the DTLB.
    pub prefetch_tlb_hits: u64,
    /// Reinforcement rescans performed (§3.4.2).
    pub rescans: u64,
    /// Lines whose stored depth was promoted by a hit.
    pub depth_promotions: u64,
    /// Stride-engine counters.
    pub stride: EngineCounters,
    /// Content-engine counters.
    pub content: EngineCounters,
    /// Markov-engine counters.
    pub markov: EngineCounters,
    /// Delta-engine counters.
    pub delta: EngineCounters,
    /// Jump-engine counters.
    pub jump: EngineCounters,
    /// Prefetch drop accounting.
    pub drops: DropCounters,
    /// Pollution-study injections (bad prefetches forced into the L2).
    pub injected_pollution: u64,
    /// Dirty lines written back on eviction (0 unless
    /// `SystemConfig::model_writebacks` is on).
    pub writebacks: u64,
}

impl MemStats {
    /// Misses per 1000 uops, given the retired-uop count of the same
    /// measurement window (the paper's MPTU metric, §2.2).
    pub fn mptu(&self, retired_uops: u64) -> f64 {
        if retired_uops == 0 {
            0.0
        } else {
            self.l2_demand_misses as f64 * 1000.0 / retired_uops as f64
        }
    }

    /// Counters for one engine; `None` for [`EngineId::Demand`], which
    /// has no prefetch counters.
    pub fn engine(&self, e: EngineId) -> Option<&EngineCounters> {
        match e {
            EngineId::Stride => Some(&self.stride),
            EngineId::Content => Some(&self.content),
            EngineId::Markov => Some(&self.markov),
            EngineId::Delta => Some(&self.delta),
            EngineId::Jump => Some(&self.jump),
            EngineId::Demand => None,
        }
    }

    /// Mutable [`MemStats::engine`].
    pub fn engine_mut(&mut self, e: EngineId) -> Option<&mut EngineCounters> {
        match e {
            EngineId::Stride => Some(&mut self.stride),
            EngineId::Content => Some(&mut self.content),
            EngineId::Markov => Some(&mut self.markov),
            EngineId::Delta => Some(&mut self.delta),
            EngineId::Jump => Some(&mut self.jump),
            EngineId::Demand => None,
        }
    }

    /// The Figure 10 classification: every demand that would have missed
    /// the L2 without prefetching, by the engine that masked it.
    pub fn distribution(&self) -> RequestDistribution {
        let other = [self.markov, self.delta, self.jump];
        RequestDistribution {
            stride_full: self.stride.useful_full,
            stride_partial: self.stride.useful_partial,
            cpf_full: self.content.useful_full,
            cpf_partial: self.content.useful_partial,
            other_full: other.iter().map(|c| c.useful_full).sum(),
            other_partial: other.iter().map(|c| c.useful_partial).sum(),
            unmasked_misses: self.l2_demand_misses,
        }
    }

    /// The serialized form's seven Figure 10 slots, with their decode
    /// contexts. Each duplicates one counter, which keeps the snapshot
    /// and result layouts fixed and lets a restore check the counters
    /// against them.
    fn distribution_slots(&self) -> [(u64, &'static str); 7] {
        [
            (self.stride.useful_full, "dist stride_full"),
            (self.stride.useful_partial, "dist stride_partial"),
            (self.content.useful_full, "dist cpf_full"),
            (self.content.useful_partial, "dist cpf_partial"),
            (self.markov.useful_full, "dist markov_full"),
            (self.markov.useful_partial, "dist markov_partial"),
            (self.l2_demand_misses, "dist unmasked_misses"),
        ]
    }
}

impl EngineCounters {
    /// Serializes the counters (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.issued);
        enc.u64(self.useful_full);
        enc.u64(self.useful_partial);
        enc.u64(self.wasted_evictions);
    }

    /// Restores counters written by [`EngineCounters::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on truncation.
    pub fn restore_state(&mut self, dec: &mut cdp_snap::Dec<'_>) -> Result<(), SnapshotError> {
        self.issued = dec.u64("engine issued")?;
        self.useful_full = dec.u64("engine useful_full")?;
        self.useful_partial = dec.u64("engine useful_partial")?;
        self.wasted_evictions = dec.u64("engine wasted_evictions")?;
        Ok(())
    }
}

impl DropCounters {
    /// Serializes the counters (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.resident);
        enc.u64(self.in_flight);
        enc.u64(self.unmapped);
        enc.u64(self.queue_full);
        enc.u64(self.too_deep);
    }

    /// Restores counters written by [`DropCounters::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on truncation.
    pub fn restore_state(&mut self, dec: &mut cdp_snap::Dec<'_>) -> Result<(), SnapshotError> {
        self.resident = dec.u64("drops resident")?;
        self.in_flight = dec.u64("drops in_flight")?;
        self.unmapped = dec.u64("drops unmapped")?;
        self.queue_full = dec.u64("drops queue_full")?;
        self.too_deep = dec.u64("drops too_deep")?;
        Ok(())
    }
}

impl MemStats {
    /// Serializes the full statistics block (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.accesses);
        enc.u64(self.l1_hits);
        enc.u64(self.l1_misses);
        enc.u64(self.l2_demand_accesses);
        enc.u64(self.l2_demand_hits);
        enc.u64(self.l2_miss_merged);
        enc.u64(self.l2_demand_misses);
        enc.u64(self.dtlb_hits);
        enc.u64(self.dtlb_misses);
        enc.u64(self.prefetch_walks);
        enc.u64(self.prefetch_tlb_hits);
        enc.u64(self.rescans);
        enc.u64(self.depth_promotions);
        self.stride.save_state(enc);
        self.content.save_state(enc);
        self.markov.save_state(enc);
        self.delta.save_state(enc);
        self.jump.save_state(enc);
        self.drops.save_state(enc);
        for (v, _) in self.distribution_slots() {
            enc.u64(v);
        }
        enc.u64(self.injected_pollution);
        enc.u64(self.writebacks);
    }

    /// Restores statistics written by [`MemStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on truncation, and
    /// [`SnapshotError::Corrupt`] when a distribution slot disagrees with
    /// the counter it duplicates.
    pub fn restore_state(&mut self, dec: &mut cdp_snap::Dec<'_>) -> Result<(), SnapshotError> {
        self.accesses = dec.u64("mem accesses")?;
        self.l1_hits = dec.u64("mem l1_hits")?;
        self.l1_misses = dec.u64("mem l1_misses")?;
        self.l2_demand_accesses = dec.u64("mem l2_demand_accesses")?;
        self.l2_demand_hits = dec.u64("mem l2_demand_hits")?;
        self.l2_miss_merged = dec.u64("mem l2_miss_merged")?;
        self.l2_demand_misses = dec.u64("mem l2_demand_misses")?;
        self.dtlb_hits = dec.u64("mem dtlb_hits")?;
        self.dtlb_misses = dec.u64("mem dtlb_misses")?;
        self.prefetch_walks = dec.u64("mem prefetch_walks")?;
        self.prefetch_tlb_hits = dec.u64("mem prefetch_tlb_hits")?;
        self.rescans = dec.u64("mem rescans")?;
        self.depth_promotions = dec.u64("mem depth_promotions")?;
        self.stride.restore_state(dec)?;
        self.content.restore_state(dec)?;
        self.markov.restore_state(dec)?;
        self.delta.restore_state(dec)?;
        self.jump.restore_state(dec)?;
        self.drops.restore_state(dec)?;
        for (want, context) in self.distribution_slots() {
            if dec.u64(context)? != want {
                return Err(SnapshotError::Corrupt { context });
            }
        }
        self.injected_pollution = dec.u64("mem injected_pollution")?;
        self.writebacks = dec.u64("mem writebacks")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_accuracy() {
        let e = EngineCounters {
            issued: 100,
            useful_full: 30,
            useful_partial: 10,
            wasted_evictions: 5,
        };
        assert_eq!(e.useful(), 40);
        assert!((e.accuracy() - 0.4).abs() < 1e-12);
        assert!((e.wasted() - 0.05).abs() < 1e-12);
        assert_eq!(EngineCounters::default().accuracy(), 0.0);
        assert_eq!(EngineCounters::default().wasted(), 0.0);
    }

    #[test]
    fn distribution_fractions_sum_to_one() {
        let d = RequestDistribution {
            stride_full: 30,
            stride_partial: 10,
            cpf_full: 20,
            cpf_partial: 10,
            other_full: 0,
            other_partial: 0,
            unmasked_misses: 30,
        };
        let f = d.fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((d.cpf_full_share_of_nonstride() - 20.0 / 60.0).abs() < 1e-12);
        assert!((d.cpf_fully_masked_share() - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn mptu_math() {
        let s = MemStats {
            l2_demand_misses: 50,
            ..MemStats::default()
        };
        assert!((s.mptu(100_000) - 0.5).abs() < 1e-12);
        assert_eq!(s.mptu(0), 0.0);
    }

    #[test]
    fn drops_total() {
        let d = DropCounters {
            resident: 1,
            in_flight: 2,
            unmapped: 3,
            queue_full: 4,
            too_deep: 5,
        };
        assert_eq!(d.total(), 15);
    }

    #[test]
    fn engine_lookup_rejects_demand() {
        let mut s = MemStats::default();
        for e in EngineId::ALL {
            assert_eq!(s.engine(e).is_none(), e == EngineId::Demand, "{e:?}");
            if let Some(c) = s.engine_mut(e) {
                c.issued = u64::from(e.code());
            }
        }
        for e in EngineId::ALL {
            if let Some(c) = s.engine(e) {
                assert_eq!(
                    c.issued,
                    u64::from(e.code()),
                    "{e:?}: one counter set per engine"
                );
            }
        }
    }

    #[test]
    fn distribution_counts_every_engine() {
        let mut s = MemStats {
            l2_demand_misses: 7,
            ..MemStats::default()
        };
        for (i, e) in EngineId::ALL.into_iter().enumerate() {
            if let Some(c) = s.engine_mut(e) {
                c.useful_full = 10 * i as u64;
                c.useful_partial = i as u64;
            }
        }
        let d = s.distribution();
        let useful: u64 = EngineId::ALL
            .iter()
            .filter_map(|&e| s.engine(e))
            .map(EngineCounters::useful)
            .sum();
        assert_eq!(d.total(), s.l2_demand_misses + useful);
        assert_eq!((d.other_full, d.other_partial), (30 + 40 + 50, 3 + 4 + 5));
    }
}
