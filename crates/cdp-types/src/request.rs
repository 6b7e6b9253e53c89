//! Memory-request descriptors and the priority lattice used by the L2 and
//! bus arbiters.
//!
//! The paper's arbiters "maintain a strict, priority-based ordering of
//! requests. Demand requests are given the highest priority, while stride
//! prefetcher requests are favored over content prefetcher requests because
//! of their higher accuracy" (§3.5). Content prefetches are further ordered
//! by their *request depth*: a depth-1 prefetch (triggered directly by a
//! demand fill) outranks a depth-3 chained prefetch.

use core::fmt;

use crate::SnapshotError;

/// Maximum representable request depth.
///
/// The paper stores the depth in the L2 line metadata using two bits
/// ("less than ½% space overhead when using two bits per cache line"),
/// which bounds the encodable depth at 3. Configurations with larger depth
/// thresholds (Figure 9 sweeps up to 9) use more bits; we allow up to 15.
pub const MAX_REQUEST_DEPTH: u8 = 15;

/// Which engine owns a request or an L2 line: demand traffic or one of
/// the prefetchers. The one spelling of engine identity — request
/// classification, per-engine counters, trace events, L2 owner codes in
/// snapshots and the perceptron's engine feature all use it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EngineId {
    /// Demand traffic (loads, stores and page walks).
    Demand,
    /// The stride prefetcher.
    Stride,
    /// The content-directed prefetcher.
    Content,
    /// The Markov prefetcher.
    Markov,
    /// The delta-space Markov prefetcher.
    Delta,
    /// The pointer-chase/jump-pointer prefetcher.
    Jump,
}

impl EngineId {
    /// Every engine, in [`EngineId::code`] order.
    pub const ALL: [EngineId; 6] = [
        EngineId::Demand,
        EngineId::Stride,
        EngineId::Content,
        EngineId::Markov,
        EngineId::Delta,
        EngineId::Jump,
    ];

    /// The engine's stable byte code (its position in [`EngineId::ALL`]).
    /// Snapshots and trace payloads store it, and the perceptron hashes
    /// it, so the numbering must never change.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The engine with byte code `code`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for a code no engine has.
    pub fn from_code(code: u8) -> Result<Self, SnapshotError> {
        Self::ALL
            .get(usize::from(code))
            .copied()
            .ok_or(SnapshotError::Corrupt {
                context: "engine code",
            })
    }

    /// Lower-case name, as trace events spell it.
    pub fn name(self) -> &'static str {
        match self {
            EngineId::Demand => "demand",
            EngineId::Stride => "stride",
            EngineId::Content => "content",
            EngineId::Markov => "markov",
            EngineId::Delta => "delta",
            EngineId::Jump => "jump",
        }
    }
}

/// What kind of agent generated a memory request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RequestKind {
    /// A demand fetch from the core (load or store miss). Depth 0.
    Demand,
    /// A hardware page-table walk triggered by a TLB miss. Treated with
    /// demand priority; its fill data *bypasses* the content prefetcher
    /// (page tables are full of pointers and would explode the scanner).
    PageWalk,
    /// A request issued by the stride prefetcher.
    Stride,
    /// A request issued by the content-directed prefetcher, carrying its
    /// request depth (1 = triggered by a demand fill, 2+ = chained).
    Content {
        /// Links since a non-speculative request (§3.4.1).
        depth: u8,
    },
    /// A request issued by the Markov prefetcher (used only in the §5
    /// comparison configurations).
    Markov,
    /// A request issued by the delta-space Markov prefetcher (the
    /// Pangloss-style tournament comparator): predictions come from a
    /// compact delta-transition table rather than absolute miss addresses.
    Delta,
    /// A request issued by the pointer-chase/jump-pointer engine: the
    /// predicted next node of a linked traversal.
    Jump,
}

impl RequestKind {
    /// The engine that issued this request; page walks are demand
    /// traffic.
    #[inline]
    pub fn engine(self) -> EngineId {
        match self {
            RequestKind::Demand | RequestKind::PageWalk => EngineId::Demand,
            RequestKind::Stride => EngineId::Stride,
            RequestKind::Content { .. } => EngineId::Content,
            RequestKind::Markov => EngineId::Markov,
            RequestKind::Delta => EngineId::Delta,
            RequestKind::Jump => EngineId::Jump,
        }
    }

    /// The request depth: 0 for non-speculative traffic, the chain depth for
    /// content prefetches, 1 for other prefetchers.
    #[inline]
    pub fn depth(self) -> u8 {
        match self {
            RequestKind::Demand | RequestKind::PageWalk => 0,
            RequestKind::Content { depth } => depth,
            RequestKind::Stride | RequestKind::Markov | RequestKind::Delta | RequestKind::Jump => 1,
        }
    }

    /// Whether this is speculative prefetch traffic (droppable by arbiters).
    #[inline]
    pub fn is_prefetch(self) -> bool {
        !matches!(self, RequestKind::Demand | RequestKind::PageWalk)
    }

    /// Arbiter priority for this request. Higher compares greater.
    #[inline]
    pub fn priority(self) -> Priority {
        match self {
            RequestKind::Demand | RequestKind::PageWalk => Priority(u8::MAX),
            RequestKind::Stride => Priority(200),
            RequestKind::Markov => Priority(190),
            // Tournament comparators slot between Markov and content:
            // delta-Markov carries history context (more accurate than
            // raw pointer guesses), so it outranks jump-pointer chases.
            RequestKind::Delta => Priority(185),
            RequestKind::Jump => Priority(180),
            // Content prefetches: shallower chains are less speculative and
            // therefore outrank deeper ones.
            RequestKind::Content { depth } => {
                Priority(100u8.saturating_sub(depth.min(MAX_REQUEST_DEPTH)))
            }
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestKind::PageWalk => write!(f, "pagewalk"),
            RequestKind::Content { depth } => write!(f, "content(d{depth})"),
            kind => f.write_str(kind.engine().name()),
        }
    }
}

/// An arbiter priority. Bigger is more important. Demand traffic is always
/// `Priority::DEMAND`, which outranks every prefetch priority.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub u8);

impl Priority {
    /// The priority of demand (non-speculative) traffic.
    pub const DEMAND: Priority = Priority(u8::MAX);
    /// The lowest possible priority.
    pub const MIN: Priority = Priority(0);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Whether a data access reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A data load.
    Load,
    /// A data store (write-allocate: misses fetch the line like loads).
    Store,
}

impl AccessKind {
    /// True for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_outranks_everything() {
        let demand = RequestKind::Demand.priority();
        for k in [
            RequestKind::Stride,
            RequestKind::Markov,
            RequestKind::Delta,
            RequestKind::Jump,
            RequestKind::Content { depth: 1 },
            RequestKind::Content { depth: 9 },
        ] {
            assert!(demand > k.priority(), "{k} must rank below demand");
        }
        assert_eq!(demand, Priority::DEMAND);
    }

    #[test]
    fn stride_outranks_content() {
        assert!(RequestKind::Stride.priority() > RequestKind::Content { depth: 1 }.priority());
    }

    #[test]
    fn comparator_engines_sit_between_markov_and_content() {
        assert!(RequestKind::Markov.priority() > RequestKind::Delta.priority());
        assert!(RequestKind::Delta.priority() > RequestKind::Jump.priority());
        assert!(RequestKind::Jump.priority() > RequestKind::Content { depth: 1 }.priority());
    }

    #[test]
    fn shallower_content_outranks_deeper() {
        for d in 1..MAX_REQUEST_DEPTH {
            assert!(
                RequestKind::Content { depth: d }.priority()
                    > RequestKind::Content { depth: d + 1 }.priority()
            );
        }
    }

    #[test]
    fn depth_accessor() {
        assert_eq!(RequestKind::Demand.depth(), 0);
        assert_eq!(RequestKind::PageWalk.depth(), 0);
        assert_eq!(RequestKind::Content { depth: 3 }.depth(), 3);
        assert_eq!(RequestKind::Stride.depth(), 1);
        assert_eq!(RequestKind::Delta.depth(), 1);
        assert_eq!(RequestKind::Jump.depth(), 1);
    }

    #[test]
    fn prefetch_classification() {
        assert!(!RequestKind::Demand.is_prefetch());
        assert!(!RequestKind::PageWalk.is_prefetch());
        assert!(RequestKind::Stride.is_prefetch());
        assert!(RequestKind::Markov.is_prefetch());
        assert!(RequestKind::Delta.is_prefetch());
        assert!(RequestKind::Jump.is_prefetch());
        assert!(RequestKind::Content { depth: 1 }.is_prefetch());
    }

    #[test]
    fn engine_codes_round_trip_and_keep_their_numbering() {
        for (i, e) in EngineId::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(e.code()), i);
            assert_eq!(EngineId::from_code(e.code()), Ok(e));
        }
        assert_eq!(
            EngineId::from_code(6),
            Err(SnapshotError::Corrupt {
                context: "engine code"
            })
        );
        let names: Vec<&str> = EngineId::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["demand", "stride", "content", "markov", "delta", "jump"]
        );
    }

    #[test]
    fn request_kinds_map_to_their_engine() {
        for (kind, engine) in [
            (RequestKind::Demand, EngineId::Demand),
            (RequestKind::PageWalk, EngineId::Demand),
            (RequestKind::Stride, EngineId::Stride),
            (RequestKind::Content { depth: 1 }, EngineId::Content),
            (RequestKind::Content { depth: 9 }, EngineId::Content),
            (RequestKind::Markov, EngineId::Markov),
            (RequestKind::Delta, EngineId::Delta),
            (RequestKind::Jump, EngineId::Jump),
        ] {
            assert_eq!(kind.engine(), engine, "{kind}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(RequestKind::Content { depth: 2 }.to_string(), "content(d2)");
        assert_eq!(RequestKind::PageWalk.to_string(), "pagewalk");
        assert_eq!(RequestKind::Demand.to_string(), "demand");
        assert_eq!(RequestKind::Delta.to_string(), "delta");
        assert_eq!(RequestKind::Jump.to_string(), "jump");
        assert_eq!(Priority(3).to_string(), "p3");
    }
}
