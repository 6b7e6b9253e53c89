//! The metric tables and the result line.

use cdp_obs::Json;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("muops_per_s", "Muops/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ipc", "uops/cycle"),
];

/// Per-layer metrics (traced runs) of every workload: name and unit. A
/// layer that does not run on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.feed_ns_per_uop", "ns"),
    ("workloads.feed_share", "fraction"),
    ("sim.session_new_ms", "ms"),
    ("sim.fingerprint_ms", "ms"),
    ("core.self_ns_per_uop", "ns"),
    ("core.share", "fraction"),
    ("core.mispredicts_per_kuop", "1/kuop"),
    ("core.rob_occupancy_avg", "uops"),
    ("core.forwarded_loads_per_kuop", "1/kuop"),
    ("hierarchy.access_calls", "count"),
    ("hierarchy.access_ns", "ns"),
    ("hierarchy.l1hit_ns", "ns"),
    ("hierarchy.l1miss_ns", "ns"),
    ("hierarchy.share", "fraction"),
    ("mem.l1_hit_ratio", "fraction"),
    ("mem.l2_mptu", "1/kuop"),
    ("mem.l2_miss_merged", "count"),
    ("mem.dtlb_miss_ratio", "fraction"),
    ("mem.prefetch_walks", "count"),
    ("mem.bus_transfers", "count"),
    ("mem.bus_busy_frac", "fraction"),
    ("mem.bus_queue_waits", "count"),
    ("prefetch.scan_fill_ns", "ns"),
    ("prefetch.scan_share_est", "fraction"),
    ("prefetch.content.fills_scanned", "count"),
    ("prefetch.content.rescans", "count"),
    ("prefetch.content.candidates_per_scan", "count"),
    ("prefetch.stride.issued", "count"),
    ("prefetch.stride.accuracy", "fraction"),
    ("prefetch.stride.wasted", "fraction"),
    ("prefetch.content.issued", "count"),
    ("prefetch.content.accuracy", "fraction"),
    ("prefetch.content.wasted", "fraction"),
    ("prefetch.drops.resident", "count"),
    ("prefetch.drops.in_flight", "count"),
    ("prefetch.drops.unmapped", "count"),
    ("prefetch.drops.queue_full", "count"),
    ("prefetch.drops.too_deep", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Per-layer metrics that only `zoo_sweep`'s traced run reports, after
/// [`PER_LAYER`]: the zoo engines, snapshots, the result store and the
/// pool. `BENCHMARK.json` does not list them, since it does not list
/// `zoo_sweep` (see `README.md`).
pub const ZOO_LAYER: &[(&str, &str)] = &[
    ("prefetch.markov.issued", "count"),
    ("prefetch.markov.accuracy", "fraction"),
    ("prefetch.markov.wasted", "fraction"),
    ("prefetch.delta.issued", "count"),
    ("prefetch.delta.accuracy", "fraction"),
    ("prefetch.delta.wasted", "fraction"),
    ("prefetch.jump.issued", "count"),
    ("prefetch.jump.accuracy", "fraction"),
    ("prefetch.jump.wasted", "fraction"),
    ("prefetch.perceptron.rejected", "count"),
    ("snap.bytes", "bytes"),
    ("snap.encode_ms", "ms"),
    ("snap.resume_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.quarantined", "count"),
    ("persist.encode_us", "us"),
    ("persist.decode_us", "us"),
    ("exec.cells", "count"),
    ("exec.cell_s_p50", "s"),
    ("exec.cell_s_max", "s"),
    ("exec.idle_frac", "fraction"),
];

/// A metric value: a count stays an integer, a measurement a float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A count.
    Count(u64),
    /// A measured or derived quantity.
    Real(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Count(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Real(v)
    }
}

/// Every metric of one table, in table order; each starts at 0.
#[derive(Clone, Debug)]
pub struct Metrics {
    entries: Vec<(&'static str, &'static str, Value)>,
}

impl Metrics {
    /// All of `table`'s metrics at 0.
    pub fn new(table: &[(&'static str, &'static str)]) -> Metrics {
        Metrics {
            entries: table
                .iter()
                .map(|&(name, unit)| (name, unit, Value::Count(0)))
                .collect(),
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table (a defect in this benchmark).
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        let slot = self
            .entries
            .iter_mut()
            .find(|e| e.0 == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        slot.2 = value.into();
    }

    /// The value of `name`, as a float.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.0 == name)
            .map(|e| match e.2 {
                Value::Count(v) => v as f64,
                Value::Real(v) => v,
            })
    }

    /// `name value unit` lines.
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|(name, unit, v)| match v {
                Value::Count(c) => format!("{name:<40} {c:>16} {unit}\n"),
                Value::Real(r) => format!("{name:<40} {r:>16.6} {unit}\n"),
            })
            .collect()
    }

    /// `{"<name>": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (name, unit, v) in &self.entries {
            let mut m = Json::obj();
            m.set(
                "value",
                match v {
                    Value::Count(c) => Json::U64(*c),
                    Value::Real(r) => Json::F64(*r),
                },
            );
            m.set("unit", Json::Str((*unit).into()));
            obj.set(name, m);
        }
        obj
    }
}

/// The median of `xs` (0 when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
