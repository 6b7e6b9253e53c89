//! Self-tests on tiny runs of every workload: the metrics `BENCHMARK.json`
//! names are emitted with their units, runs pass their correctness
//! checks, the same seed repeats its counters and another seed changes
//! them.
//!
//! `runs_pass_their_correctness_checks` fails on `zoo_sweep` until the
//! result codec carries the zoo engines' statistics; `README.md` says why.

use cdp_obs::Json;
use simbench::metrics::ZOO_LAYER;
use simbench::plan::{Size, WorkloadId};
use simbench::run::{run, Options, Report};

fn tiny(id: WorkloadId, seed: u64, trace: bool) -> Report {
    run(&Options {
        id,
        size: Size::Tiny,
        seed,
        seconds: 0.0,
        trace,
    })
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<&str> = WorkloadId::MEASURED.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = declared(section);
        for id in WorkloadId::ALL {
            let json = tiny(id, 1, trace).metrics.to_json();
            let emitted = match &json {
                Json::Obj(pairs) => pairs.len(),
                _ => panic!("metrics are an object"),
            };
            // zoo_sweep's traced run adds the zoo-only layers.
            let extra = if trace && id == WorkloadId::ZooSweep {
                ZOO_LAYER.len()
            } else {
                0
            };
            assert_eq!(emitted, declared.len() + extra, "{} {section}", id.name());
            for (name, unit) in &declared {
                let m = json
                    .get(name)
                    .unwrap_or_else(|| panic!("{} lacks {name}", id.name()));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has a value"
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for id in WorkloadId::ALL {
        let r = tiny(id, 3, false);
        for (name, _) in declared("end_to_end") {
            let v = r.metrics.get(&name).expect("declared metric");
            assert!(v > 0.0, "{} {name} = {v}", id.name());
        }
    }
}

#[test]
fn layers_report_where_they_run() {
    let get = |r: &Report, name: &str| r.metrics.get(name).expect("declared metric");
    let chase = tiny(WorkloadId::ChaseCdp, 5, true);
    let compute = tiny(WorkloadId::ComputeBase, 5, true);
    let zoo = tiny(WorkloadId::ZooSweep, 5, true);
    for r in [&chase, &compute, &zoo] {
        for name in [
            "core.share",
            "hierarchy.share",
            "hierarchy.access_calls",
            "mem.bus_transfers",
        ] {
            assert!(get(r, name) > 0.0, "{name}");
        }
    }
    // Only the streamed workload has a uop feed.
    assert!(get(&chase, "workloads.feed_share") > 0.0);
    assert_eq!(get(&compute, "workloads.feed_share"), 0.0);
    assert_eq!(get(&zoo, "workloads.feed_share"), 0.0);
    // No content engine runs on the stride-only baseline.
    assert!(get(&chase, "prefetch.scan_fill_ns") > 0.0);
    assert!(get(&zoo, "prefetch.scan_fill_ns") > 0.0);
    assert_eq!(get(&compute, "prefetch.content.fills_scanned"), 0.0);
    // Snapshots, the store and the pool run in the sweep only, and only
    // the sweep reports them.
    for name in [
        "snap.bytes",
        "store.put_ms",
        "persist.encode_us",
        "exec.cells",
    ] {
        assert!(get(&zoo, name) > 0.0, "{name}");
        assert_eq!(chase.metrics.get(name), None, "{name}");
        assert_eq!(compute.metrics.get(name), None, "{name}");
    }
    assert_eq!(get(&zoo, "exec.cells"), 30.0);
}

#[test]
fn runs_pass_their_correctness_checks() {
    for id in WorkloadId::ALL {
        for trace in [false, true] {
            let r = tiny(id, 42, trace);
            assert!(r.attempted > 0, "{}", id.name());
            assert!(r.correct(), "{} trace={trace}: {:?}", id.name(), r.problems);
        }
    }
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for id in WorkloadId::ALL {
        let a = tiny(id, 11, false);
        let b = tiny(id, 11, false);
        let c = tiny(id, 12, false);
        assert_eq!(a.digest, b.digest, "{} repeats", id.name());
        assert_eq!(
            a.metrics.get("sim_ipc"),
            b.metrics.get("sim_ipc"),
            "{}",
            id.name()
        );
        assert_ne!(
            a.digest,
            c.digest,
            "{}: the seed reaches the generator",
            id.name()
        );
    }
}
