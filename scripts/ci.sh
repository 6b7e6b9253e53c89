#!/usr/bin/env bash
# Tier-1 gate: offline build, full test suite, lint, and a smoke pass of
# every experiment through the parallel engine — both fault-free and
# under injected faults. No network access required — the workspace
# (including the std-only cdp-bench microbenchmarks) has zero registry
# dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test -q --release --workspace

echo "== golden digests (extended matrix: every benchmark on base/CDP + a full-scale cell) =="
# The quick gate of tests/golden_digests.rs runs in every `cargo test`;
# the wider matrix is #[ignore]d there and affordable only in release.
cargo test -q --release --test golden_digests -- --ignored

echo "== simbench tests (benchmark package: golden digests + self-checks) =="
# The benchmark lives in its own package (own [workspace]) built against
# the crates by path, so the workspace test run above never compiles it.
cargo test -q --offline --manifest-path simbench/Cargo.toml

echo "== experiments all --smoke --jobs 2 =="
./target/release/experiments all --smoke --jobs 2 > /dev/null

echo "== observability smoke (byte-identity + manifest validation) =="
# The default path must be byte-identical with all observability flags
# off vs. on (and at different --jobs counts), and the emitted manifest
# must parse and carry the required schema keys.
rm -rf /tmp/cdp-obs-ci
./target/release/experiments tlb --smoke --jobs 2 > /tmp/cdp-obs-ci-plain.out
./target/release/experiments tlb --smoke --jobs 1 --trace --metrics-window 16384 \
    --emit-manifest /tmp/cdp-obs-ci > /tmp/cdp-obs-ci-obs.out 2> /dev/null
cmp /tmp/cdp-obs-ci-plain.out /tmp/cdp-obs-ci-obs.out || {
    echo "observability smoke: stdout differs with tracing enabled" >&2
    exit 1
}
./target/release/validate-manifest /tmp/cdp-obs-ci/manifest.json \
    /tmp/cdp-obs-ci/metrics.jsonl /tmp/cdp-obs-ci/trace.jsonl

echo "== profile/status smoke (byte-identity + run-explain self-diff) =="
# Latency histograms and the live status stream (DESIGN.md §15) must be
# behavior-neutral: stdout with --profile-hist + --status-jsonl on must
# be byte-identical to the plain run at --jobs 1 and 4, the status
# sidecars must actually stream events, the profile-bearing manifests
# must validate, and run-explain on the two same-config runs must
# report zero divergence (exit 0).
rm -rf /tmp/cdp-prof-ci-1 /tmp/cdp-prof-ci-4
./target/release/experiments tlb table2 --smoke --jobs 2 > /tmp/cdp-prof-plain.out
for jobs in 1 4; do
    ./target/release/experiments tlb table2 --smoke --jobs "$jobs" \
        --profile-hist --metrics-window 16384 \
        --status-jsonl "/tmp/cdp-prof-status-$jobs.jsonl" \
        --emit-manifest "/tmp/cdp-prof-ci-$jobs" \
        > "/tmp/cdp-prof-obs-$jobs.out" 2> /dev/null
    cmp /tmp/cdp-prof-plain.out "/tmp/cdp-prof-obs-$jobs.out" || {
        echo "profile smoke: stdout differs with histograms/status at --jobs $jobs" >&2
        exit 1
    }
    test -s "/tmp/cdp-prof-status-$jobs.jsonl" || {
        echo "profile smoke: status stream empty at --jobs $jobs" >&2
        exit 1
    }
    grep -q '"event":"done"' "/tmp/cdp-prof-status-$jobs.jsonl" || {
        echo "profile smoke: status stream missing done events at --jobs $jobs" >&2
        exit 1
    }
    ./target/release/validate-manifest "/tmp/cdp-prof-ci-$jobs/manifest.json" \
        "/tmp/cdp-prof-ci-$jobs/metrics.jsonl"
done
./target/release/run-explain /tmp/cdp-prof-ci-1 /tmp/cdp-prof-ci-4 > /dev/null || {
    echo "profile smoke: run-explain found divergence between same-config runs" >&2
    exit 1
}

echo "== result-cache smoke (byte-identity cache on vs off) =="
# The fingerprint-keyed result cache must never change rendered output:
# the same ids at different --jobs counts, cache on vs --no-result-cache,
# must produce byte-identical stdout.
./target/release/experiments tlb table2 --smoke --jobs 2 > /tmp/cdp-rc-on.out
./target/release/experiments tlb table2 --smoke --jobs 4 --no-result-cache \
    > /tmp/cdp-rc-off.out
cmp /tmp/cdp-rc-on.out /tmp/cdp-rc-off.out || {
    echo "result-cache smoke: stdout differs between cache on and off" >&2
    exit 1
}

echo "== fast-forward smoke (byte-identity fast path vs reference schedule) =="
# Idle-cycle fast-forwarding must be behavior-neutral: the event-driven
# fast path and the cycle-by-cycle reference schedule forced by
# --no-fast-forward must render byte-identical stdout (DESIGN.md §13).
./target/release/experiments tlb fig2 --smoke --jobs 2 > /tmp/cdp-ff-on.out
./target/release/experiments tlb fig2 --smoke --jobs 2 --no-fast-forward \
    > /tmp/cdp-ff-off.out
cmp /tmp/cdp-ff-on.out /tmp/cdp-ff-off.out || {
    echo "fast-forward smoke: stdout differs with --no-fast-forward" >&2
    exit 1
}
# The same pair on the streaming engine, whose core reads uops from a
# sliding window instead of the materialized program.
./target/release/experiments tlb fig2 --smoke --stream --jobs 2 > /tmp/cdp-ff-stream-on.out
./target/release/experiments tlb fig2 --smoke --stream --jobs 2 --no-fast-forward \
    > /tmp/cdp-ff-stream-off.out
cmp /tmp/cdp-ff-stream-on.out /tmp/cdp-ff-stream-off.out || {
    echo "fast-forward smoke: streamed stdout differs with --no-fast-forward" >&2
    exit 1
}

echo "== bench smoke (statistical harness + self-comparison) =="
# A short bench.sh run must produce a schema-v2 snapshot that validates,
# and bench-compare of a snapshot against itself must classify every
# tracked metric as unchanged (exit 0) — the CI-overlap classifier can
# never call identical confidence intervals a regression.
SAMPLES=3 OUT=/tmp/cdp-bench-ci ./scripts/bench.sh --micro > /dev/null 2>&1
bench_snap=$(ls -t bench/BENCH_*.json | head -1)
./target/release/bench-compare "$bench_snap" "$bench_snap" > /dev/null || {
    echo "bench smoke: self-comparison of $bench_snap not clean" >&2
    exit 1
}
rm -f "$bench_snap"

echo "== streaming smoke (byte-identity + capped large tier) =="
# The streaming engine must be behavior-neutral: forcing it everywhere
# with --stream renders byte-identical stdout at any --jobs count. Then
# one capped large-tier cell (~100M uops, one benchmark) must complete
# with the streaming engine and record uop-throughput accounting
# (`muops`) in its manifest — the tier is only reachable streamed, so
# completion alone proves the O(window) path end to end.
./target/release/experiments tlb --smoke --jobs 2 > /tmp/cdp-stream-plain.out
for jobs in 1 4; do
    ./target/release/experiments tlb --smoke --stream --jobs "$jobs" \
        > /tmp/cdp-stream-on.out
    cmp /tmp/cdp-stream-plain.out /tmp/cdp-stream-on.out || {
        echo "streaming smoke: stdout differs with --stream at --jobs $jobs" >&2
        exit 1
    }
done
rm -rf /tmp/cdp-stream-large
./target/release/experiments onecell --scale large --jobs 1 \
    --emit-manifest /tmp/cdp-stream-large > /dev/null 2> /dev/null
./target/release/validate-manifest /tmp/cdp-stream-large/manifest.json
grep -q '"muops":' /tmp/cdp-stream-large/manifest.json || {
    echo "streaming smoke: large-tier manifest missing muops accounting" >&2
    exit 1
}

echo "== checkpoint smoke (kill mid-flight, resume, byte-identity) =="
# Snapshot/resume (DESIGN.md §12): a sweep killed mid-flight and resumed
# from its checkpoints must produce byte-identical stdout to an
# uninterrupted run, at any --jobs count. A tight --checkpoint-every
# forces many snapshot writes; SIGKILL guarantees no graceful teardown.
rm -rf /tmp/cdp-ckpt-ci
mkdir -p /tmp/cdp-ckpt-ci
./target/release/experiments tlb table2 --smoke --jobs 2 > /tmp/cdp-ckpt-ref.out
for jobs in 1 4; do
    rm -f /tmp/cdp-ckpt-ci/*.snap /tmp/cdp-ckpt-ci/*.part
    ./target/release/experiments tlb table2 --smoke --jobs "$jobs" \
        --checkpoint-dir /tmp/cdp-ckpt-ci --checkpoint-every 50000 \
        > /tmp/cdp-ckpt-killed.out 2> /dev/null &
    pid=$!
    sleep 2
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    ./target/release/experiments tlb table2 --smoke --jobs "$jobs" \
        --checkpoint-dir /tmp/cdp-ckpt-ci --checkpoint-every 50000 --resume \
        > /tmp/cdp-ckpt-resumed.out
    cmp /tmp/cdp-ckpt-ref.out /tmp/cdp-ckpt-resumed.out || {
        echo "checkpoint smoke: resumed stdout differs at --jobs $jobs" >&2
        exit 1
    }
done
# Completed cells delete their checkpoints: the dir must be empty.
leftover=$(find /tmp/cdp-ckpt-ci -name '*.snap' | wc -l)
if [ "$leftover" -ne 0 ]; then
    echo "checkpoint smoke: $leftover checkpoint(s) left after completion" >&2
    exit 1
fi

echo "== fault-injection smoke (expect partial-failure exit 3) =="
# Unmap two trace pages of slsb: its cells must gap out, every other
# cell must complete, and the run must exit with the documented
# partial-failure code.
set +e
./target/release/experiments table2 --smoke --jobs 2 --keep-going \
    --fault unmap:slsb:7:2 > /dev/null 2> /tmp/cdp-fault-smoke.err
code=$?
set -e
if [ "$code" -ne 3 ]; then
    echo "fault smoke: expected exit 3 (partial failure), got $code" >&2
    cat /tmp/cdp-fault-smoke.err >&2
    exit 1
fi
grep -q "FAILURE REPORT" /tmp/cdp-fault-smoke.err || {
    echo "fault smoke: missing failure report on stderr" >&2
    exit 1
}

echo "== store chaos smoke (SIGKILL mid-sweep, fsck, warm replay, zero misses) =="
# Persistent result store (DESIGN.md §14): repeatedly SIGKILL a
# store-enabled sweep mid-flight — the store must stay consistent
# through every crash (store-fsck repairs and then scans clean), a cold
# completion run must be byte-identical to a store-less reference, and a
# warm cross-process re-run must replay every cell from disk (manifest
# records zero store misses) with byte-identical stdout.
rm -rf /tmp/cdp-store-ci /tmp/cdp-store-ci-manifest
mkdir -p /tmp/cdp-store-ci
./target/release/experiments tlb table2 --smoke --jobs 2 --no-result-cache \
    > /tmp/cdp-store-ref.out
for i in 1 2 3; do
    ./target/release/experiments tlb table2 --smoke --jobs 2 \
        --result-store /tmp/cdp-store-ci > /dev/null 2> /dev/null &
    pid=$!
    sleep 1
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    ./target/release/store-fsck /tmp/cdp-store-ci --repair > /dev/null || {
        echo "store smoke: fsck --repair failed after kill #$i" >&2
        exit 1
    }
done
./target/release/experiments tlb table2 --smoke --jobs 4 \
    --result-store /tmp/cdp-store-ci > /tmp/cdp-store-cold.out
cmp /tmp/cdp-store-ref.out /tmp/cdp-store-cold.out || {
    echo "store smoke: cold store-backed stdout differs from reference" >&2
    exit 1
}
./target/release/experiments tlb table2 --smoke --jobs 2 \
    --result-store /tmp/cdp-store-ci --emit-manifest /tmp/cdp-store-ci-manifest \
    > /tmp/cdp-store-warm.out 2> /dev/null
cmp /tmp/cdp-store-ref.out /tmp/cdp-store-warm.out || {
    echo "store smoke: warm store-backed stdout differs from reference" >&2
    exit 1
}
grep -q '"result_store_misses":0' /tmp/cdp-store-ci-manifest/manifest.json || {
    echo "store smoke: warm re-run did not replay every cell from disk" >&2
    exit 1
}
./target/release/store-fsck /tmp/cdp-store-ci > /dev/null || {
    echo "store smoke: store dirty after warm replay" >&2
    exit 1
}

echo "== tournament smoke (equal-silicon zoo, gating win, budget refusal) =="
# The prefetcher tournament must run every engine plus both perceptron
# hybrids at a matched table budget, render byte-identically at any
# --jobs count, emit a manifest (with the per-cell wasted-prefetch
# counters) that validates, show the perceptron gate actually cutting
# waste (hybrid wasted < bare CDP on at least one benchmark), and refuse
# a budget no engine geometry can realize (exit 2, before simulating).
rm -rf /tmp/cdp-tourney-ci
./target/release/experiments tournament --quick --jobs 2 --budget 8192 \
    --emit-manifest /tmp/cdp-tourney-ci > /tmp/cdp-tourney-2.out 2> /dev/null
./target/release/experiments tournament --quick --jobs 4 --budget 8192 \
    > /tmp/cdp-tourney-4.out
cmp /tmp/cdp-tourney-2.out /tmp/cdp-tourney-4.out || {
    echo "tournament smoke: stdout differs between --jobs 2 and --jobs 4" >&2
    exit 1
}
for engine in markov delta jump cdp 'cdp+perceptron' 'stride+perceptron'; do
    grep -q "^$engine " /tmp/cdp-tourney-2.out || {
        echo "tournament smoke: engine $engine missing from the grid" >&2
        exit 1
    }
done
./target/release/validate-manifest /tmp/cdp-tourney-ci/manifest.json
grep -q '"pf_wasted":' /tmp/cdp-tourney-ci/manifest.json || {
    echo "tournament smoke: manifest missing wasted-prefetch counters" >&2
    exit 1
}
grep -Eq 'gating check: cdp\+perceptron wasted < cdp on [1-9][0-9]*/' \
    /tmp/cdp-tourney-2.out || {
    echo "tournament smoke: perceptron gate never beat bare CDP on waste" >&2
    exit 1
}
set +e
./target/release/experiments tournament --smoke --budget 64 > /dev/null 2> /dev/null
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "tournament smoke: expected exit 2 for un-normalizable budget, got $code" >&2
    exit 1
fi

echo "ci: OK"
