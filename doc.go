// Package repro is gowifi: a from-scratch, stdlib-only, deterministic
// discrete-event simulation stack for IEEE 802.11 wireless LANs — DCF MAC,
// rate-adaptation drivers (ARF/AARF/SampleRate/Minstrel), PHY error models
// for 802.11/a/b/g, an interference-tracking medium, a management plane
// (scan/auth/assoc/roaming/power save), WEP/CCMP link privacy, baseline
// MACs (ALOHA/TDMA), Bianchi's analytical model, and a harness that
// regenerates the full evaluation suite.
//
// Start with README.md (architecture map, quickstart and the experiment
// index with expected shapes) and PERFORMANCE.md (fast-path architecture
// and the measured trajectory). The public scenario API lives in
// internal/core; the runnable entry points are cmd/wlansim,
// cmd/experiments, cmd/wlantrace, cmd/wlanbench and the examples tree.
//
// # Performance architecture
//
// The simulator is built around two hot loops — the event kernel and the
// medium's transmission fan-out — and both run allocation-free in steady
// state (see PERFORMANCE.md for measurements and BENCH_PR1.json for the
// tracked trajectory):
//
//   - internal/sim pools Event objects on a free list behind
//     generation-checked Timer handles, keeps the queue as a
//     struct-of-arrays 4-ary heap of (at, seq, slot) keys, and reaps
//     cancelled events lazily in bulk. ScheduleRun queues a sorted run of
//     callbacks behind a single heap key.
//   - internal/medium pools transmissions and arrivals, queues each
//     transmission's arrival edges as two sorted runs, caches per-link
//     gain and propagation delay for static radio pairs (invalidated on
//     movement), prunes fan-out through a uniform-grid spatial index, reuses
//     wire buffers, and decodes each transmission once per fan-out.
//   - internal/harness runs each experiment's independent scenario points
//     on a bounded worker pool (GOMAXPROCS workers) with row order — and
//     therefore output — bit-identical to sequential execution.
//   - internal/cluster scales past one process: every experiment exposes
//     its parameter grid (harness.Grid), and the cluster coordinator deals
//     the grid's points out to agent processes — N spawned loopback agents
//     under `experiments -shards N`, or a remote fleet under `-agents` —
//     and merges their internal/sweep wire output into tables
//     byte-identical to the sequential run.
package repro
