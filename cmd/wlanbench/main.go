// Command wlanbench measures the evaluation suite's performance and emits a
// machine-readable JSON report: per-experiment wall time, allocations and
// simulator event throughput. Successive PRs regenerate the report (CI runs
// it on every push) so the perf trajectory of the hot paths stays visible.
//
// Usage:
//
//	wlanbench [-ids F1,F2] [-runs 3] [-full] [-workers N] \
//	          [-clusteragents N | -agents h1:p,h2:p] \
//	          [-baseline old.json] [-out BENCH_PR15.json]
//
// With -baseline, the report embeds the older report and per-experiment
// speedup factors, which is how BENCH_PR1.json records the pre-PR seed
// numbers next to the current ones.
//
// Every sequential measurement is an instrumentation A/B: each experiment
// is measured with metrics off and again with the obs registry live
// (enabled flag set, 100 ms flush cadence — exactly the -metrics runtime
// configuration), and the report carries both columns plus the events/s
// overhead percentage. That is the number the <2% observability budget is
// enforced against (see PERFORMANCE.md).
//
// With -metrics addr, the command additionally serves the Prometheus
// /metrics endpoint (plus pprof) while benching — and in -agent mode,
// while serving sweep chunks, which is how a fleet of bench agents is
// scraped mid-run.
//
// With -clusteragents N (or -agents with an explicit fleet), every
// experiment is additionally measured through the cluster engine
// (internal/cluster): -clusteragents spawns N loopback agent subprocesses
// (`wlanbench -agent 127.0.0.1:0`, through cluster.SpawnAgents — the
// same helper behind `experiments -shards N`), dispatches each sweep
// across them with cost-weighted work stealing, and records a "cluster"
// section with the orchestrated wall time and per-agent roll-up. The local
// in-process agent is disabled for this measurement so the numbers reflect
// the agent fleet alone — that is what makes the 1/2/4-agent scaling table
// in PERFORMANCE.md comparable.
//
// With -failevents report.json, each experiment's events/s must stay above
// -eventsslack (default 0.6) of the recorded value — a floor against
// throughput collapses, deliberately slack because wall-clock throughput is
// noisy where allocs/op are exact.
//
// With -soak duration, the command is a stability gate instead of a bench:
// one fixed-seed saturated scenario runs in virtual-time chunks until the
// wall deadline, with runtime.MemStats sampled at every chunk boundary. The
// gate fails unless steady-state chunks stay at 0 allocs/op (a small budget
// absorbs one-off pool growth) and the Go heap footprint stays flat — the
// "multi-billion events with flat RSS" precondition for a long-lived sweep
// service.
//
// With -chaos seed, the command is a durability gate instead of a bench:
// each experiment's cluster sweep runs with every loopback agent behind
// the internal/cluster/faultnet injector (connection refusals, mid-stream
// drops, stalls, delayed writes on a seed-determined schedule) and the
// merged output is asserted byte-identical to the sequential run. Stdout —
// the fault schedule window plus per-experiment verdicts — is a pure
// function of the seed and reproduces bit-for-bit across runs.
//
// With -checkpoint path, the cluster measurement journals verified chunks
// to path.<ID> per experiment and resumes from it on restart (see
// `experiments -checkpoint` and the README's "Durable sweeps" section).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faultnet"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ClusterResult is one experiment's measurement through the cluster engine,
// dispatched across an agent fleet with cost-weighted work stealing.
type ClusterResult struct {
	Agents       int                  `json:"agents"`
	NsPerOp      int64                `json:"ns_per_op"`
	SpeedupVsSeq float64              `json:"speedup_vs_seq"`
	Redispatched int                  `json:"redispatched,omitempty"`
	PerAgent     []cluster.AgentStats `json:"per_agent"`
}

// ExpResult is one experiment's measurement.
type ExpResult struct {
	ID           string  `json:"id"`
	Title        string  `json:"title,omitempty"`
	Runs         int     `json:"runs"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Rows         int     `json:"rows"`
	// The same measurement with live instrumentation on (obs registry
	// enabled, 100 ms flush cadence): the metrics-on column of the A/B.
	// MetricsOverheadPct is the events/s cost of -metrics — the median of
	// the paired off/on ratios (see measureAB) — the number the <2%
	// observability budget bounds (negative values are run-to-run noise).
	MetricsNsPerOp      int64   `json:"metrics_ns_per_op,omitempty"`
	MetricsEventsPerSec float64 `json:"metrics_events_per_sec,omitempty"`
	MetricsOverheadPct  float64 `json:"metrics_overhead_pct,omitempty"`
	// Versus the baseline report, when one was supplied.
	SpeedupNs     float64 `json:"speedup_ns,omitempty"`
	AllocsRatio   float64 `json:"allocs_ratio,omitempty"`
	BaseNsPerOp   int64   `json:"baseline_ns_per_op,omitempty"`
	BaseAllocsPer uint64  `json:"baseline_allocs_per_op,omitempty"`
	// Through the cluster engine, when -clusteragents/-agents was supplied.
	Cluster *ClusterResult `json:"cluster,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	GoVersion   string      `json:"go_version"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Workers     int         `json:"workers"`
	Quick       bool        `json:"quick"`
	Agents      int         `json:"agents,omitempty"`
	Experiments []ExpResult `json:"experiments"`
	Baseline    *Report     `json:"baseline,omitempty"`
	Notes       []string    `json:"notes,omitempty"`
}

func main() {
	ids := flag.String("ids", "", "comma-separated experiment IDs (default: all)")
	runs := flag.Int("runs", 3, "measured runs per experiment")
	full := flag.Bool("full", false, "run full (non-quick) experiment variants")
	workers := flag.Int("workers", 0, "harness worker pool size (0 = GOMAXPROCS)")
	agentAddr := flag.String("agent", "", "agent mode: serve sweep chunks on this TCP address until killed")
	agentList := flag.String("agents", "", "also measure each experiment across this comma-separated agent fleet")
	clusterAgents := flag.Int("clusteragents", 0, "spawn N loopback agent subprocesses and measure each experiment across them (0 = skip)")
	baseline := flag.String("baseline", "", "older report to embed and compare against")
	chaosSeed := flag.Int64("chaos", 0, "chaos mode: run each experiment's cluster sweep under the seeded faultnet injector and assert byte-identity with sequential (0 = off)")
	ckpt := flag.String("checkpoint", "", "journal the cluster measurement's verified chunks to this file (per-experiment suffix added) and resume on restart")
	out := flag.String("out", "BENCH_PR15.json", "output path (- for stdout)")
	note := flag.String("note", "", "free-form measurement note recorded in the report (';'-separated)")
	failAllocs := flag.String("failallocs", "", "report whose per-experiment allocs/op are a hard ceiling: exit non-zero on any increase (allocs are deterministic, unlike wall times)")
	failEvents := flag.String("failevents", "", "report whose per-experiment events/s are a regression floor: exit non-zero when throughput drops below -eventsslack of the recorded value")
	eventsSlack := flag.Float64("eventsslack", 0.6, "fraction of the -failevents floor that must be met (wall throughput is noisy; the floor catches collapses, not jitter)")
	soak := flag.Duration("soak", 0, "soak mode: run a fixed-seed saturated scenario for this wall duration, sampling MemStats to assert 0 allocs/op steady state and flat RSS")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics (+ pprof) on this address (e.g. :9090, :0 picks a port) and enable live instrumentation")
	flag.Parse()

	if *metrics != "" {
		obs.SetEnabled(true)
		core.MetricsEvery = 100 * sim.Millisecond
		maddr, err := obs.Serve(*metrics, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics listening %s\n", maddr)
	}

	harness.Workers = *workers

	if *soak > 0 {
		os.Exit(runSoak(*soak))
	}

	if *agentAddr != "" {
		// Agent mode for the cluster measurement: same protocol as
		// `experiments -agent`.
		if err := cluster.ListenAndServe(*agentAddr, os.Stdout, nil); err != nil {
			fatal(err)
		}
		return
	}

	var exps []*harness.Experiment
	if *ids == "" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e := harness.ByID(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "wlanbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	if *chaosSeed != 0 {
		os.Exit(runChaos(exps, *chaosSeed, !*full, *ckpt))
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		Quick:      !*full,
	}
	if *note != "" {
		rep.Notes = strings.Split(*note, ";")
	}

	var base *Report
	if *baseline != "" {
		base = readReport(*baseline)
		rep.Baseline = base
	}
	var ceiling *Report
	if *failAllocs != "" {
		ceiling = readReport(*failAllocs)
	}
	var floor *Report
	if *failEvents != "" {
		floor = readReport(*failEvents)
	}

	fleet := strings.Split(*agentList, ",")
	if *agentList == "" {
		fleet = nil
	}
	if *clusterAgents > 0 {
		self, err := os.Executable()
		if err != nil {
			fatal(fmt.Errorf("wlanbench: cannot locate own binary for agent spawn: %v", err))
		}
		// Forward -workers so a -workers 1 parent (the CI configuration,
		// chosen for exact allocs/op) gets agents whose self-measured
		// allocations are equally deterministic.
		addrs, stop, err := cluster.SpawnAgents(self, *clusterAgents, "-workers", fmt.Sprint(*workers))
		if err != nil {
			fatal(err)
		}
		stopAgents = stop
		fleet = append(fleet, addrs...)
	}
	var coord *cluster.Coordinator
	if len(fleet) > 0 {
		rep.Agents = len(fleet)
		coord = &cluster.Coordinator{
			Agents: fleet,
			Quick:  !*full,
			// Measure the agent fleet alone: with the implicit local agent
			// enabled, the coordinator's own process would absorb part of
			// the grid and the 1/2/4-agent scaling numbers would not be
			// comparable.
			DisableLocal: true,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
	}

	allocsRegressed := false
	eventsRegressed := false
	for _, e := range exps {
		r := measureAB(e, *runs, !*full)
		if coord != nil {
			coord.CheckpointPath = ckptPath(*ckpt, e.ID)
			cl, err := measureCluster(e, coord, r.NsPerOp)
			if err != nil {
				fatal(err)
			}
			r.Cluster = cl
		}
		if ceiling != nil {
			matched := false
			for _, c := range ceiling.Experiments {
				if c.ID != r.ID {
					continue
				}
				matched = true
				if r.AllocsPerOp > c.AllocsPerOp {
					allocsRegressed = true
					fmt.Fprintf(os.Stderr, "wlanbench: %s allocs/op regressed: %d > %d (ceiling %s)\n",
						r.ID, r.AllocsPerOp, c.AllocsPerOp, *failAllocs)
				}
			}
			if !matched {
				// A new or renamed experiment has no ceiling yet: surface it
				// loudly so the ceiling report gets regenerated, but do not
				// fail — the ceiling file cannot predate the experiment.
				fmt.Fprintf(os.Stderr, "wlanbench: warning: %s has no allocs/op ceiling in %s — unenforced until that report is regenerated\n",
					r.ID, *failAllocs)
			}
		}
		if floor != nil {
			matched := false
			for _, f := range floor.Experiments {
				if f.ID != r.ID || f.EventsPerSec <= 0 {
					continue
				}
				matched = true
				if min := f.EventsPerSec * *eventsSlack; r.EventsPerSec < min {
					eventsRegressed = true
					fmt.Fprintf(os.Stderr, "wlanbench: %s events/s regressed: %.0f < %.0f (%.0f%% of floor %s)\n",
						r.ID, r.EventsPerSec, min, *eventsSlack*100, *failEvents)
				}
			}
			if !matched {
				fmt.Fprintf(os.Stderr, "wlanbench: warning: %s has no events/s floor in %s — unenforced until that report is regenerated\n",
					r.ID, *failEvents)
			}
		}
		if base != nil {
			for _, b := range base.Experiments {
				if b.ID == r.ID && r.NsPerOp > 0 && b.NsPerOp > 0 {
					r.BaseNsPerOp = b.NsPerOp
					r.BaseAllocsPer = b.AllocsPerOp
					r.SpeedupNs = round2(float64(b.NsPerOp) / float64(r.NsPerOp))
					if b.AllocsPerOp > 0 {
						r.AllocsRatio = round2(float64(r.AllocsPerOp) / float64(b.AllocsPerOp))
					}
				}
			}
		}
		rep.Experiments = append(rep.Experiments, r)
		fmt.Fprintf(os.Stderr, "%-4s %12d ns/op %10d allocs/op %12.0f events/s   metrics %+.2f%%",
			r.ID, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec, r.MetricsOverheadPct)
		if r.Cluster != nil {
			fmt.Fprintf(os.Stderr, "   cluster(%d) %12d ns/op (%.2fx)",
				r.Cluster.Agents, r.Cluster.NsPerOp, r.Cluster.SpeedupVsSeq)
		}
		fmt.Fprintln(os.Stderr)
	}
	stopAgents()

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		panic(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		if allocsRegressed || eventsRegressed {
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "wlanbench: %v\n", err)
		os.Exit(1)
	}
	if allocsRegressed || eventsRegressed {
		os.Exit(1)
	}
}

// readReport loads a wlanbench JSON report or exits.
func readReport(path string) *Report {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlanbench: %v\n", err)
		os.Exit(1)
	}
	r := &Report{}
	if err := json.Unmarshal(raw, r); err != nil {
		fmt.Fprintf(os.Stderr, "wlanbench: parse %s: %v\n", path, err)
		os.Exit(1)
	}
	return r
}

// measure times runs executions of e, reporting per-op means and the
// simulator event throughput over the measured window.
func measure(e *harness.Experiment, runs int, quick bool) ExpResult {
	e.Run(quick) // warm-up: page in code paths, grow pools

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	evBefore := core.SimEvents()
	rows := 0
	t0 := time.Now()
	for i := 0; i < runs; i++ {
		rows = len(e.Run(quick).Rows)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&msAfter)
	events := core.SimEvents() - evBefore

	return ExpResult{
		ID:           e.ID,
		Title:        e.Title,
		Runs:         runs,
		NsPerOp:      wall.Nanoseconds() / int64(runs),
		AllocsPerOp:  (msAfter.Mallocs - msBefore.Mallocs) / uint64(runs),
		BytesPerOp:   (msAfter.TotalAlloc - msBefore.TotalAlloc) / uint64(runs),
		Events:       events,
		EventsPerSec: round2(float64(events) / wall.Seconds()),
		Rows:         rows,
	}
}

// abPairs is how many off/on measurement pairs measureAB takes per
// experiment. The overhead column is the median of the per-pair ratios.
const abPairs = 5

// measureAB measures e with instrumentation off and on with the -metrics
// runtime configuration (obs registry enabled, 100 ms flush cadence) and
// attaches the metrics-on column plus the events/s overhead percentage.
// Wall throughput on a shared host is noisy, so the A/B uses a paired
// design: each pair measures off then on back-to-back — slow drift in
// host load lands on both sides of a pair alike — and the reported
// overhead is the median of the per-pair ratios, discarding outlier
// pairs that caught a load spike. The headline columns keep each side's
// best pair (interference only ever slows a run). Global instrumentation
// state is restored afterwards so the cluster measurement runs
// under whatever -metrics selected.
func measureAB(e *harness.Experiment, runs int, quick bool) ExpResult {
	prevOn, prevEvery := obs.Enabled(), core.MetricsEvery
	defer func() {
		obs.SetEnabled(prevOn)
		core.MetricsEvery = prevEvery
	}()

	var offBest, onBest ExpResult
	ratios := make([]float64, 0, abPairs)
	for p := 0; p < abPairs; p++ {
		obs.SetEnabled(false)
		core.MetricsEvery = 0
		off := measure(e, runs, quick)

		obs.SetEnabled(true)
		core.MetricsEvery = 100 * sim.Millisecond
		on := measure(e, runs, quick)

		if offBest.Runs == 0 || off.EventsPerSec > offBest.EventsPerSec {
			offBest = off
		}
		if onBest.Runs == 0 || on.EventsPerSec > onBest.EventsPerSec {
			onBest = on
		}
		if off.EventsPerSec > 0 && on.EventsPerSec > 0 {
			ratios = append(ratios, (off.EventsPerSec-on.EventsPerSec)/off.EventsPerSec*100)
		}
	}

	r := offBest
	r.MetricsNsPerOp = onBest.NsPerOp
	r.MetricsEventsPerSec = onBest.EventsPerSec
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		r.MetricsOverheadPct = round2(ratios[len(ratios)/2])
	}
	return r
}

// measureCluster runs e once through the cluster engine and rolls the
// agents' self-reported timing/allocs into the result.
func measureCluster(e *harness.Experiment, coord *cluster.Coordinator, seqNs int64) (*ClusterResult, error) {
	t0 := time.Now()
	res, err := coord.Run(e)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	cl := &ClusterResult{
		Agents:       len(coord.Agents),
		NsPerOp:      wall.Nanoseconds(),
		Redispatched: res.Redispatched,
		PerAgent:     res.Agents,
	}
	if seqNs > 0 {
		cl.SpeedupVsSeq = round2(float64(seqNs) / float64(wall.Nanoseconds()))
	}
	return cl, nil
}

// ckptPath derives the per-experiment checkpoint file from the -checkpoint
// base (the journal is per-sweep: one experiment, one file).
func ckptPath(base, id string) string {
	if base == "" {
		return ""
	}
	return base + "." + id
}

// chaosAgents is the loopback fleet size of the chaos mode: two agents so
// re-dispatch has somewhere to go besides the local agent.
const chaosAgents = 2

// runChaos is the -chaos mode: each experiment's cluster sweep runs with
// every agent behind a seeded faultnet listener — connection refusals,
// mid-stream drops, stalls, delayed writes — and the merged output is
// asserted byte-identical to the sequential run. Everything written to
// stdout is a pure function of (seed, experiment list): the fault schedule
// window and the per-experiment verdicts reproduce bit-for-bit across
// runs, which is the artifact CI diffs. Returns the process exit code.
func runChaos(exps []*harness.Experiment, seed int64, quick bool, ckpt string) int {
	for i := 0; i < chaosAgents; i++ {
		fmt.Printf("agent %d fault schedule (first 16 connections):\n%s", i, faultnet.Describe(seed+int64(i), 16))
	}

	var addrs []string
	for i := 0; i < chaosAgents; i++ {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		ln := faultnet.Wrap(inner, seed+int64(i))
		a := &cluster.Agent{}
		go a.Serve(ln)
		defer a.Close()
		addrs = append(addrs, inner.Addr().String())
	}

	code := 0
	for _, e := range exps {
		want := e.Run(quick).CSV()
		coord := &cluster.Coordinator{
			Agents: addrs,
			Quick:  quick,
			// Recovery knobs tightened so injected faults cost milliseconds:
			// chaos mode is a correctness gate, not a soak test.
			HeartbeatEvery:   20 * time.Millisecond,
			HeartbeatTimeout: 200 * time.Millisecond,
			RetryBackoff:     10 * time.Millisecond,
			ReadmitEvery:     25 * time.Millisecond,
			Seed:             seed,
			CheckpointPath:   ckptPath(ckpt, e.ID),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
		res, err := coord.Run(e)
		switch {
		case err != nil:
			fmt.Printf("chaos %s: ERROR\n", e.ID)
			fmt.Fprintf(os.Stderr, "wlanbench: chaos %s: %v\n", e.ID, err)
			code = 1
		case res.Table.CSV() != want:
			fmt.Printf("chaos %s: MISMATCH\n", e.ID)
			fmt.Fprintf(os.Stderr, "wlanbench: chaos %s: cluster output under fault injection differs from sequential\n", e.ID)
			code = 1
		default:
			fmt.Printf("chaos %s: match\n", e.ID)
		}
	}
	return code
}

// stopAgents stops the agents -clusteragents spawned; every exit path
// calls it.
var stopAgents = func() {}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func fatal(err error) {
	stopAgents()
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
