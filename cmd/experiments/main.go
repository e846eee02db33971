// Command experiments regenerates every table and figure in the evaluation
// suite (see the experiment index in README.md at the repository root).
//
// Usage:
//
//	experiments                 # run everything, full fidelity
//	experiments -quick          # fast pass (fewer points, shorter runs)
//	experiments -experiment F3  # one experiment
//	experiments -csv            # machine-readable output
//	experiments -list           # list IDs and titles
//	experiments -shards 8       # fan each sweep out to 8 spawned agent processes
//	experiments -agent :7101    # serve sweep chunks to a remote coordinator
//	experiments -agents h1:7101,h2:7101   # dispatch across a cluster fleet
//	experiments -metrics :9090  # serve Prometheus /metrics (+ pprof) while running
//
// -metrics works in every mode — sequential, coordinator and agent — and
// announces the bound address on stderr as "metrics listening <addr>".
// Instrumentation is determinism-safe: tables stay
// byte-identical with metrics on (see repro/internal/obs).
//
// With -shards N (N ≥ 2) the command spawns N loopback agent subprocesses
// (`experiments -agent 127.0.0.1:0`) and runs every sweep through the
// cluster coordinator across them, with the coordinator's own local agent
// disabled — so N is the number of worker processes, each with its own Go
// runtime and GC. The agents are stopped when the command exits, on
// success or on a fatal error. -shards 1 (the default) keeps everything in
// this process on the worker pool.
//
// With -agents the command becomes a cluster coordinator: it connects to
// the listed `experiments -agent :port` fleet (any reachable machines
// running the same binary), adds an implicit local agent, and streams
// chunks to whichever agent is free — costliest unfinished work first, with
// heartbeat-based failure detection and re-dispatch (see
// repro/internal/cluster). Output stays byte-identical to the sequential
// run, even when agents die mid-sweep. -agents and -shards combine: the
// spawned agents join the listed fleet in place of the local agent.
//
// With -checkpoint the sweep becomes durable: every verified chunk is
// journaled to the given file (crash-safe append; internal/sweep
// checkpoint format) and a restarted run — after a coordinator crash, OOM
// or Ctrl-C — loads the journal, skips the completed points, and still
// produces output byte-identical to an uninterrupted run. -checkpoint
// requires -experiment (the journal is per-sweep) and works with or
// without -agents and -shards; delete the file to start over.
//
// -agent accepts -chaos seed, which serves the protocol through the
// internal/cluster/faultnet fault injector: connection refusals,
// mid-stream drops, stalls and delayed writes on a schedule that is a pure
// function of the seed. Coordinators pointed at chaos agents must still
// merge sequential-identical output — that is the property CI's chaos step
// exercises.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faultnet"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "fast pass: fewer points, shorter virtual runs")
		expID   = flag.String("experiment", "", "run only this experiment ID (e.g. F3)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list experiments and exit")
		shards  = flag.Int("shards", 1, "spawn N loopback agent subprocesses and run each sweep across them (1 = in-process)")
		agent   = flag.String("agent", "", "agent mode: serve sweep chunks on this TCP address (e.g. :7101) until killed")
		agents  = flag.String("agents", "", "coordinator mode: comma-separated agent addresses to dispatch sweeps across (plus an implicit local agent, unless -shards spawns agents)")
		ckpt    = flag.String("checkpoint", "", "journal verified chunks to this file and resume from it on restart (requires -experiment)")
		chaos   = flag.Int64("chaos", 0, "with -agent: serve through the seeded faultnet injector (0 = off)")
		metrics = flag.String("metrics", "", "serve Prometheus /metrics (+ pprof) on this address (e.g. :9090, :0 picks a port) and enable live instrumentation")
	)
	flag.Parse()

	if *metrics != "" {
		obs.SetEnabled(true)
		core.MetricsEvery = 100 * sim.Millisecond
		addr, err := obs.Serve(*metrics, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics listening %s\n", addr)
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     expect: %s\n", e.ID, e.Title, e.Expect)
		}
		return
	}

	if *agent != "" {
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "agent: "+format+"\n", args...)
		}
		if *chaos != 0 {
			ln, err := net.Listen("tcp", *agent)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "agent: fault injection on, seed %d\n", *chaos)
			if err := cluster.ServeListener(faultnet.Wrap(ln, *chaos), os.Stdout, logf); err != nil {
				fatal(err)
			}
			return
		}
		if err := cluster.ListenAndServe(*agent, os.Stdout, logf); err != nil {
			fatal(err)
		}
		return
	}

	exps := harness.All()
	if *expID != "" {
		e := harness.ByID(*expID)
		if e == nil {
			fatal(fmt.Errorf("experiments: unknown experiment %q (use -list)", *expID))
		}
		exps = []*harness.Experiment{e}
	}

	var coord *cluster.Coordinator
	if *agents != "" || *ckpt != "" || *shards > 1 {
		if *ckpt != "" && len(exps) != 1 {
			fatal(fmt.Errorf("experiments: -checkpoint journals one sweep; pick it with -experiment"))
		}
		coord = &cluster.Coordinator{
			Quick:          *quick,
			CheckpointPath: *ckpt,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
		if *agents != "" {
			coord.Agents = strings.Split(*agents, ",")
		}
		if *shards > 1 {
			self, err := os.Executable()
			if err != nil {
				fatal(fmt.Errorf("experiments: cannot locate own binary to spawn agents: %v", err))
			}
			addrs, stop, err := cluster.SpawnAgents(self, *shards)
			if err != nil {
				fatal(err)
			}
			stopAgents = stop
			coord.Agents = append(coord.Agents, addrs...)
			coord.DisableLocal = true
		}
	}

	for _, e := range exps {
		start := time.Now()
		var table *stats.Table
		var clusterRes *cluster.Result
		if coord != nil {
			res, err := coord.Run(e)
			if err != nil {
				fatal(err)
			}
			table, clusterRes = res.Table, res
		} else {
			// The in-process pool is the fast path for one process; it
			// needs no wire round-trip, so table cells stay unrestricted.
			table = e.Run(*quick)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", e.ID, e.Title, table.CSV())
		} else {
			fmt.Printf("%s\nexpected shape: %s\n(wall time %v", table.Render(), e.Expect, elapsed)
			if clusterRes != nil {
				fmt.Printf(" across %d agents%s", len(clusterRes.Agents), clusterSummary(clusterRes))
			}
			fmt.Printf(")\n\n")
		}
	}
	stopAgents()
}

// stopAgents stops the agents -shards spawned; every exit path calls it.
var stopAgents = func() {}

// clusterSummary renders the per-agent point counts, e.g.
// "; local=3 10.0.0.2:7101=6".
func clusterSummary(res *cluster.Result) string {
	var b strings.Builder
	b.WriteString(";")
	for _, a := range res.Agents {
		fmt.Fprintf(&b, " %s=%d", a.Addr, a.Points)
		if a.Failed {
			b.WriteString("(failed)")
		}
	}
	if res.Redispatched > 0 {
		fmt.Fprintf(&b, "; %d point(s) re-dispatched", res.Redispatched)
	}
	if res.Resumed > 0 {
		fmt.Fprintf(&b, "; %d point(s) resumed from checkpoint", res.Resumed)
	}
	return b.String()
}

func fatal(err error) {
	stopAgents()
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
