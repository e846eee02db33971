package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
)

func scenarioByName(name string) (scenarioSpec, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenarioSpec{}, false
}

// scenarioOp is one operation's outcome.
type scenarioOp struct {
	setup, run time.Duration
	nodes      int
	counts     counts
	digest     uint64
}

// runScenarioOp builds one instance from the seed and runs it for the
// workload's span in Run slices, then checks it. A panic anywhere in the
// stack is returned as the operation's error.
func runScenarioOp(spec scenarioSpec, seed uint64, tr *tracer) (op scenarioOp, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	root := tr.begin("op", 0)
	defer tr.end(root)

	t0 := time.Now()
	sp := tr.begin("core.build", root)
	net := spec.build(seed)
	tr.end(sp)
	op.setup = time.Since(t0)

	t1 := time.Now()
	for done := sim.Duration(0); done < spec.span; done += spec.slice {
		sp := tr.begin("core.Run", root)
		net.Run(spec.slice)
		tr.end(sp)
	}
	op.run = time.Since(t1)

	op.nodes = len(net.Nodes())
	op.counts = readCounts(net)
	op.digest = digestNetwork(net, op.counts)
	return op, checkNetwork(net)
}

// runScenario measures a scenario workload. Untraced, it reports the
// end-to-end metrics; traced, the per-layer metrics.
func runScenario(spec scenarioSpec, seed uint64, budget time.Duration, traced bool, stderr io.Writer) (result, *tracer, error) {
	t := &tally{stderr: stderr}
	var ref *scenarioOp // the seed's first successful operation
	op := func(tr *tracer) (setup, run time.Duration) {
		o, err := runScenarioOp(spec, seed, tr)
		if err == nil && ref == nil {
			ref = &o
			fmt.Fprintf(stderr, "benchmark: %s seed %d digest %016x\n", spec.name, seed, o.digest)
		}
		if err == nil && o.digest != ref.digest {
			err = fmt.Errorf("outcome digest %016x differs from the seed's first run %016x", o.digest, ref.digest)
		}
		t.record(fmt.Sprintf("%s seed %d op %d", spec.name, seed, t.attempted), err)
		return o.setup, o.run
	}
	// The first operation is checked but not timed: it sets the reference
	// digest and grows the heap to its working size.
	op(nil)

	if !traced {
		res, err := t.endToEndResult(measure(budget, op))
		return res, nil, err
	}

	tr := newTracer()
	r, err := measureTraced(budget, tr, op)
	if err != nil {
		return result{}, tr, err
	}
	if ref == nil {
		return result{}, tr, fmt.Errorf("%s: every operation failed", spec.name)
	}
	vals := countMetrics(ref.counts)
	builds := tr.durations("core.build")
	vals["core.setup_per_node_us"] = 1000 * quantile(builds, 0.5) / float64(ref.nodes)
	slices := tr.durations("core.Run")
	vals["core.slice_p50_ms"] = quantile(slices, 0.5)
	vals["core.slice_p99_ms"] = quantile(slices, 0.99)
	vals["harness.point_p50_ms"] = 0
	vals["harness.point_max_ms"] = 0
	vals["harness.busy_pct"] = 0
	addTraced(vals, r, 1)
	res, err := t.finish(perLayer, vals)
	return res, tr, err
}

// countMetrics derives the per-layer count metrics shared by every
// workload from one operation's counts.
func countMetrics(c counts) map[string]float64 {
	f := func(v uint64) float64 { return float64(v) }
	return map[string]float64{
		"sim.events_per_tx":          ratio(f(c.Events), f(c.Tx)),
		"sim.heap_hw":                f(c.HeapHW),
		"sim.pool_events":            f(c.PoolEvents),
		"sim.cohort_mean":            ratio(f(c.CohortEvents), f(c.Cohorts)),
		"medium.tx":                  f(c.Tx),
		"medium.cand_per_tx":         ratio(f(c.Candidates), f(c.Tx)),
		"medium.fanout_yield":        ratio(f(c.Delivered), f(c.Candidates)),
		"medium.linkcache_hit_ratio": ratio(f(c.CacheHits), f(c.CacheHits+c.CacheMiss)),
		"medium.grid_migrations":     f(c.Migrations),
		"mac.attempts":               f(c.Attempts),
		"mac.retry_ratio":            ratio(f(c.Retries), f(c.Attempts)),
		"mac.drops":                  f(c.Drops),
		"mac.backoff_slots_per_tx":   ratio(f(c.BackoffSlots), f(c.Attempts)),
		"net80211.beacons":           f(c.Beacons),
		"net80211.roams":             f(c.Roams),
		"net80211.handoffs":          f(c.Handoffs),
		"net80211.decrypt_errors":    f(c.DecryptErrors),
		"net80211.ps_buffered":       f(c.PSBuffered),
		"traffic.sent":               f(c.Sent),
		"traffic.delivery_ratio":     ratio(f(c.Received), f(c.Sent)),
	}
}
