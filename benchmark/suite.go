package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// rendered is one experiment's table as a run produced it.
type rendered struct {
	rows [][][]string // per point
	errs []error      // per point: a panic
	csv  string
}

// renderGrid evaluates every point of g on the harness pool and renders
// the table. Each point runs under a recover, so a panicking point fails
// alone; with a tracer, each point is a span under parent.
func renderGrid(g *harness.Grid, tr *tracer, parent int) rendered {
	r := rendered{rows: make([][][]string, g.N), errs: make([]error, g.N)}
	point := g.Point
	g.Point = func(i int) (rows [][]string) {
		defer func() {
			if p := recover(); p != nil {
				r.errs[i] = fmt.Errorf("panic: %v", p)
				rows = nil
			}
		}()
		sp := tr.begin("harness.Point", parent)
		rows = point(i)
		tr.end(sp)
		r.rows[i] = rows
		return rows
	}
	r.csv = g.Run().CSV()
	return r
}

// checkPoint compares one point of a parallel render with the sequential
// reference render.
func checkPoint(got, want rendered, i int) error {
	switch {
	case want.errs[i] != nil:
		return fmt.Errorf("sequential reference: %w", want.errs[i])
	case got.errs[i] != nil:
		return got.errs[i]
	case !slices.EqualFunc(got.rows[i], want.rows[i], slices.Equal[[]string]):
		return fmt.Errorf("rows %q differ from the sequential render %q", got.rows[i], want.rows[i])
	case got.csv != want.csv:
		return fmt.Errorf("table differs from the sequential render")
	}
	return nil
}

// runSuite measures the suite workload: every registered experiment's
// quick grid, evaluated on the 2-worker harness pool and rendered, with
// every point checked against a sequential (1-worker) render made first.
// An operation is one grid point. The experiments fix their own seeds, so
// --seed does not change the suite's inputs.
func runSuite(budget time.Duration, traced bool, stderr io.Writer) (result, *tracer, error) {
	exps := harness.All()
	harness.Workers = 1
	ref := make([]rendered, len(exps))
	for i, e := range exps {
		ref[i] = renderGrid(e.Grid(true), nil, 0)
	}
	harness.Workers = workers

	t := &tally{stderr: stderr}
	points := 0 // per repetition
	// repeat builds every grid (set-up), then evaluates and renders them
	// (run), and checks every point.
	repeat := func(tr *tracer) (setup, run time.Duration) {
		root := tr.begin("suite", 0)
		defer tr.end(root)
		t0 := time.Now()
		sp := tr.begin("harness.Grid", root)
		grids := make([]*harness.Grid, len(exps))
		for i, e := range exps {
			grids[i] = e.Grid(true)
		}
		tr.end(sp)
		setup = time.Since(t0)

		t1 := time.Now()
		out := make([]rendered, len(exps))
		for i, g := range grids {
			sp := tr.begin("harness.Run", root)
			out[i] = renderGrid(g, tr, sp)
			tr.end(sp)
		}
		run = time.Since(t1)

		points = 0
		for i, e := range exps {
			for p := range out[i].rows {
				t.record(fmt.Sprintf("%s point %d", e.ID, p), checkPoint(out[i], ref[i], p))
			}
			points += len(out[i].rows)
		}
		return setup, run
	}

	if !traced {
		res, err := t.endToEndResult(measure(budget, repeat))
		return res, nil, err
	}

	// Count one repetition with the metrics registry on: experiments build
	// their networks internally, so the registry's kernel and medium
	// counters are the only counts the suite exposes. Nothing flushes into
	// the registry while it is off, so after this repetition it holds that
	// repetition's counts alone. Enabling it leaves every table
	// byte-identical, which checkPoint verifies.
	obs.SetEnabled(true)
	repeat(nil)
	obs.SetEnabled(false)
	c := suiteCounts()

	tr := newTracer()
	r, err := measureTraced(budget, tr, repeat)
	if err != nil {
		return result{}, tr, err
	}

	vals := countMetrics(c)
	vals["core.setup_per_node_us"] = 0
	vals["core.slice_p50_ms"] = 0
	vals["core.slice_p99_ms"] = 0
	var pointMs, straggler []float64
	for _, rep := range tr.under("suite", "harness.Point") {
		pointMs = append(pointMs, rep...)
		straggler = append(straggler, slices.Max(rep))
	}
	vals["harness.point_p50_ms"] = quantile(pointMs, 0.5)
	vals["harness.point_max_ms"] = quantile(straggler, 0.5)
	var pointSum, runSum float64
	for _, p := range pointMs {
		pointSum += p
	}
	for _, r := range r.traced {
		runSum += 1000 * r
	}
	vals["harness.busy_pct"] = 100 * ratio(pointSum, workers*runSum)
	addTraced(vals, r, float64(points))
	res, err := t.finish(perLayer, vals)
	return res, tr, err
}

// suiteCounts reads the metrics registry's kernel and medium counters
// into the counts a scenario reads directly. The registry's event-pool
// gauge is last-writer-wins across concurrent points, not a count, so
// PoolEvents stays 0.
func suiteCounts() counts {
	return counts{
		Events:       obs.Sim.Events.Value(),
		HeapHW:       uint64(obs.Sim.HeapHighWater.Value()),
		Cohorts:      obs.Sim.CohortSize.Count(),
		CohortEvents: obs.Sim.CohortSize.Sum(),
		Tx:           obs.Medium.Transmissions.Value(),
		Candidates:   obs.Medium.FanoutCandidates.Value(),
		Delivered:    obs.Medium.FanoutDelivered.Value(),
		CacheHits:    obs.Medium.LinkCacheHits.Value(),
		CacheMiss:    obs.Medium.LinkCacheMisses.Value(),
		Migrations:   obs.Medium.GridMigrations.Value(),
	}
}
