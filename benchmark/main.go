// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload from a seed for a fixed host-time budget, checks every
// operation, and prints one JSON result line whose metrics are the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced pass (--trace 1). README.md in this directory defines the
// workloads and the metric → layer → workload map.
//
// Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload cell --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workers is the thread budget: GOMAXPROCS and the harness pool size.
const workers = 2

// spanDir receives the traced run's spans, relative to the working
// directory (the repository root when launched through run.sh).
const spanDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Counts are exact per seed;
// ratios are of exact counts; *_ms, *_us, *_pct and runtime.* are host
// measurements. A layer that a workload never reaches reports 0.
var perLayer = []metricDef{
	{"sim.events_per_tx", "events/tx"},
	{"sim.heap_hw", "count"},
	{"sim.pool_events", "count"},
	{"sim.cohort_mean", "events"},
	{"medium.tx", "count"},
	{"medium.cand_per_tx", "cand/tx"},
	{"medium.fanout_yield", "ratio"},
	{"medium.linkcache_hit_ratio", "ratio"},
	{"medium.grid_migrations", "count"},
	{"mac.attempts", "count"},
	{"mac.retry_ratio", "ratio"},
	{"mac.drops", "count"},
	{"mac.backoff_slots_per_tx", "slots/tx"},
	{"net80211.beacons", "count"},
	{"net80211.roams", "count"},
	{"net80211.handoffs", "count"},
	{"net80211.decrypt_errors", "count"},
	{"net80211.ps_buffered", "count"},
	{"traffic.sent", "count"},
	{"traffic.delivery_ratio", "ratio"},
	{"core.setup_per_node_us", "us"},
	{"core.slice_p50_ms", "ms"},
	{"core.slice_p99_ms", "ms"},
	{"harness.point_p50_ms", "ms"},
	{"harness.point_max_ms", "ms"},
	{"harness.busy_pct", "%"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer, metricDef{shareMetric(l), "%"})
	}
}

// shareMetric names a profile bucket's self-time share; the GC bucket is
// reported as a runtime metric.
func shareMetric(layer string) string {
	if layer == "gc" {
		return "runtime.gc_self_pct"
	}
	return layer + ".self_pct"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cell, city, roam or suite")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: need --seconds > 0, --trace 0|1 and no positional arguments")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	budget := time.Duration(*seconds * float64(time.Second))

	var (
		res result
		tr  *tracer
		err error
	)
	if *workload == "suite" {
		res, tr, err = runSuite(budget, *trace == 1, stderr)
	} else if spec, ok := scenarioByName(*workload); ok {
		res, tr, err = runScenario(spec, *seed, budget, *trace == 1, stderr)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if tr != nil {
		// The spans file is a by-product; failing to write it must not
		// hide the result.
		path := filepath.Join(spanDir, "spans-"+*workload+"-"+strconv.FormatUint(*seed, 10)+".jsonl")
		if werr := tr.write(path); werr != nil {
			fmt.Fprintln(stderr, "benchmark:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally counts operations and reports the first few failures.
type tally struct {
	attempted, failed int
	stderr            io.Writer
}

func (t *tally) record(op string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(t.stderr, "benchmark: %s failed: %v\n", op, err)
	}
}

// finish builds the result from the tally and the metric values, which
// must hold exactly the metrics defs names.
func (t *tally) finish(defs []metricDef, vals map[string]float64) (result, error) {
	if len(vals) != len(defs) {
		return result{}, fmt.Errorf("internal: %d metric values for %d metrics", len(vals), len(defs))
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("internal: no value for metric %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if t.attempted == 0 {
		return result{}, errors.New("no operation completed")
	}
	return res, nil
}

// endToEndResult reports an untraced run: the medians of its set-up and
// run times, and the process's peak memory.
func (t *tally) endToEndResult(setups, runs []float64) (result, error) {
	summarize(t.stderr, "setup_s", setups)
	summarize(t.stderr, "run_s", runs)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	return t.finish(endToEnd, map[string]float64{
		"setup_s":     quantile(setups, 0.5),
		"run_s":       quantile(runs, 0.5),
		"peak_rss_mb": rss,
	})
}

// timedOp runs one checked operation, recording spans into tr when it is
// non-nil, and returns its set-up and run times.
type timedOp func(tr *tracer) (setup, run time.Duration)

// measure runs op untraced until the budget is spent (at least 3 times)
// and returns its set-up and run times in seconds.
func measure(budget time.Duration, op timedOp) (setups, runs []float64) {
	for start := time.Now(); len(runs) < 3 || time.Since(start) < budget; {
		runtime.GC()
		setup, run := op(nil)
		setups = append(setups, setup.Seconds())
		runs = append(runs, run.Seconds())
	}
	return setups, runs
}

// tracedRun is what measureTraced collects.
type tracedRun struct {
	plain, traced []float64          // run seconds of untraced and traced calls
	mem           []memDelta         // runtime work of each traced call
	shares        map[string]float64 // CPU self-time share per layer
}

// measureTraced alternates untraced and traced calls of op until the
// budget is spent, in ABBA order so that drift and any odd/even effect of
// heap reuse cancel out of the trace overhead. Each traced call records
// spans into tr and runs under the CPU profiler, whose samples are pooled
// into per-layer shares.
func measureTraced(budget time.Duration, tr *tracer, op timedOp) (tracedRun, error) {
	var out tracedRun
	var samples []profSample
	plain := func() {
		runtime.GC()
		_, run := op(nil)
		out.plain = append(out.plain, run.Seconds())
	}
	traced := func() error {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		_, run := op(tr)
		pprof.StopCPUProfile()
		out.mem = append(out.mem, memSince(&before))
		out.traced = append(out.traced, run.Seconds())
		s, err := parseProfile(prof.Bytes())
		samples = append(samples, s...)
		return err
	}
	for start := time.Now(); len(out.traced) < 4 || time.Since(start) < budget; {
		if len(out.traced)%2 == 0 {
			plain()
			if err := traced(); err != nil {
				return out, err
			}
		} else {
			if err := traced(); err != nil {
				return out, err
			}
			plain()
		}
	}
	out.shares = selfShares(samples)
	return out, nil
}

// addTraced stores the metrics every traced workload reports: runtime
// work per operation (each traced call is divided by opsPerCall), the
// layers' CPU shares and the trace overhead.
func addTraced(vals map[string]float64, r tracedRun, opsPerCall float64) {
	pick := func(f func(memDelta) float64) float64 {
		xs := make([]float64, len(r.mem))
		for i, m := range r.mem {
			xs[i] = f(m) / opsPerCall
		}
		return quantile(xs, 0.5)
	}
	vals["runtime.allocs_per_op"] = pick(func(m memDelta) float64 { return m.allocs })
	vals["runtime.bytes_per_op"] = pick(func(m memDelta) float64 { return m.bytes })
	vals["runtime.gc_cycles"] = pick(func(m memDelta) float64 { return m.gcs })
	vals["runtime.gc_pause_ms"] = pick(func(m memDelta) float64 { return m.pauseMs })
	for l, v := range r.shares {
		vals[shareMetric(l)] = v
	}
	// The overhead is the median over adjacent untraced/traced pairs, so
	// drift between pairs cancels; the noise of single operations does not.
	pairs := make([]float64, len(r.traced))
	for i := range pairs {
		pairs[i] = 100 * (ratio(r.traced[i], r.plain[i]) - 1)
	}
	vals["trace_overhead_pct"] = quantile(pairs, 0.5)
}

// memDelta is the runtime's allocation and GC work over an interval.
type memDelta struct {
	allocs, bytes, gcs float64
	pauseMs            float64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocs:  float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		gcs:     float64(after.NumGC - before.NumGC),
		pauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// summarize reports a timing's sample count and spread on standard error.
func summarize(stderr io.Writer, name string, xs []float64) {
	fmt.Fprintf(stderr, "benchmark: %s n=%d min=%.4g p25=%.4g median=%.4g p75=%.4g max=%.4g\n", name, len(xs),
		quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}
