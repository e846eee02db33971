package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, tc := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(tc.defs) != len(tc.json) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", tc.kind, len(tc.defs), len(tc.json))
			continue
		}
		for i, d := range tc.defs {
			if j := tc.json[i]; d.name != j.Name || d.unit != j.Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", tc.kind, i, d.name, d.unit, j.Name, j.Unit)
			}
		}
	}
	var names []string
	for _, s := range scenarios {
		names = append(names, s.name)
	}
	names = append(names, "suite")
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, listed)
	}
}

// TestEmittedNames runs the program on the cheapest workload in both
// modes and checks the result line: the contract's keys, every metric
// defined and nothing else, and every name and unit well formed.
func TestEmittedNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cell workload")
	}
	t.Chdir(t.TempDir()) // the traced run writes its spans here
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "cell", "--seed", "3", "--seconds", "0.01", "--trace", tc.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
			t.Errorf("trace %s: result keys %v, want %v", tc.trace, keys, want)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics emitted, %d defined", tc.trace, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s emitted as %+v", tc.trace, d.name, m)
			}
		}
		for name, m := range res.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("trace %s: malformed metric %q unit %q", tc.trace, name, m.Unit)
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "cell", "--seconds", "0"},
		{"--workload", "cell", "--trace", "2"},
		{"--workload", "cell", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, stdout.String())
		}
	}
}
