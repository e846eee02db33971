package main

import (
	"errors"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
)

func TestConservation(t *testing.T) {
	for _, tc := range []struct {
		queued, delivered, dropped, queueLen uint64
		ok                                   bool
	}{
		{10, 7, 1, 2, true},  // all accounted for
		{10, 7, 1, 1, true},  // one in flight
		{10, 6, 1, 1, false}, // two unaccounted
		{10, 9, 1, 1, false}, // more out than in
		{0, 0, 0, 0, true},
	} {
		err := checkConservation("n0", tc.queued, tc.delivered, tc.dropped, tc.queueLen)
		if (err == nil) != tc.ok {
			t.Errorf("checkConservation(%d, %d, %d, %d) = %v, want ok=%v",
				tc.queued, tc.delivered, tc.dropped, tc.queueLen, err, tc.ok)
		}
	}
}

// TestDigest runs one cell instance twice: same seed and span give the
// same digest and pass the checks; running one copy a little further — a
// forged divergence — changes it.
func TestDigest(t *testing.T) {
	spec := scenarios[0]
	spec.span = 100 * sim.Millisecond
	a, errA := runScenarioOp(spec, 7, nil)
	b, errB := runScenarioOp(spec, 7, nil)
	if errA != nil || errB != nil {
		t.Fatalf("checks failed: %v, %v", errA, errB)
	}
	if a.digest != b.digest || a.counts != b.counts {
		t.Fatalf("same seed gave digests %016x and %016x", a.digest, b.digest)
	}

	net := spec.build(7)
	for done := sim.Duration(0); done <= spec.span; done += spec.slice {
		net.Run(spec.slice)
	}
	if got := digestNetwork(net, readCounts(net)); got == a.digest {
		t.Error("digest unchanged after the outcome changed")
	}
	if err := checkNetwork(net); err != nil {
		t.Errorf("longer run fails its checks: %v", err)
	}
}

func TestCheckPoint(t *testing.T) {
	ref := rendered{rows: [][][]string{{{"1", "a"}}, {{"2", "b"}}}, errs: make([]error, 2), csv: "x"}
	same := rendered{rows: [][][]string{{{"1", "a"}}, {{"2", "b"}}}, errs: make([]error, 2), csv: "x"}
	for i := range 2 {
		if err := checkPoint(same, ref, i); err != nil {
			t.Errorf("identical point %d rejected: %v", i, err)
		}
	}

	forged := rendered{rows: [][][]string{{{"1", "a"}}, {{"2", "c"}}}, errs: make([]error, 2), csv: "x"}
	if checkPoint(forged, ref, 0) != nil || checkPoint(forged, ref, 1) == nil {
		t.Error("forged row not caught on exactly its point")
	}
	panicked := rendered{rows: [][][]string{nil, {{"2", "b"}}}, errs: []error{errors.New("panic: boom"), nil}, csv: "x"}
	if checkPoint(panicked, ref, 0) == nil {
		t.Error("panicked point accepted")
	}
	table := rendered{rows: same.rows, errs: make([]error, 2), csv: "y"}
	if checkPoint(table, ref, 1) == nil {
		t.Error("table that differs from the sequential render accepted")
	}
	badRef := rendered{rows: ref.rows, errs: []error{errors.New("panic: boom"), nil}, csv: "x"}
	if checkPoint(same, badRef, 0) == nil {
		t.Error("point whose reference panicked accepted")
	}
}

// TestRenderGridParallel renders one experiment sequentially and on the
// 2-worker pool, recording point spans from the workers, and checks every
// point against the sequential render.
func TestRenderGridParallel(t *testing.T) {
	e := harness.ByID("T1")
	defer func(w int) { harness.Workers = w }(harness.Workers)
	harness.Workers = 1
	ref := renderGrid(e.Grid(true), nil, 0)
	harness.Workers = workers
	tr := newTracer()
	root := tr.begin("suite", 0)
	got := renderGrid(e.Grid(true), tr, root)
	tr.end(root)
	if len(got.rows) < 2 {
		t.Fatalf("T1 has %d points; the test needs several", len(got.rows))
	}
	for i := range got.rows {
		if err := checkPoint(got, ref, i); err != nil {
			t.Errorf("point %d: %v", i, err)
		}
	}
	if spans := tr.under("suite", "harness.Point"); len(spans) != 1 || len(spans[0]) != len(got.rows) {
		t.Errorf("point spans %v for %d points", spans, len(got.rows))
	}
}
