package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Kernel).down", "repro/internal/sim.(*Kernel).drainStep"}, "sim"},
		{[]string{"repro/internal/medium.(*Radio).arrivalEnd", "repro/internal/sim.(*Kernel).execute"}, "medium"},
		// A standard-library leaf counts toward the simulator package that
		// called it.
		{[]string{"math.erfc", "math.Erfc", "repro/internal/phy.(*Mode).BER", "repro/internal/medium.(*Radio).chunkSuccess"}, "phy"},
		{[]string{"hash/crc32.ieeeCLMUL", "hash/crc32.Update", "repro/internal/frame.(*Frame).AppendWire"}, "frame"},
		// A runtime leaf is runtime work, or GC work under a collector root.
		{[]string{"runtime.mallocgc", "repro/internal/medium.(*Medium).transmit"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/mac.(*DCF).Enqueue"}, "gc"},
		// Simulator packages without a bucket, the benchmark itself and
		// stacks with no simulator frame are "other".
		{[]string{"repro/internal/geom.Path.PositionAt", "repro/internal/medium.(*Medium).linkPhysics"}, "other"},
		{[]string{"main.runScenarioOp"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(profSample{stack: tc.stack, count: 1}); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// testProfile encodes a profile with four functions and three samples:
// 6 in sim, 3 in math.Exp inlined into phy (one location, two lines), and
// 1 in the runtime under the GC worker. Sample fields use both the packed
// and the one-varint-per-value encodings runtime/pprof emits.
func testProfile(t *testing.T) []byte {
	t.Helper()
	var prof pb
	strs := []string{"", "samples", "count", "repro/internal/sim.(*Kernel).down",
		"math.Exp", "repro/internal/phy.(*Mode).BER", "runtime.scanobject", "runtime.gcBgMarkWorker"}

	var st pb // sample_type: type 1, unit 2
	st.varint(1, 1)
	st.varint(2, 2)
	prof.bytes(1, st.b)

	for _, s := range []struct {
		locs   []uint64
		count  uint64
		packed bool
	}{
		{[]uint64{1}, 6, false},
		{[]uint64{2, 1}, 3, true},
		{[]uint64{3, 4, 5}, 1, true},
	} {
		var sp pb
		if s.packed {
			sp.packed(1, s.locs...)
			sp.packed(2, s.count, s.count*1e7)
		} else {
			for _, l := range s.locs {
				sp.varint(1, l)
			}
			sp.varint(2, s.count)
		}
		prof.bytes(2, sp.b)
	}

	// Locations: id -> function ids, innermost first.
	for id, fns := range [][]uint64{1: {1}, 2: {2, 3}, 3: {4}, 4: {5}, 5: {1}} {
		if fns == nil {
			continue
		}
		var lp pb
		lp.varint(1, uint64(id))
		lp.varint(3, 0x1000+uint64(id)) // address: skipped by the reader
		for _, fn := range fns {
			var line pb
			line.varint(1, fn)
			line.varint(2, 42)
			lp.bytes(4, line.b)
		}
		prof.bytes(4, lp.b)
	}
	// Functions: id -> name string index.
	for id, name := range []uint64{1: 3, 2: 4, 3: 5, 4: 6, 5: 7} {
		if name == 0 {
			continue
		}
		var fp pb
		fp.varint(1, uint64(id))
		fp.varint(2, name)
		prof.bytes(5, fp.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseProfileBuckets(t *testing.T) {
	samples, err := parseProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	if got := samples[1].stack; len(got) != 3 || got[0] != "math.Exp" || got[1] != "repro/internal/phy.(*Mode).BER" {
		t.Errorf("inlined location decoded as %q", got)
	}
	shares := selfShares(samples)
	want := map[string]float64{"sim": 60, "phy": 30, "gc": 10}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	full := testProfile(t)
	zr, err := gzip.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := parseProfile(cut.Bytes()); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// TestParseRuntimeProfile reads a profile written by runtime/pprof itself.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	if _, err := parseProfile(buf.Bytes()); err != nil {
		t.Fatalf("runtime profile: %v (spin result %v)", err, x)
	}
}
