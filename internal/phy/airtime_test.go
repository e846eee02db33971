package phy

import (
	"testing"

	"repro/internal/sim"
)

// maxMPDU is the largest legal 802.11 MPDU, in bytes.
const maxMPDU = 2346

// preambleModes returns every mode in both preamble variants — the full set
// of framing parameter combinations Airtime reads.
func preambleModes() []*Mode {
	var ms []*Mode
	for _, mk := range []func() *Mode{Mode80211, Mode80211a, Mode80211b, Mode80211g} {
		long := mk()
		ms = append(ms, long)
		short := mk()
		short.UseShortPreamble()
		ms = append(ms, short)
	}
	return ms
}

// MPDUs longer than the largest legal one follow the same formula: airtime
// is monotone across the 2346-byte boundary and keeps growing past it.
func TestAirtimeMemoFallback(t *testing.T) {
	for _, m := range preambleModes() {
		prev := m.Airtime(m.MaxRate(), maxMPDU)
		for _, n := range []int{maxMPDU + 1, 4096, 65535} {
			got := m.Airtime(m.MaxRate(), n)
			if got < prev {
				t.Fatalf("%s len=%d: airtime %v below %v at a shorter length", m.Name, n, got, prev)
			}
			prev = got
		}
		if a, b := m.Airtime(0, maxMPDU), m.Airtime(0, maxMPDU+1); a > b {
			t.Fatalf("%s: airtime not monotone across %d bytes: %v then %v", m.Name, maxMPDU, a, b)
		}
	}
}

// Out-of-range rate indices clamp into the rate table.
func TestAirtimeMemoClamping(t *testing.T) {
	m := Mode80211b()
	if got, want := m.Airtime(-3, 100), m.Airtime(0, 100); got != want {
		t.Fatalf("negative rate index: %v, want clamp to %v", got, want)
	}
	if got, want := m.Airtime(RateIdx(len(m.Rates)+5), 100), m.Airtime(m.MaxRate(), 100); got != want {
		t.Fatalf("oversized rate index: %v, want clamp to %v", got, want)
	}
}

// Switching the preamble between calls takes effect on the next call: the
// 802.11b short preamble shaves 96 µs off every frame.
func TestAirtimeMemoPreambleSwitch(t *testing.T) {
	m := Mode80211b()
	long := m.Airtime(0, 500)
	m.UseShortPreamble()
	short := m.Airtime(0, 500)
	if short != long-96*sim.Microsecond {
		t.Fatalf("short preamble airtime %v, want %v", short, long-96*sim.Microsecond)
	}
}

// Airtime is on every transmission's path and must not allocate.
func TestAirtimeMemoZeroAlloc(t *testing.T) {
	for _, m := range preambleModes() {
		n := 0
		allocs := testing.AllocsPerRun(1000, func() {
			m.Airtime(RateIdx(n%len(m.Rates)), n%maxMPDU)
			n++
		})
		if allocs != 0 {
			t.Fatalf("%s pre=%d: Airtime allocates %v/op, want 0", m.Name, m.Preamble, allocs)
		}
	}
}
