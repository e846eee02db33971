package medium

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// addStatic places a radio with the quiet listener at (x, 0).
func addStatic(m *Medium, name string, x float64) *Radio {
	return m.AddRadio(RadioConfig{
		Name: name, Mode: phy.Mode80211b(),
		Mobility: geom.Static{P: geom.Pt(x, 0)}, TxPower: 15,
	})
}

// Steady-state transmit fan-out must stay within a small allocation budget
// regardless of receiver count: transmissions, arrivals and kernel events
// are pooled, the wire buffer is reused, and one decode serves the fan-out.
func TestTransmitFanoutAllocsBounded(t *testing.T) {
	k, m := testbed(42)
	tx := addStatic(m, "tx", 0)
	for i := 0; i < 7; i++ {
		addStatic(m, string(rune('a'+i)), 5+float64(i))
	}
	f := dataFrame(500)

	// Warm the pools and the link cache.
	for i := 0; i < 8; i++ {
		k.Schedule(0, "tx", func() { tx.Transmit(f, 3) })
		k.Run()
	}

	allocs := testing.AllocsPerRun(100, func() {
		k.Schedule(0, "tx", func() { tx.Transmit(f, 3) })
		k.Run()
	})
	// The fan-out itself is allocation-free since the zero-copy decode
	// (TestSteadyStateFanoutZeroAlloc); the single remaining alloc is this
	// test's own scheduling closure. Pre-pooling this was ~6 allocs per
	// receiver plus the wire image, the decode copy and closures.
	if allocs > 1 {
		t.Fatalf("transmit fan-out to 7 receivers allocates %v/op, want <= 1", allocs)
	}
}

// A receiver far outside detection range is pruned by the spatial index;
// moving it into range must rebuild the index and resume delivery.
func TestNeighborListInvalidation(t *testing.T) {
	k, m := testbed(7)
	tx := addStatic(m, "tx", 0)
	rec := &recorder{k: k}
	far := m.AddRadio(RadioConfig{
		Name: "far", Mode: phy.Mode80211b(),
		Mobility: geom.Static{P: geom.Pt(1e7, 0)}, TxPower: 15, Listener: rec,
	})

	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(200), 0) })
	k.Run()
	if len(rec.frames) != 0 {
		t.Fatalf("radio 10000 km away decoded %d frames", len(rec.frames))
	}
	if !m.sp.ok {
		t.Fatal("free-space model should enable the spatial index")
	}
	if m.sp.cellOf[far.id] == m.sp.cellOf[tx.id] {
		t.Fatalf("radio 10000 km away shares cell %v with the transmitter", m.sp.cellOf[tx.id])
	}

	far.SetMobility(geom.Static{P: geom.Pt(5, 0)})
	if !m.gridDirty {
		t.Fatal("SetMobility must mark the spatial index for rebuild")
	}
	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(200), 0) })
	k.Run()
	if len(rec.frames) != 1 {
		t.Fatalf("moved-in radio decoded %d frames, want 1", len(rec.frames))
	}
}

// Models the spatial index cannot bound (here: shadowing present, loss
// time-invariant) fan out over every radio, and deliver before and after a
// margin change.
func TestNeighborListShadowedPath(t *testing.T) {
	k := sim.NewKernel()
	src := rng.New(11)
	model := spectrum.NewModel(
		spectrum.FreeSpace{Freq: 2412 * units.MHz},
		spectrum.NewShadowing(src.Split("shadow"), 3), nil)
	m := New(k, model, src)
	tx := addStatic(m, "tx", 0)
	rec := &recorder{k: k}
	m.AddRadio(RadioConfig{
		Name: "rx", Mode: phy.Mode80211b(),
		Mobility: geom.Static{P: geom.Pt(5, 0)}, TxPower: 15, Listener: rec,
	})
	if m.sp.enabled {
		t.Fatal("shadowed model must not enable the spatial index")
	}

	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(200), 0) })
	k.Run()
	if len(rec.frames) != 1 {
		t.Fatalf("near receiver decoded %d frames, want 1", len(rec.frames))
	}

	m.DetectionMarginDB = 20
	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(200), 0) })
	k.Run()
	if len(rec.frames) != 2 {
		t.Fatalf("receiver decoded %d frames after margin change, want 2", len(rec.frames))
	}
}
