package mac

import (
	"math"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// alohaBed builds n ALOHA senders around one sink and drives them at a
// Poisson offered load of G frames per frame-time, returning goodput S.
func alohaThroughput(t *testing.T, slotted bool, g float64, seed uint64) float64 {
	t.Helper()
	k := sim.NewKernel()
	src := rng.New(seed)
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil)
	m := medium.New(k, model, src)
	mode := phy.Mode80211b()

	const payload = 500
	wire := payload + frame.DataHdrLen + frame.FCSLen
	frameTime := mode.Airtime(3, wire) // 11 Mbit/s: collisions are destructive

	sinkRadio := m.AddRadio(medium.RadioConfig{
		Name: "sink", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 16,
	})
	sinkAddr := frame.MACAddr{2, 0, 0, 0, 0, 0xee}
	sink := NewAloha(k, sinkRadio, sinkAddr, 3, 0, 0)
	received := 0
	sink.SetReceiver(func(*frame.Frame, medium.RxInfo) { received++ })

	const nSenders = 10
	var alloc frame.AddrAllocator
	for i := 0; i < nSenders; i++ {
		r := m.AddRadio(medium.RadioConfig{
			Name: "s", Mode: mode,
			Mobility: geom.Static{P: geom.Circle(nSenders, 10, geom.Pt(0, 0))[i]},
			TxPower:  16,
		})
		var slot sim.Duration
		if slotted {
			slot = frameTime
		}
		addr := alloc.Next()
		a := NewAloha(k, r, addr, 3, 0, slot)
		// Poisson arrivals per sender at rate G/n frames per frame-time.
		lambda := g / nSenders / frameTime.Seconds() // frames per second
		gen := src.Split(r.Name() + string(rune(i)))
		var arrive func()
		arrive = func() {
			a.Enqueue(frame.NewData(sinkAddr, addr, addr, false, false, make([]byte, payload)))
			dt := sim.Duration(gen.ExpFloat64() / lambda * float64(sim.Second))
			k.Schedule(dt, "arrival", arrive)
		}
		dt := sim.Duration(gen.ExpFloat64() / lambda * float64(sim.Second))
		k.Schedule(dt, "arrival", arrive)
	}

	const runTime = 30 * sim.Second
	k.RunUntil(sim.Time(runTime))
	// Goodput in frames per frame-time.
	return float64(received) * frameTime.Seconds() / runTime.Seconds()
}

func TestPureAlohaThroughputShape(t *testing.T) {
	// At G=0.5 pure ALOHA peaks near S = 0.5·e^{-1} ≈ 0.184.
	s := alohaThroughput(t, false, 0.5, 21)
	want := 0.5 * math.Exp(-1)
	if math.Abs(s-want) > 0.07 {
		t.Errorf("pure ALOHA S(G=0.5) = %.3f, want ~%.3f", s, want)
	}
	// Overload collapses throughput.
	sOver := alohaThroughput(t, false, 3.0, 22)
	if sOver > s {
		t.Errorf("pure ALOHA at G=3 (%.3f) should be below peak (%.3f)", sOver, s)
	}
}

func TestSlottedAlohaBeatsPure(t *testing.T) {
	// At G=1, slotted ALOHA ~ e^{-1} ≈ 0.37 vs pure ~ e^{-2} ≈ 0.135.
	pure := alohaThroughput(t, false, 1.0, 23)
	slotted := alohaThroughput(t, true, 1.0, 24)
	if slotted <= pure {
		t.Errorf("slotted (%.3f) should beat pure (%.3f) at G=1", slotted, pure)
	}
	if math.Abs(slotted-math.Exp(-1)) > 0.1 {
		t.Errorf("slotted ALOHA S(G=1) = %.3f, want ~0.37", slotted)
	}
}

func TestTDMANoCollisions(t *testing.T) {
	k := sim.NewKernel()
	src := rng.New(31)
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil)
	m := medium.New(k, model, src)
	mode := phy.Mode80211b()

	const payload = 500
	wire := payload + frame.DataHdrLen + frame.FCSLen
	slotDur := mode.Airtime(3, wire) + 100*sim.Microsecond

	sinkRadio := m.AddRadio(medium.RadioConfig{
		Name: "sink", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 16,
	})
	received := 0
	var alloc frame.AddrAllocator
	sinkAddr := alloc.Next()
	sinkMAC := NewTDMA(k, sinkRadio, sinkAddr, 3, 0, 0, 1, slotDur) // passive, never enqueues
	sinkMAC.SetReceiver(func(*frame.Frame, medium.RxInfo) { received++ })

	const n = 5
	macs := make([]*TDMA, n)
	for i := 0; i < n; i++ {
		r := m.AddRadio(medium.RadioConfig{
			Name: "s", Mode: mode,
			Mobility: geom.Static{P: geom.Circle(n, 10, geom.Pt(0, 0))[i]},
			TxPower:  16,
		})
		macs[i] = NewTDMA(k, r, alloc.Next(), 3, 0, i, n, slotDur)
	}
	// Saturate all senders.
	const perSender = 50
	for _, tm := range macs {
		addr := tm.Address()
		for j := 0; j < perSender; j++ {
			if !tm.Enqueue(frame.NewData(sinkAddr, addr, addr, false, false, make([]byte, payload))) {
				t.Fatalf("enqueue %d refused below QueueCap", j)
			}
		}
	}
	k.RunUntil(sim.Time(5 * sim.Second))

	if received != n*perSender {
		t.Fatalf("TDMA delivered %d of %d (collisions in a collision-free MAC?)",
			received, n*perSender)
	}
	if sinkRadio.Stats.RxErrors > 0 {
		t.Errorf("TDMA sink logged %d PHY errors", sinkRadio.Stats.RxErrors)
	}
}

func TestTDMAFillsAllSlots(t *testing.T) {
	// A single saturated TDMA sender with 1 of 4 slots gets 1/4 of the
	// channel: delivery rate ≈ one frame per 4 slots.
	k := sim.NewKernel()
	src := rng.New(32)
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil)
	m := medium.New(k, model, src)
	mode := phy.Mode80211b()
	slotDur := mode.Airtime(3, 528) + 100*sim.Microsecond

	sinkRadio := m.AddRadio(medium.RadioConfig{Name: "sink", Mode: mode, TxPower: 16,
		Mobility: geom.Static{P: geom.Pt(5, 0)}})
	received := 0
	var alloc frame.AddrAllocator
	sinkAddr, senderAddr := alloc.Next(), alloc.Next()
	passive := NewTDMA(k, sinkRadio, sinkAddr, 3, 0, 0, 1, slotDur)
	passive.SetReceiver(func(*frame.Frame, medium.RxInfo) { received++ })

	r := m.AddRadio(medium.RadioConfig{Name: "s", Mode: mode, TxPower: 16,
		Mobility: geom.Static{P: geom.Pt(0, 0)}})
	const frames = 1000
	tm := NewTDMA(k, r, senderAddr, 3, frames, 1, 4, slotDur)
	for j := 0; j < frames; j++ {
		if !tm.Enqueue(frame.NewData(sinkAddr, senderAddr, senderAddr, false, false, make([]byte, 500))) {
			t.Fatalf("enqueue %d refused below QueueCap", j)
		}
	}
	run := 2 * sim.Second
	k.RunUntil(sim.Time(run))

	wantPerSec := 1.0 / (4 * slotDur.Seconds())
	got := float64(received) / run.Seconds()
	if math.Abs(got-wantPerSec)/wantPerSec > 0.05 {
		t.Errorf("TDMA 1/4-share rate = %.1f fps, want ~%.1f", got, wantPerSec)
	}
}

// baselineRadio builds one radio on a fresh free-space medium.
func baselineRadio(seed uint64) (*sim.Kernel, *medium.Radio) {
	k := sim.NewKernel()
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil)
	m := medium.New(k, model, rng.New(seed))
	return k, m.AddRadio(medium.RadioConfig{Name: "s", Mode: phy.Mode80211b(), TxPower: 16})
}

func TestBaselineTryReserveRefusesAtQueueCap(t *testing.T) {
	k, r := baselineRadio(33)
	var alloc frame.AddrAllocator
	addr := alloc.Next()
	const capacity = 3
	// Slot 4 of 5 at 1 s: nothing leaves the queue during the test.
	tm := NewTDMA(k, r, addr, 3, capacity, 4, 5, sim.Second)
	if got := tm.QueueCap(); got != capacity {
		t.Fatalf("QueueCap = %d, want %d", got, capacity)
	}
	for i := 0; i < capacity-1; i++ {
		if !tm.Enqueue(frame.NewData(addr, addr, addr, false, false, nil)) {
			t.Fatalf("enqueue %d refused below QueueCap", i)
		}
	}
	if !tm.TryReserve() {
		t.Fatal("reservation of the last slot refused")
	}
	// The reservation holds the last slot: both paths refuse and count.
	if tm.TryReserve() {
		t.Fatal("TryReserve accepted past QueueCap")
	}
	if tm.Stats.QueueDrops != 1 {
		t.Fatalf("QueueDrops = %d after a refused reservation, want 1", tm.Stats.QueueDrops)
	}
	if !tm.Enqueue(frame.NewData(addr, addr, addr, false, false, nil)) {
		t.Fatal("enqueue refused despite a reservation")
	}
	if tm.Enqueue(frame.NewData(addr, addr, addr, false, false, nil)) {
		t.Fatal("Enqueue accepted past QueueCap")
	}
	if tm.Stats.QueueDrops != 2 || tm.Stats.Queued != capacity || tm.queue.len() != capacity {
		t.Fatalf("stats %+v, queue %d; want 2 drops and %d queued", tm.Stats, tm.queue.len(), capacity)
	}
}

func TestBaselineArgumentPanics(t *testing.T) {
	var addr frame.MACAddr
	for _, c := range []struct {
		name, want string
		build      func(k *sim.Kernel, r *medium.Radio)
	}{
		{"tdma nSlots 0", "slot count 0", func(k *sim.Kernel, r *medium.Radio) {
			NewTDMA(k, r, addr, 3, 0, 0, 0, sim.Millisecond)
		}},
		{"tdma nSlots -2", "slot count -2", func(k *sim.Kernel, r *medium.Radio) {
			NewTDMA(k, r, addr, 3, 0, 0, -2, sim.Millisecond)
		}},
		{"tdma slot -1", "slot -1 outside [0, 4)", func(k *sim.Kernel, r *medium.Radio) {
			NewTDMA(k, r, addr, 3, 0, -1, 4, sim.Millisecond)
		}},
		{"tdma slot nSlots", "slot 4 outside [0, 4)", func(k *sim.Kernel, r *medium.Radio) {
			NewTDMA(k, r, addr, 3, 0, 4, 4, sim.Millisecond)
		}},
		{"tdma slotDur 0", "slot duration 0", func(k *sim.Kernel, r *medium.Radio) {
			NewTDMA(k, r, addr, 3, 0, 0, 4, 0)
		}},
		{"tdma slotDur negative", "slot duration -1", func(k *sim.Kernel, r *medium.Radio) {
			NewTDMA(k, r, addr, 3, 0, 0, 4, -sim.Millisecond)
		}},
		{"aloha slot negative", "ALOHA slot -1", func(k *sim.Kernel, r *medium.Radio) {
			NewAloha(k, r, addr, 3, 0, -sim.Millisecond)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if msg, _ := p.(string); !strings.Contains(msg, c.want) {
					t.Fatalf("panic %v, want a message containing %q", p, c.want)
				}
			}()
			c.build(baselineRadio(34))
		})
	}
}
