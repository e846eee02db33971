package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// baselineNet is the F11 geometry: a sink at the origin and n senders on a
// 5 m circle, all in range of each other, with a Poisson flow per sender.
func baselineNet(seed uint64, n int, add func(net *Network, name string, at geom.Point, slot int) *Node, pps float64) (*Network, *Node, []*Node, []uint32) {
	net := NewNetwork(Config{Seed: seed, RateAdapt: "fixed:3",
		PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz}})
	sink := add(net, "sink", geom.Pt(0, 0), 0)
	pts := geom.Circle(n, 5, geom.Pt(0, 0))
	var senders []*Node
	var flows []uint32
	for i := range n {
		s := add(net, fmt.Sprintf("sta%d", i), pts[i], i)
		senders = append(senders, s)
		flows = append(flows, net.Poisson(s, sink, 500, pps))
	}
	return net, sink, senders, flows
}

// ALOHA senders overhear each other's frames to the sink. Only the sink
// may hand them to the shared traffic sink: an overheard copy would show
// up as a duplicate, or as a delivery the sink itself lost.
func TestAlohaOverheardFramesNotDelivered(t *testing.T) {
	net, sink, senders, flows := baselineNet(41, 6, func(net *Network, name string, at geom.Point, _ int) *Node {
		return net.AddAloha(name, at, 0)
	}, 200)
	net.Run(2 * sim.Second)

	var received uint64
	for i, id := range flows {
		fs := net.FlowStats(id)
		if fs == nil {
			t.Fatalf("flow %d delivered nothing", id)
		}
		if sent := net.Generators()[id-1].Sent(); fs.Received > sent {
			t.Errorf("flow %d: sink received %d of %d sent", id, fs.Received, sent)
		}
		if fs.Duplicates != 0 {
			t.Errorf("flow %d: %d duplicates — an overhearing sender delivered the sink's frames", id, fs.Duplicates)
		}
		if got := senders[i].Adhoc.RxPayloads; got != 0 {
			t.Errorf("%s delivered %d overheard payloads", senders[i].Name, got)
		}
		received += fs.Received
	}
	if received != sink.Adhoc.RxPayloads {
		t.Errorf("flows received %d payloads, sink node delivered %d", received, sink.Adhoc.RxPayloads)
	}
}

// Baseline nodes have no DCF, but still an address and the shared sink.
func TestBaselineNodes(t *testing.T) {
	net := NewNetwork(Config{RateAdapt: "fixed:3"})
	a := net.AddAloha("a", geom.Pt(0, 0), 0)
	b := net.AddTDMA("b", geom.Pt(5, 0), 1, 2, sim.Millisecond)
	if a.MAC != nil || b.MAC != nil {
		t.Fatal("baseline nodes carry a DCF")
	}
	if a.Address() == b.Address() {
		t.Fatalf("baseline nodes share address %v", a.Address())
	}
	net.CBR(a, b, 200, 10*sim.Millisecond)
	net.CBR(b, a, 200, 10*sim.Millisecond)
	net.Run(200 * sim.Millisecond)
	for _, id := range []uint32{1, 2} {
		if fs := net.FlowStats(id); fs == nil || fs.Received < 15 {
			t.Errorf("flow %d delivered %v", id, fs)
		}
	}
}

// Every event of a baseline-only network runs through Network.Run, so the
// process-wide counter wlanbench reads sees all of them.
func TestSimEventsCountsBaselineNetworks(t *testing.T) {
	slot := 700 * sim.Microsecond
	net, _, _, _ := baselineNet(42, 4, func(net *Network, name string, at geom.Point, i int) *Node {
		return net.AddTDMA(name, at, i, 4, slot)
	}, 300)
	before := SimEvents()
	net.Run(sim.Second)
	processed := net.Kernel().Processed()
	if processed == 0 {
		t.Fatal("the network processed no events")
	}
	if got := SimEvents() - before; got != processed {
		t.Fatalf("SimEvents grew by %d, kernel processed %d", got, processed)
	}
}

// AddAloha and AddTDMA reject what the baseline MACs cannot run, naming
// the bad value.
func TestBaselineNodePanics(t *testing.T) {
	for _, c := range []struct {
		name, rate, want string
		add              func(net *Network)
	}{
		{"aloha minstrel", "minstrel", `AddAloha("x") needs RateAdapt fixed[:idx], have "minstrel"`, func(net *Network) {
			net.AddAloha("x", geom.Pt(0, 0), 0)
		}},
		{"tdma arf", "arf", `AddTDMA("x") needs RateAdapt fixed[:idx], have "arf"`, func(net *Network) {
			net.AddTDMA("x", geom.Pt(0, 0), 0, 2, sim.Millisecond)
		}},
		{"tdma nSlots 0", "fixed", "slot count 0", func(net *Network) {
			net.AddTDMA("x", geom.Pt(0, 0), 0, 0, sim.Millisecond)
		}},
		{"tdma slot out of range", "fixed", "slot 2 outside [0, 2)", func(net *Network) {
			net.AddTDMA("x", geom.Pt(0, 0), 2, 2, sim.Millisecond)
		}},
		{"tdma slotDur 0", "fixed", "slot duration 0", func(net *Network) {
			net.AddTDMA("x", geom.Pt(0, 0), 0, 2, 0)
		}},
		{"aloha duplicate", "", `duplicate node name "x"`, func(net *Network) {
			net.AddAloha("x", geom.Pt(0, 0), 0)
			net.AddAloha("x", geom.Pt(1, 0), 0)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if msg := fmt.Sprint(p); p == nil || !strings.Contains(msg, c.want) {
					t.Fatalf("panic %v, want a message containing %q", p, c.want)
				}
			}()
			c.add(NewNetwork(Config{RateAdapt: c.rate}))
		})
	}
}
