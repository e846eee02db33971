package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wep"
)

// A scenario workload builds one network instance from a seed and runs it
// for a fixed virtual span in fixed Run slices. The seed moves positions,
// pairings and every random stream; it never changes the instance's size,
// so run time stays comparable across seeds.
type scenarioSpec struct {
	name  string
	span  sim.Duration // virtual time one operation runs
	slice sim.Duration // virtual time per Network.Run call
	build func(seed uint64) *core.Network
}

// The fourth workload, suite, is every registered experiment's quick grid
// (suite.go). It is chosen because it is what users run to regenerate the
// paper's tables; it alone loads the harness worker pool and the F11
// ALOHA/TDMA baseline world, and it should not stress any single network.
var scenarios = []scenarioSpec{
	// cell is chosen because in one contended shadowed cell, kernel timer
	// churn, DCF backoff/NAV/ACK, PER evaluation and minstrel rate control
	// dominate. Fan-out takes the neighbor-list path; the spatial grid,
	// net80211 management and WEP should stay idle.
	{name: "cell", span: 10 * sim.Second, slice: 20 * sim.Millisecond, build: buildCell},
	// city is chosen because arrival edges are nearly every event and the
	// heap holds hundreds of thousands of entries. Fan-out runs through the
	// spatial grid and the link cache; MAC work per event is tiny, and
	// net80211 management, WEP and rate control should stay idle.
	{name: "city", span: 100 * sim.Millisecond, slice: 10 * sim.Millisecond, build: buildCity},
	// roam is chosen because moving radios write to the spatial index
	// (grid migrations, link invalidations) alongside reads, and because
	// it alone makes net80211 beacons, scans, auth/assoc and handoffs,
	// management frame codecs, WEP and power-save buffering do real work.
	// The medium's link cache and rate control should matter little.
	{name: "roam", span: 4 * sim.Second, slice: 20 * sim.Millisecond, build: buildRoam},
}

// Workload shapes. The sizes are part of the benchmark's definition:
// changing one re-baselines every metric.
const (
	cellStations = 30
	cellRadius   = 25.0 // metres around the sink
	cellPayload  = 1000

	cityRadios = 1000
	cityPitch  = 15.0 // metres, as in experiment E1
	cityJitter = 4.0  // metres of seeded displacement per radio

	roamAPSide   = 8    // roamAPSide × roamAPSide access points
	roamAPPitch  = 40.0 // metres
	roamTxPower  = 2    // dBm
	roamStations = 48
)

// buildCell places cellStations saturated ad-hoc senders uniformly in a
// disk around one sink, on 802.11a with log-normal shadowing (which turns
// the spatial index off) and minstrel on every node.
func buildCell(seed uint64) *core.Network {
	net := core.NewNetwork(core.Config{
		Seed: seed, Mode: "802.11a", ShadowSigmaDB: 4, RateAdapt: "minstrel",
	})
	src := rng.New(seed).Split("bench:cell")
	sink := net.AddAdhoc("sink", geom.Pt(0, 0))
	for i := 0; i < cellStations; i++ {
		r := cellRadius * math.Sqrt(src.Float64())
		theta := 2 * math.Pi * src.Float64()
		s := net.AddAdhoc(fmt.Sprintf("sta%d", i), geom.Pt(r*math.Cos(theta), r*math.Sin(theta)))
		net.Saturate(s, sink, cellPayload)
	}
	return net
}

// buildCity is experiment E1's shape at cityRadios: a jittered 15 m grid
// at 2 dBm, each radio paired with a seeded random neighbour-in-row by a
// light Poisson flow.
func buildCity(seed uint64) *core.Network {
	net := core.NewNetwork(core.Config{Seed: seed, TxPower: 2})
	src := rng.New(seed).Split("bench:city")
	pts := geom.Grid(cityRadios, cityPitch, geom.Pt(0, 0))
	nodes := make([]*core.Node, cityRadios)
	for i, p := range pts {
		p.X += cityJitter * (2*src.Float64() - 1)
		p.Y += cityJitter * (2*src.Float64() - 1)
		nodes[i] = net.AddAdhoc(fmt.Sprintf("n%d", i), p)
	}
	for _, i := range src.Perm(cityRadios)[:cityRadios/2] {
		j := i + 1
		if j == cityRadios {
			j = i - 1
		}
		net.Poisson(nodes[i], nodes[j], 200, 4)
	}
	return net
}

// buildRoam lays a WEP-protected ESS of roamAPSide² APs on one DS and
// walks roamStations random-waypoint stations across it. Stations come in
// pairs: the first stays awake, the second dozes in power save. Both send
// CBR uplink to the first AP (so traffic from other cells crosses the DS),
// and the awake one also sends to its dozing partner, which is what fills
// the APs' power-save buffers.
func buildRoam(seed uint64) *core.Network {
	net := core.NewNetwork(core.Config{Seed: seed, TxPower: roamTxPower})
	src := rng.New(seed).Split("bench:roam")
	key := wep.Key{0x52, 0x4f, 0x41, 0x4d, 0x21}
	positions := make([]geom.Point, 0, roamAPSide*roamAPSide)
	for y := 0; y < roamAPSide; y++ {
		for x := 0; x < roamAPSide; x++ {
			positions = append(positions, geom.Pt(float64(x)*roamAPPitch, float64(y)*roamAPPitch))
		}
	}
	_, aps := net.AddESS("roam", positions, net80211.APConfig{WEPKey: key})
	extent := float64(roamAPSide-1) * roamAPPitch
	for k := 0; k < roamStations/2; k++ {
		var pair [2]*core.Node
		for j := range pair {
			mob := geom.NewRandomWaypoint(src.Split(fmt.Sprintf("walk%d.%d", k, j)),
				0, 0, extent, extent, 5, 15, 0)
			pair[j] = net.AddMobileStation(fmt.Sprintf("sta%d.%d", k, j), mob, net80211.STAConfig{
				SSID: "roam", WEPKey: key, PowerSave: j == 1, RoamThreshold: -80,
			})
			net.CBR(pair[j], aps[0], 300, 50*sim.Millisecond)
		}
		net.CBR(pair[0], pair[1], 300, 100*sim.Millisecond)
	}
	return net
}
