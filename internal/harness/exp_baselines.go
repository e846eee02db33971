package harness

import (
	"bytes"
	"fmt"

	"repro/internal/analytical"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/wep"
)

func init() {
	register(&Experiment{
		ID:     "F11",
		Title:  "MAC comparison: ALOHA, slotted ALOHA, DCF, TDMA vs offered load",
		Expect: "ALOHA peaks at 0.18, slotted at 0.37 and both collapse; DCF holds its plateau; TDMA tracks min(G,1)",
		Grid:   gridF11,
	})
	register(&Experiment{
		ID:     "S1",
		Title:  "Link privacy: WEP bit-flip forgery vs CCMP integrity",
		Expect: "the CRC-linearity forgery passes WEP's ICV; CCMP rejects forgery and replay",
		Grid:   gridS1,
	})
}

// gridF11 sweeps offered load G for the four MACs and reports normalized
// goodput S (frames per frame-time). Every column is the same network —
// a sink and n senders with Poisson flows — differing only in the MAC its
// nodes run.
func gridF11(quick bool) *Grid {
	t := stats.NewTable("F11: normalized goodput S vs offered load G (500B @ 11 Mbit/s)",
		"G", "aloha", "slotted", "dcf", "tdma",
		"aloha theory", "slotted theory")
	t.Note = "S and G in frames per 11 Mbit/s frame-time; DCF pays preamble+IFS so its plateau sits below TDMA"
	gs := pick(quick, []float64{0.25, 0.5, 1.0}, []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5})
	const n = 10
	const payload = 500
	// Every column sends the payload SNAP-encapsulated in a data frame.
	wire := frame.DataHdrLen + frame.SnapHeaderLen + payload + frame.FCSLen
	frameTime := phy.Mode80211b().Airtime(3, wire)
	slotDur := frameTime + 100*sim.Microsecond // TDMA slot: one frame plus guard
	run := runDur(quick, 10*sim.Second, 25*sim.Second)

	// Each column's seed base and node constructor; slot is the sender
	// index (0 for the sink, which never sends).
	cols := []struct {
		seed int
		add  func(net *core.Network, name string, at geom.Point, slot int) *core.Node
	}{
		{1100, func(net *core.Network, name string, at geom.Point, _ int) *core.Node {
			return net.AddAloha(name, at, 0)
		}},
		{1100, func(net *core.Network, name string, at geom.Point, _ int) *core.Node {
			return net.AddAloha(name, at, frameTime)
		}},
		{1150, func(net *core.Network, name string, at geom.Point, _ int) *core.Node {
			return net.AddAdhoc(name, at)
		}},
		{1180, func(net *core.Network, name string, at geom.Point, slot int) *core.Node {
			return net.AddTDMA(name, at, slot, n, slotDur)
		}},
	}

	return &Grid{Table: t, N: len(gs), Point: single(func(gi int) []string {
		g := gs[gi]
		row := []string{stats.F(g, 2)}
		pps := g / n / frameTime.Seconds()
		pts := geom.Circle(n, 5, geom.Pt(0, 0))
		for _, c := range cols {
			net := core.NewNetwork(core.Config{
				Seed: uint64(c.seed + int(g*100)), RateAdapt: "fixed:3",
				PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz},
			})
			sink := c.add(net, "sink", geom.Pt(0, 0), 0)
			var flows []uint32
			for i := range n {
				s := c.add(net, fmt.Sprintf("sta%d", i), pts[i], i)
				flows = append(flows, net.Poisson(s, sink, payload, pps))
			}
			net.Run(run)
			var frames uint64
			for _, id := range flows {
				if fs := net.FlowStats(id); fs != nil {
					frames += fs.Received
				}
			}
			row = append(row, stats.F(float64(frames)*frameTime.Seconds()/run.Seconds(), 3))
		}
		return append(row,
			stats.F(analytical.PureAlohaS(g), 3),
			stats.F(analytical.SlottedAlohaS(g), 3))
	})}
}

// gridS1 demonstrates the WEP integrity failure and CCMP's immunity. The
// whole demonstration is one deterministic scenario point that yields all
// four table rows.
func gridS1(bool) *Grid {
	t := stats.NewTable("S1: link-privacy integrity (bit-flip forgery and replay)",
		"scheme", "attack", "accepted?", "detail")
	t.Note = "reproduces the security ranking in the survey: WEP integrity is forgeable, CCMP is not"
	return &Grid{Table: t, N: 1, Point: func(int) [][]string {
		var rows [][]string

		key := wep.Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
		plain := []byte("PAY   10 DOLLARS")
		target := []byte("PAY 9910 DOLLARS")
		sealed, err := wep.Seal(key, wep.IV{7, 7, 7}, 0, plain)
		if err != nil {
			panic(err)
		}
		mask := make([]byte, len(plain))
		for i := range plain {
			mask[i] = plain[i] ^ target[i]
		}
		forged, err := wep.BitFlip(sealed, mask)
		if err != nil {
			panic(err)
		}
		got, err := wep.Open(key, forged)
		wepForged := err == nil && bytes.Equal(got, target)
		rows = append(rows, []string{"WEP", "CRC bit-flip forgery", fmt.Sprint(wepForged),
			"attacker rewrote the plaintext without the key"})

		// Random corruption is still caught by the ICV.
		corrupt := append([]byte(nil), sealed...)
		corrupt[wep.IVHeaderLen] ^= 0xff
		_, err = wep.Open(key, corrupt)
		rows = append(rows, []string{"WEP", "random corruption", fmt.Sprint(err == nil),
			"ICV catches non-crafted damage"})

		tk := []byte("0123456789abcdef")
		ta := [6]byte{2, 0, 0, 0, 0, 1}
		ccmp, err := wep.SealCCMP(tk, ta, 1, nil, plain)
		if err != nil {
			panic(err)
		}
		flipped := append([]byte(nil), ccmp...)
		flipped[wep.CCMPHeaderLen+4] ^= mask[4]
		_, _, err = wep.OpenCCMP(tk, ta, nil, flipped, 0)
		rows = append(rows, []string{"CCMP", "CTR bit-flip forgery", fmt.Sprint(err == nil),
			"keyed MIC rejects the flip"})

		_, _, err = wep.OpenCCMP(tk, ta, nil, ccmp, 1)
		rows = append(rows, []string{"CCMP", "replay (stale PN)", fmt.Sprint(err == nil),
			"packet-number window rejects replays"})
		return rows
	}}
}
