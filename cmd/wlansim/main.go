// Command wlansim runs a single configurable WLAN scenario and prints the
// measured results. It is the quick-look tool; the experiments command
// regenerates the full evaluation suite.
//
// Examples:
//
//	wlansim -n 10 -mode 802.11b -duration 5s
//	wlansim -n 2 -rate minstrel -fading rayleigh -distance 60
//	wlansim -topology infra -n 4 -trace trace.jsonl
//
// Bad flag values (an unknown mode, fading model or rate policy, a
// fixed:<idx> outside the mode's rate table, or an out-of-range -n,
// -payload, -distance or -duration) exit with status 2 and a message.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the scenario, prints the
// results to stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wlansim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topology = fs.String("topology", "adhoc", "adhoc (saturated star) or infra (AP + stations)")
		n        = fs.Int("n", 5, "number of sending stations")
		mode     = fs.String("mode", "802.11b", "PHY mode: 802.11, 802.11a, 802.11b, 802.11g")
		rateCtl  = fs.String("rate", "fixed", "rate control: fixed[:idx], arf, aarf, samplerate, minstrel")
		fading   = fs.String("fading", "", "fading: none, rayleigh, rician:<K>")
		rts      = fs.Int("rts", 0, "RTS threshold in bytes (0 = off)")
		payload  = fs.Int("payload", 1500, "payload bytes per packet")
		distance = fs.Float64("distance", 5, "sender distance from the sink/AP in metres")
		duration = fs.Duration("duration", 3*time.Second, "virtual run time")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		traceOut = fs.String("trace", "", "write a JSONL frame trace to this file")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	cfg := core.Config{
		Seed:      *seed,
		Mode:      *mode,
		RateAdapt: *rateCtl,
		Fading:    *fading,
	}
	if *rts > 0 {
		cfg.RTSThreshold = *rts
	}
	bad := cfg.Validate()
	switch {
	case bad != nil:
	case *topology != "adhoc" && *topology != "infra":
		bad = fmt.Errorf("unknown topology %q (want adhoc or infra)", *topology)
	case *n < 1:
		bad = fmt.Errorf("-n %d: need at least one station", *n)
	case *payload < traffic.HeaderLen || *payload > frame.MaxMSDU:
		bad = fmt.Errorf("-payload %d: want %d..%d bytes", *payload, traffic.HeaderLen, frame.MaxMSDU)
	case !(*distance > 0) || math.IsInf(*distance, 0):
		bad = fmt.Errorf("-distance %v: want a positive finite distance in metres", *distance)
	case *duration <= 0:
		bad = fmt.Errorf("-duration %v: want a positive virtual run time", *duration)
	}
	if bad != nil {
		fmt.Fprintln(stderr, "wlansim:", bad)
		return 2
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "wlansim:", err)
			return 1
		}
		defer f.Close()
		cfg.Tracer = trace.JSONL{W: f}
	}

	net := core.NewNetwork(cfg)
	dur := sim.Duration(duration.Nanoseconds())

	var flows []uint32
	switch *topology {
	case "adhoc":
		sink := net.AddAdhoc("sink", geom.Pt(0, 0))
		pts := geom.Circle(*n, *distance, geom.Pt(0, 0))
		for i := 0; i < *n; i++ {
			s := net.AddAdhoc(fmt.Sprintf("sta%d", i), pts[i])
			flows = append(flows, net.Saturate(s, sink, *payload))
		}
	case "infra":
		ap := net.AddAP("ap", geom.Pt(0, 0), net80211.APConfig{SSID: "wlansim"})
		pts := geom.Circle(*n, *distance, geom.Pt(0, 0))
		var nodes []*core.Node
		for i := 0; i < *n; i++ {
			nodes = append(nodes, net.AddStation(fmt.Sprintf("sta%d", i), pts[i],
				net80211.STAConfig{SSID: "wlansim"}))
		}
		net.Run(1 * sim.Second) // association phase
		for _, s := range nodes {
			flows = append(flows, net.Saturate(s, ap, *payload))
		}
	}

	net.Run(dur)

	table := stats.NewTable(
		fmt.Sprintf("wlansim: %s, %d stations, %s, rate=%s, %v",
			*mode, *n, *topology, *rateCtl, *duration),
		"flow", "Mbit/s", "delivered", "loss %", "mean delay ms", "retries")
	var agg float64
	var per []float64
	for i, id := range flows {
		fs := net.FlowStats(id)
		node := net.Nodes()[i+1] // index 0 is the sink/AP
		if fs == nil {
			table.AddRow(fmt.Sprint(id), "0.00", "0", "100.0", "-", fmt.Sprint(node.MAC.Stats().Retries))
			per = append(per, 0)
			continue
		}
		tput := net.FlowThroughput(id)
		agg += tput
		per = append(per, tput)
		table.AddRow(fmt.Sprint(id), stats.Mbps(tput), fmt.Sprint(fs.Received),
			stats.F(100*fs.LossRatio(), 1), stats.F(fs.Latency.Mean()*1000, 2),
			fmt.Sprint(node.MAC.Stats().Retries))
	}
	fmt.Fprintln(stdout, table.Render())
	fmt.Fprintf(stdout, "aggregate: %s Mbit/s   jain fairness: %s\n",
		stats.Mbps(agg), stats.F(stats.JainIndex(per), 4))
	return 0
}
