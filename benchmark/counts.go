package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
)

// counts are the work counters of one operation, read from the public
// accessors of each layer after the operation ends. They are exact: two
// operations on one seed must produce identical counts.
type counts struct {
	Events       uint64 // kernel events executed
	HeapHW       uint64 // kernel heap high-water mark
	PoolEvents   uint64 // kernel event slots ever allocated
	Cohorts      uint64 // same-timestamp cohorts drained
	CohortEvents uint64 // events delivered through cohorts

	Tx         uint64 // medium transmissions
	Candidates uint64 // fan-out candidates walked
	Delivered  uint64 // arrivals scheduled
	CacheHits  uint64
	CacheMiss  uint64
	Migrations uint64 // spatial-grid cell changes

	Attempts     uint64 // MAC data/mgmt MPDU attempts
	Retries      uint64
	Drops        uint64 // MSDUs dropped at the retry limit
	BackoffSlots uint64

	Beacons       uint64
	Roams         uint64
	Handoffs      uint64
	DecryptErrors uint64
	PSBuffered    uint64

	Sent     uint64 // payloads the generators handed to the stack
	Received uint64 // payloads the sink parsed
}

// readCounts collects the counters of a finished network.
func readCounts(net *core.Network) counts {
	var c counts
	k := net.Kernel()
	c.Events = k.Processed()
	c.HeapHW = uint64(k.HeapHighWater())
	c.PoolEvents = uint64(k.PoolSize())
	buckets, events := k.CohortSizes()
	for _, b := range buckets {
		c.Cohorts += b
	}
	c.CohortEvents = events

	m := net.Medium()
	c.Tx = m.Transmissions
	c.Candidates = m.FanoutCandidates
	c.Delivered = m.FanoutDelivered
	c.CacheHits = m.LinkCacheHits
	c.CacheMiss = m.LinkCacheMisses
	c.Migrations = m.GridMigrations

	for _, n := range net.Nodes() {
		st := n.MAC.Stats()
		c.Attempts += st.DataTx
		c.Retries += st.Retries
		c.Drops += st.MSDUDropped
		c.BackoffSlots += st.BackoffSlots
		if ap := n.AP; ap != nil {
			c.Beacons += ap.Stats.BeaconsSent
			c.Handoffs += ap.Stats.Handoffs
			c.DecryptErrors += ap.Stats.DecryptErrors
			c.PSBuffered += ap.Stats.PSBuffered
		}
		if sta := n.STA; sta != nil {
			c.Roams += sta.Stats.Roams
			c.DecryptErrors += sta.Stats.DecryptErrors
		}
	}
	for _, g := range net.Generators() {
		c.Sent += g.Sent()
	}
	c.Received = net.Sink().TotalReceived()
	return c
}

// checkNetwork applies the per-operation invariants to a finished network:
// every MSDU a MAC accepted is delivered, dropped, still queued or the one
// in flight, and the sink never receives more payloads than were sent.
func checkNetwork(net *core.Network) error {
	for _, n := range net.Nodes() {
		st := n.MAC.Stats()
		if err := checkConservation(n.Name, st.MSDUQueued, st.MSDUDelivered, st.MSDUDropped, uint64(n.MAC.QueueLen())); err != nil {
			return err
		}
	}
	var sent uint64
	for _, g := range net.Generators() {
		sent += g.Sent()
	}
	if recv := net.Sink().TotalReceived(); recv > sent {
		return fmt.Errorf("sink received %d payloads but generators sent %d", recv, sent)
	}
	return nil
}

// checkConservation requires queued − delivered − dropped − queue length
// to be 0, or 1 for the MSDU in flight.
func checkConservation(node string, queued, delivered, dropped, queueLen uint64) error {
	out := delivered + dropped + queueLen
	if queued != out && queued != out+1 {
		return fmt.Errorf("%s: MAC accepted %d MSDUs but delivered %d, dropped %d and holds %d",
			node, queued, delivered, dropped, queueLen)
	}
	return nil
}

// digestNetwork hashes an operation's outcome: every flow's sink
// statistics, every MAC's counters and the layer counts. Two operations on
// one seed must give the same digest.
func digestNetwork(net *core.Network, c counts) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for id := range net.Generators() {
		if fs := net.FlowStats(uint32(id + 1)); fs != nil {
			put(uint64(id+1), fs.Received, fs.Bytes)
		}
	}
	for _, n := range net.Nodes() {
		st := n.MAC.Stats()
		put(st.MSDUQueued, st.QueueDrops, st.DataTx, st.Retries, st.MSDUDelivered, st.MSDUDropped,
			st.RTSTx, st.CTSTx, st.CTSTimeouts, st.ACKTx, st.ACKTimeouts, st.RxData, st.RxDup,
			st.RxDeliver, st.NAVSets, st.EIFSDeferrals, st.BackoffSlots)
	}
	put(c.fields()...)
	return h.Sum64()
}

// fields lists every count, in declaration order.
func (c counts) fields() []uint64 {
	return []uint64{c.Events, c.HeapHW, c.PoolEvents, c.Cohorts, c.CohortEvents,
		c.Tx, c.Candidates, c.Delivered, c.CacheHits, c.CacheMiss, c.Migrations,
		c.Attempts, c.Retries, c.Drops, c.BackoffSlots,
		c.Beacons, c.Roams, c.Handoffs, c.DecryptErrors, c.PSBuffered,
		c.Sent, c.Received}
}
