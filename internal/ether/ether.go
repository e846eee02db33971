// Package ether is the wired distribution-system substrate: a learning
// switch that connects access points (and any wired host) so ESS roaming
// and inter-BSS traffic work. It models store-and-forward latency but not
// Ethernet contention — the experiments never stress the wire, only the
// air, so fidelity beyond frame relay and MAC learning would be dead
// weight (recorded as a substitution in README.md's model-fidelity notes).
package ether

import (
	"repro/internal/frame"
	"repro/internal/sim"
)

// Frame is a wired-side frame: flat addresses and payload, no 802.11
// header. The AP translates between this and 802.11 data frames.
type Frame struct {
	Dst, Src frame.MACAddr
	Payload  []byte
}

// Port is one attachment point on the switch.
type Port struct {
	sw *Switch
	id int
	rx func(f Frame)
}

// Send puts a frame on the wire from this port.
func (p *Port) Send(f Frame) { p.sw.forward(p.id, f) }

// Switch is a learning Ethernet switch.
type Switch struct {
	k       *sim.Kernel
	ports   []*Port
	table   map[frame.MACAddr]int // learned address → port id
	Latency sim.Duration          // per-hop forwarding latency

	Forwarded uint64
	Flooded   uint64
}

// NewSwitch builds a switch with the given forwarding latency (zero is
// fine for experiments).
func NewSwitch(k *sim.Kernel, latency sim.Duration) *Switch {
	return &Switch{k: k, table: make(map[frame.MACAddr]int), Latency: latency}
}

// AddPort attaches a device; rx is invoked for every frame the port should
// receive.
func (s *Switch) AddPort(rx func(f Frame)) *Port {
	p := &Port{sw: s, id: len(s.ports), rx: rx}
	s.ports = append(s.ports, p)
	return p
}

// forward learns the source and delivers to the learned port or floods.
func (s *Switch) forward(fromID int, f Frame) {
	s.table[f.Src] = fromID
	deliver := func(p *Port) {
		if s.Latency > 0 {
			s.k.Schedule(s.Latency, "ether-fwd", func() { p.rx(f) })
		} else {
			// Still defer one event so wired delivery never reenters the
			// sender's call stack.
			s.k.Schedule(0, "ether-fwd", func() { p.rx(f) })
		}
	}
	if !f.Dst.IsGroup() {
		if toID, ok := s.table[f.Dst]; ok && toID != fromID {
			s.Forwarded++
			deliver(s.ports[toID])
			return
		}
	}
	// Flood: unknown unicast, broadcast or multicast.
	s.Flooded++
	for _, p := range s.ports {
		if p.id != fromID {
			deliver(p)
		}
	}
}

// Relearn moves an address to a new port. An AP registers its own BSSID
// this way when it attaches, since it never sends from that address.
// Sending any frame from the new port also relearns automatically.
func (s *Switch) Relearn(addr frame.MACAddr, p *Port) { s.table[addr] = p.id }
