package net80211

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/sim"
)

// MAC is the link layer an Adhoc node sends through: the DCF or one of
// the baseline MACs (mac.Aloha, mac.TDMA). Enqueue follows the DCF's
// transmit ownership contract (mac package doc): the MAC holds at most
// QueueCap()+1 frames, and a successful TryReserve guarantees the next
// Enqueue is accepted.
type MAC interface {
	Address() frame.MACAddr
	QueueCap() int
	TryReserve() bool
	Enqueue(f *frame.Frame) bool
	SetReceiver(r mac.Receiver)
}

// Adhoc is an IBSS (independent BSS) node: stations exchange data frames
// directly with ToDS = FromDS = 0 and a shared, locally administered BSSID.
// There is no association machinery; the experiments use it for mesh-style
// topologies and, over a baseline MAC, for the MAC comparison.
type Adhoc struct {
	k     *sim.Kernel
	mac   MAC
	bssid frame.MACAddr
	tx    *txPool

	// OnReceive delivers application payloads.
	OnReceive DeliveryFunc

	TxPayloads uint64
	RxPayloads uint64
}

// NewAdhoc joins a node to the IBSS identified by bssid (all members must
// share it).
func NewAdhoc(k *sim.Kernel, m MAC, bssid frame.MACAddr) *Adhoc {
	a := &Adhoc{k: k, mac: m, bssid: bssid, tx: newTxPool(m.QueueCap())}
	m.SetReceiver(a.receive)
	return a
}

// IBSSID returns a conventional locally administered BSSID for tests and
// examples that need a shared one.
func IBSSID() frame.MACAddr { return frame.MACAddr{0x02, 0xad, 0x0c, 0, 0, 0x01} }

// Address returns the node's MAC address.
func (a *Adhoc) Address() frame.MACAddr { return a.mac.Address() }

// Send transmits an application payload directly to dst (or broadcast).
// TryReserve pins a queue slot before the pooled frame is built; Enqueue
// settles the reservation whether or not it succeeds, so a refused enqueue
// can neither leak the reservation nor strand the pooled slot (regression:
// TestAdhocSendNoReservationLeak).
func (a *Adhoc) Send(dst frame.MACAddr, payload []byte) bool {
	if !a.mac.TryReserve() {
		return false
	}
	slot := a.tx.slot()
	slot.body = frame.AppendSNAP(slot.body[:0], EtherTypePayload, payload)
	slot.f = frame.Frame{
		Type: frame.TypeData, Subtype: frame.SubtypeData,
		Addr1: dst, Addr2: a.Address(), Addr3: a.bssid,
		Body: slot.body,
	}
	if !a.mac.Enqueue(&slot.f) {
		return false
	}
	a.tx.commit()
	a.TxPayloads++
	return true
}

// receive handles frames from the MAC.
func (a *Adhoc) receive(f *frame.Frame, _ medium.RxInfo) {
	if f.Type != frame.TypeData {
		return
	}
	if f.ToDS || f.FromDS || f.BSSID() != a.bssid {
		return
	}
	et, payload, err := frame.DecapSNAP(f.Body)
	if err != nil || et != EtherTypePayload {
		return
	}
	a.RxPayloads++
	if a.OnReceive != nil {
		a.OnReceive(f.SA(), f.DA(), payload)
	}
}
