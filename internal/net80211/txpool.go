package net80211

import (
	"repro/internal/frame"
)

// txPool recycles outgoing data frames and their body buffers for one
// node's send path. Each slot pairs a Frame header with a reusable body
// buffer (the SNAP encapsulation, or the WEP-sealed envelope); snap is the
// plaintext scratch WEP sealing reads from.
//
// Ownership protocol: slot() hands out the current slot for the caller to
// fill and pass to the MAC's Enqueue. If the MAC accepts the frame the caller
// must commit() — ownership has moved to the MAC until the MSDU is
// delivered or dropped. If the enqueue is refused (or the frame is handed
// somewhere that clones it, like a power-save buffer) the caller simply
// does not commit, and the next send reuses the slot.
//
// The pool holds queueCap+2 slots, where queueCap is the MAC's transmit
// queue capacity. The MAC drains in FIFO order and holds at most
// queueCap+1 frames at once (the queue plus the in-flight job), and the
// pool advances only on accepted enqueues, so by the time a slot comes
// around again its previous frame has necessarily left the MAC: holding it
// would require queueCap+2 resident frames. Steady-state sends therefore
// reuse both the Frame structs and the grown body buffers forever — zero
// allocations per payload.
type txPool struct {
	slots []txSlot
	next  int
	snap  []byte
}

// txSlot is one pooled outgoing frame.
type txSlot struct {
	f    frame.Frame
	body []byte
}

// newTxPool sizes a pool for a MAC with the given transmit queue capacity.
func newTxPool(queueCap int) *txPool {
	return &txPool{slots: make([]txSlot, queueCap+2)}
}

// slot returns the current slot. The caller overwrites slot.f entirely and
// rebuilds slot.body from length zero, so no state leaks between sends.
//
//wlan:hotpath
func (p *txPool) slot() *txSlot {
	return &p.slots[p.next]
}

// commit advances the pool after the MAC accepted the current slot's frame.
//
//wlan:hotpath
func (p *txPool) commit() {
	p.next++
	if p.next == len(p.slots) {
		p.next = 0
	}
}
