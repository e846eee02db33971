package mac

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
)

// The baseline MACs below deliberately omit acknowledgements and
// retransmissions: they exist to reproduce the textbook offered-load versus
// goodput curves (ALOHA's G·e^{-2G}, slotted ALOHA's G·e^{-G}, TDMA's
// min(G, 1)) that the DCF is compared against in experiment F11. Delivery
// is measured at the receiver. Like the DCF they queue at most QueueCap
// frames (TryReserve admission included) and deliver upward only frames
// addressed to them or to a group address, so they slot under the same
// net80211 send path and traffic sink.

// BaselineStats counts baseline MAC activity.
type BaselineStats struct {
	Queued     uint64 // Enqueue calls accepted
	QueueDrops uint64 // TryReserve/Enqueue calls refused (full queue)
	Tx         uint64
	RxOK       uint64 // frames delivered upward
	RxErrors   uint64
}

// baseline is the state and behaviour the baseline MACs share: radio,
// rate, address, the bounded transmit queue, upward delivery and stats.
// Frames leave the queue straight onto the air, where the medium
// serialises them, so the MAC holds at most QueueCap frames at a time.
type baseline struct {
	k        *sim.Kernel
	radio    *medium.Radio
	rate     phy.RateIdx
	addr     frame.MACAddr
	queue    txQueue[*frame.Frame]
	receiver Receiver
	Stats    BaselineStats
}

func newBaseline(k *sim.Kernel, radio *medium.Radio, addr frame.MACAddr, rate phy.RateIdx, queueCap int) baseline {
	return baseline{k: k, radio: radio, rate: rate, addr: addr, queue: newTxQueue[*frame.Frame](queueCap)}
}

// Address returns the station MAC address.
func (b *baseline) Address() frame.MACAddr { return b.addr }

// QueueCap returns the transmit queue capacity in frames.
func (b *baseline) QueueCap() int { return b.queue.cap }

// SetReceiver installs the upward delivery callback.
func (b *baseline) SetReceiver(r Receiver) { b.receiver = r }

// TryReserve reserves a transmit-queue slot, counting a queue drop when
// the queue is full; the next Enqueue settles it (see DCF.TryReserve).
func (b *baseline) TryReserve() bool {
	if !b.queue.reserve() {
		b.Stats.QueueDrops++
		return false
	}
	return true
}

// admit queues f if the queue takes it.
func (b *baseline) admit(f *frame.Frame) bool {
	if !b.queue.admit() {
		b.Stats.QueueDrops++
		return false
	}
	b.queue.push(f)
	b.Stats.Queued++
	return true
}

// transmit sends the oldest queued frame.
func (b *baseline) transmit() {
	b.Stats.Tx++
	b.radio.Transmit(b.queue.pop(), b.rate)
}

// OnCCABusy implements medium.Listener (baselines ignore carrier sense).
func (b *baseline) OnCCABusy() {}

// OnCCAIdle implements medium.Listener.
func (b *baseline) OnCCAIdle() {}

// OnRxError implements medium.Listener.
func (b *baseline) OnRxError(medium.RxInfo) { b.Stats.RxErrors++ }

// OnRxFrame implements medium.Listener: frames addressed to this station
// or to a group address go up; overheard unicast is dropped.
func (b *baseline) OnRxFrame(f *frame.Frame, info medium.RxInfo) {
	if f.Addr1 != b.addr && !f.Addr1.IsGroup() {
		return
	}
	b.Stats.RxOK++
	if b.receiver != nil {
		b.receiver(f, info)
	}
}

// Aloha implements pure ALOHA (transmit the moment a frame arrives) and,
// with a slot length, slotted ALOHA (transmissions aligned to slot
// boundaries).
type Aloha struct {
	baseline
	slot sim.Duration

	// Slot wakeup event name and callback, built once.
	slotName string
	pumpFn   func()
}

// NewAloha attaches an ALOHA MAC with address addr to a radio, transmitting
// at the given rate index and queueing at most queueCap frames (0 = 64).
// Slot 0 means pure ALOHA; a positive slot aligns transmission starts to
// its multiples (one frame airtime gives the textbook slotted curve).
func NewAloha(k *sim.Kernel, radio *medium.Radio, addr frame.MACAddr, rate phy.RateIdx, queueCap int, slot sim.Duration) *Aloha {
	if slot < 0 {
		panic(fmt.Sprintf("mac: ALOHA slot %v, want >= 0", slot))
	}
	a := &Aloha{baseline: newBaseline(k, radio, addr, rate, queueCap), slot: slot,
		slotName: "aloha-slot:" + radio.Name()}
	a.pumpFn = a.pump
	radio.SetListener(a)
	return a
}

// Enqueue accepts a frame and transmits it as soon as the radio is free
// (immediately for pure ALOHA; at the next slot boundary when slotted). It
// returns false when the queue is full.
func (a *Aloha) Enqueue(f *frame.Frame) bool {
	if !a.admit(f) {
		return false
	}
	a.pump()
	return true
}

func (a *Aloha) pump() {
	if a.queue.len() == 0 || a.radio.Transmitting() {
		return
	}
	if a.slot > 0 {
		now := a.k.Now()
		next := (int64(now) + int64(a.slot) - 1) / int64(a.slot) * int64(a.slot)
		if wait := sim.Time(next).Sub(now); wait > 0 {
			a.k.Schedule(wait, a.slotName, a.pumpFn)
			return
		}
	}
	a.transmit()
}

// OnTxDone implements medium.Listener.
func (a *Aloha) OnTxDone() { a.pump() }

// TDMA is an idealized, perfectly synchronized round-robin TDMA MAC: node i
// of n owns slots i, i+n, i+2n, … of fixed duration. No contention, no
// acknowledgements — the collision-free upper baseline.
type TDMA struct {
	baseline

	slot    int
	nSlots  int
	slotDur sim.Duration
	started bool

	// Slot wakeup event name and callback, built once.
	slotName string
	onSlotFn func()
}

// NewTDMA attaches a TDMA MAC with address addr owning slot index slot of
// nSlots, each slotDur long (must cover one frame airtime plus guard),
// queueing at most queueCap frames (0 = 64). It panics unless
// nSlots > 0, 0 <= slot < nSlots and slotDur > 0.
func NewTDMA(k *sim.Kernel, radio *medium.Radio, addr frame.MACAddr, rate phy.RateIdx, queueCap, slot, nSlots int, slotDur sim.Duration) *TDMA {
	switch {
	case nSlots <= 0:
		panic(fmt.Sprintf("mac: TDMA slot count %d, want > 0", nSlots))
	case slot < 0 || slot >= nSlots:
		panic(fmt.Sprintf("mac: TDMA slot %d outside [0, %d)", slot, nSlots))
	case slotDur <= 0:
		panic(fmt.Sprintf("mac: TDMA slot duration %v, want > 0", slotDur))
	}
	t := &TDMA{baseline: newBaseline(k, radio, addr, rate, queueCap),
		slot: slot, nSlots: nSlots, slotDur: slotDur,
		slotName: "tdma-slot:" + radio.Name()}
	t.onSlotFn = t.onSlot
	radio.SetListener(t)
	return t
}

// Enqueue accepts a frame for the next owned slot. It returns false when
// the queue is full.
func (t *TDMA) Enqueue(f *frame.Frame) bool {
	if !t.admit(f) {
		return false
	}
	if !t.started {
		t.started = true
		t.armNext()
	}
	return true
}

// armNext schedules a wakeup at the start of our next owned slot.
func (t *TDMA) armNext() {
	now := int64(t.k.Now())
	frameLen := int64(t.slotDur) * int64(t.nSlots)
	base := now / frameLen * frameLen
	mine := base + int64(t.slot)*int64(t.slotDur)
	for mine <= now {
		mine += frameLen
	}
	t.k.ScheduleAt(sim.Time(mine), t.slotName, t.onSlotFn)
}

func (t *TDMA) onSlot() {
	if t.queue.len() > 0 && !t.radio.Transmitting() {
		t.transmit()
	}
	t.armNext()
}

// OnTxDone implements medium.Listener.
func (t *TDMA) OnTxDone() {}

// Interface checks.
var (
	_ medium.Listener = (*Aloha)(nil)
	_ medium.Listener = (*TDMA)(nil)
	_ medium.Listener = (*DCF)(nil)
)
