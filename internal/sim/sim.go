// Package sim is the discrete-event simulation kernel underneath the whole
// stack. It provides a nanosecond-resolution virtual clock, a stable
// priority queue of events, cancellable timers, and run-until/run-for
// control. The kernel is strictly single-goroutine: all model code executes
// inside event callbacks, which keeps runs bit-for-bit reproducible.
//
// The kernel is built for throughput: Event objects are recycled through a
// free list (steady-state scheduling performs zero allocations), the queue
// is a struct-of-arrays 4-ary heap — sift operations move only flat
// (at, seq, slot) keys, never *Event pointers, so they touch a fraction of
// the cache lines and incur no GC write barriers — and cancelled events are
// reaped lazily in bulk once they outnumber half the queue. Callers hold
// generation-checked Timer handles, so a recycled Event can never be
// cancelled by a stale handle.
//
// # Ordering contract
//
// Events execute in strict (at, seq) order: by time, and at equal times by
// sequence number, which is schedule order. The run loop pops one key at a
// time from the heap root. A callback that schedules at the current time
// queues behind every event already queued for it, and a cancel takes
// effect whenever it happens before the event is popped.
//
// # Sorted runs
//
// A caller with many callbacks for one function — the medium's per-receiver
// arrival edges — can queue them as one sorted run (ScheduleRun) instead of
// one Event each. It reserves their sequence numbers up front (ReserveSeqs)
// and hands the kernel (at, seq, arg) entries sorted by (at, seq). The heap
// holds only the run's next key; popping it executes that entry, puts the
// run's following key at the root and sifts it down once. Run entries
// interleave with plain events exactly as the same entries scheduled one by
// one with those sequence numbers would, so a run changes what the queue
// stores, never the order of delivery. Runs cannot be cancelled.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration semantics but is a distinct type so wall-clock durations
// cannot be mixed into the simulation accidentally.
type Duration int64

// Convenience duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add advances a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds converts a duration to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
}

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.1fµs", d.Microseconds())
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Event is a scheduled callback. Events are owned and recycled by the
// kernel; model code refers to them only through Timer handles.
type Event struct {
	at     Time
	seq    uint64 // tie-break: schedule order
	slot   int32  // permanent index into Kernel.slots; heap keys carry it
	queued bool   // in the heap; false on the free list or once popped
	gen    uint32 // bumped on each recycle; Timer handles carry a copy
	fn     func()
	name   string
	cancel bool
}

// Timer is a cancellable handle to a scheduled event. The zero value is an
// inert handle: Scheduled reports false and Cancel is a no-op. Handles stay
// safe after their event fires — the generation check prevents a stale
// handle from touching a recycled Event.
type Timer struct {
	e   *Event
	gen uint32
}

// At returns the virtual time the event is scheduled for, or 0 when the
// handle is no longer live.
func (t Timer) At() Time {
	if t.e == nil || t.e.gen != t.gen {
		return 0
	}
	return t.e.at
}

// Scheduled reports whether the event is still pending.
func (t Timer) Scheduled() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.queued && !t.e.cancel
}

// heapKey is one struct-of-arrays heap element: the (at, seq) ordering key
// plus the slot of its payload Event, or ^id for a sorted run's head. Sifts
// move only these flat 24-byte keys — no pointers, so no GC write barriers,
// and a 4-child comparison reads at most two contiguous cache lines instead
// of chasing four *Event.
type heapKey struct {
	at   Time
	seq  uint64
	slot int32
}

// RunEntry is one event of a sorted run (see ScheduleRun): when it fires,
// the sequence number the caller reserved for it, and its callback argument.
type RunEntry struct {
	At  Time
	Seq uint64
	Arg any
}

// run is one queued sorted run. The heap holds a single key for it, its
// next entry's (at, seq), whose slot is the bitwise complement of the run's
// id, so run heads and Event slots share one key type.
type run struct {
	buf  []RunEntry // pooled; capacity is a power of two
	pos  int        // next entry to execute
	fn   func(any)
	name string
}

// keyLess orders heap keys by (time, schedule order).
//
//wlan:hotpath
func keyLess(a, b heapKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is the simulation executive. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now  Time
	heap []heapKey // 4-ary min-heap on (at, seq); payloads stay in slots
	// slots is the payload side of the struct-of-arrays heap: every Event
	// this kernel ever created, at its permanent slot index. Events never
	// move, so heap keys can name them with an int32.
	slots     []*Event
	free      []int32 // recycled events, by slot id — no pointers, no barriers
	seq       uint64
	cancelled int // cancelled events still sitting in the heap
	stopped   bool
	// Sorted runs: run slots by id, free run ids by log2 of their buffer
	// capacity, and runExtra, the queued run entries behind each run's
	// heap-resident head.
	runs     []run
	freeRuns [32][]int32
	runExtra int
	// Hooks for instrumentation; may be nil.
	OnEvent func(at Time, name string)
	// processed counts events executed, for diagnostics and tests.
	processed uint64
	heapHW    int // max heap depth observed, for diagnostics
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of live (non-cancelled) events in the queue,
// counting every unexecuted run entry.
func (k *Kernel) Pending() int {
	return len(k.heap) - k.cancelled + k.runExtra
}

// CohortSizes returns same-timestamp cohort statistics in power-of-two size
// buckets (bucket i holds cohorts of size in (2^(i-1), 2^i], the last
// bucket unbounded) and the number of events delivered through cohorts.
// The kernel pops one event at a time, so every executed event counts as a
// cohort of size 1. It stays for the benchmark's per-layer counters.
func (k *Kernel) CohortSizes() (buckets [8]uint64, events uint64) {
	buckets[0] = k.processed
	return buckets, k.processed
}

// HeapDepth returns the number of heap keys right now: one per queued
// event (including cancelled ones not yet reaped) and one per queued run.
func (k *Kernel) HeapDepth() int { return len(k.heap) }

// HeapHighWater returns the maximum heap depth observed so far, counting a
// queued run as one key.
func (k *Kernel) HeapHighWater() int { return k.heapHW }

// PoolSize returns the number of Event slots this kernel has ever
// allocated (the pool's footprint).
func (k *Kernel) PoolSize() int { return len(k.slots) }

// FreeEvents returns how many pooled events are on the free list.
func (k *Kernel) FreeEvents() int { return len(k.free) }

// Stopped reports whether the last Run/RunUntil returned because Stop was
// called rather than because the queue drained or the deadline passed.
func (k *Kernel) Stopped() bool { return k.stopped }

// --- struct-of-arrays 4-ary heap -----------------------------------------

// up restores the heap property from position i toward the root.
//
//wlan:hotpath
func (k *Kernel) up(i int) {
	h := k.heap
	key := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !keyLess(key, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = key
}

// down restores the heap property from position i toward the leaves.
//
//wlan:hotpath
func (k *Kernel) down(i int) {
	h := k.heap
	n := len(h)
	key := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if keyLess(h[j], h[m]) {
				m = j
			}
		}
		if !keyLess(h[m], key) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = key
}

// --- event pool ----------------------------------------------------------

func (k *Kernel) getEvent() *Event {
	if n := len(k.free); n > 0 {
		e := k.slots[k.free[n-1]]
		k.free = k.free[:n-1]
		return e
	}
	e := &Event{slot: int32(len(k.slots))}
	k.slots = append(k.slots, e)
	return e
}

// putEvent recycles a detached event. Bumping gen invalidates every Timer
// handle that still points at it. The callback field is deliberately NOT
// cleared — the next scheduleAt overwrites it, and nilling a pointer here
// costs a GC write barrier per recycled event on the hottest kernel path.
// A free-listed event may therefore briefly pin its last callback, which
// belongs to the same scenario as the kernel, so nothing outlives its
// owner.
//
//wlan:hotpath
func (k *Kernel) putEvent(e *Event) {
	e.gen++
	e.cancel = false
	e.queued = false
	k.free = append(k.free, e.slot)
}

// --- scheduling ----------------------------------------------------------

// scheduleAt is the shared slow-free insert path.
func (k *Kernel) scheduleAt(at Time, name string, fn func()) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, k.now))
	}
	e := k.getEvent()
	e.at = at
	e.seq = k.seq
	e.fn = fn
	e.name = name
	e.queued = true
	k.seq++
	k.heap = append(k.heap, heapKey{at: at, seq: e.seq, slot: e.slot})
	if len(k.heap) > k.heapHW {
		k.heapHW = len(k.heap)
	}
	k.up(len(k.heap) - 1)
	return Timer{e: e, gen: e.gen}
}

// ScheduleAt queues fn to run at the absolute time at. Scheduling in the
// past panics: that is always a model bug.
func (k *Kernel) ScheduleAt(at Time, name string, fn func()) Timer {
	return k.scheduleAt(at, name, fn)
}

// Schedule queues fn to run after delay d (which may be zero: the event runs
// after all events already queued for the current instant).
func (k *Kernel) Schedule(d Duration, name string, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", d, name))
	}
	return k.scheduleAt(k.now.Add(d), name, fn)
}

// ReserveSeqs reserves n consecutive sequence numbers for run entries and
// returns the first. Events scheduled later get later numbers, so a
// reserved number breaks timestamp ties exactly as an event scheduled at
// the moment of the reservation would.
func (k *Kernel) ReserveSeqs(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative sequence reservation %d", n))
	}
	base := k.seq
	k.seq += uint64(n)
	return base
}

// ScheduleRun queues entries as one sorted run: fn(e.Arg) fires for each
// entry e at e.At, ordered against every other event by (e.At, e.Seq)
// exactly as if each entry had been scheduled on its own. Entries must be
// sorted by (At, Seq), carry sequence numbers from ReserveSeqs, and start
// no earlier than now; anything else panics. The kernel copies entries into
// a pooled buffer, so the caller may reuse the slice at once. Run entries
// have no Timer handles and cannot be cancelled, and OnEvent reports every
// entry under the run's name. The heap holds one key per run however long
// it is, and steady-state runs are zero-alloc.
//
//wlan:hotpath
func (k *Kernel) ScheduleRun(name string, fn func(any), entries []RunEntry) {
	n := len(entries)
	if n == 0 {
		return
	}
	k.checkRun(name, entries)
	id := k.getRun(n)
	r := &k.runs[id]
	r.buf = append(r.buf[:0], entries...)
	r.pos = 0
	r.fn = fn
	r.name = name
	k.runExtra += n - 1
	k.heap = append(k.heap, heapKey{at: entries[0].At, seq: entries[0].Seq, slot: ^id})
	if len(k.heap) > k.heapHW {
		k.heapHW = len(k.heap)
	}
	k.up(len(k.heap) - 1)
}

// checkRun panics unless entries form a valid run: starting no earlier
// than now, sorted by (at, seq), every seq already reserved. Scheduling in
// the past or out of order is always a model bug, as in scheduleAt.
func (k *Kernel) checkRun(name string, entries []RunEntry) {
	if entries[0].At < k.now {
		panic(fmt.Sprintf("sim: run %q starts at %v before now %v", name, entries[0].At, k.now))
	}
	for i, e := range entries {
		if e.Seq >= k.seq {
			panic(fmt.Sprintf("sim: run %q entry %d has unreserved seq %d", name, i, e.Seq))
		}
		if i > 0 && !keyLess(heapKey{at: entries[i-1].At, seq: entries[i-1].Seq}, heapKey{at: e.At, seq: e.Seq}) {
			panic(fmt.Sprintf("sim: run %q entry %d (at %v, seq %d) is not after entry %d (at %v, seq %d)",
				name, i, e.At, e.Seq, i-1, entries[i-1].At, entries[i-1].Seq))
		}
	}
}

// getRun takes a free run slot whose buffer holds n entries. A slot keeps
// its buffer for life, and slots are pooled by the buffer's power-of-two
// capacity class, so a buffer is only reused for a run of its own class
// and the pool retains at most twice the peak number of queued entries
// per class.
func (k *Kernel) getRun(n int) int32 {
	c := bits.Len(uint(n - 1))
	if free := k.freeRuns[c]; len(free) > 0 {
		k.freeRuns[c] = free[:len(free)-1]
		return free[len(free)-1]
	}
	k.runs = append(k.runs, run{buf: make([]RunEntry, 0, 1<<c)})
	return int32(len(k.runs) - 1)
}

// putRun returns a finished run's slot to its class pool. As with
// putEvent, the buffer keeps its stale entries until the next run of its
// class overwrites them: clearing them costs a write barrier per entry.
//
//wlan:hotpath
func (k *Kernel) putRun(id int32) {
	c := bits.Len(uint(cap(k.runs[id].buf) - 1))
	k.freeRuns[c] = append(k.freeRuns[c], id)
}

// Cancel marks an event so it will not fire. Cancelling zero, fired or
// already-cancelled handles is a no-op. Cancelled events are reclaimed
// lazily: when the run loop pops them, or in bulk once they exceed half
// the queue.
func (k *Kernel) Cancel(t Timer) {
	e := t.e
	if e == nil || e.gen != t.gen || !e.queued || e.cancel {
		return
	}
	e.cancel = true
	e.fn = nil
	k.cancelled++
	if k.cancelled > 16 && k.cancelled > len(k.heap)/2 {
		k.reapCancelled()
	}
}

// reapCancelled rebuilds the queue without its cancelled events and recycles
// them. Heap layout among live events does not affect pop order — (at, seq)
// is a strict total order — so rebuilding cannot perturb determinism.
func (k *Kernel) reapCancelled() {
	h := k.heap
	live := h[:0]
	for _, key := range h {
		if key.slot < 0 {
			live = append(live, key) // run heads are never cancelled
			continue
		}
		e := k.slots[key.slot]
		if e.cancel {
			k.cancelled--
			k.putEvent(e)
		} else {
			live = append(live, key)
		}
	}
	k.heap = live
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		k.down(i)
	}
}

// Stop makes the current Run call return after the in-flight event finishes.
func (k *Kernel) Stop() { k.stopped = true }

// maxTime is the far-future deadline Run uses to drain everything.
const maxTime = Time(math.MaxInt64)

// popRoot removes the heap root.
//
//wlan:hotpath
func (k *Kernel) popRoot() {
	h := k.heap
	n := len(h) - 1
	k.heap = h[:n]
	if n > 0 {
		h[0] = h[n]
		k.down(0)
	}
}

// enter advances the clock to the time of the event about to execute and
// accounts for it.
//
//wlan:hotpath
func (k *Kernel) enter(at Time, name string) {
	if at < k.now {
		panic("sim: queue yielded event in the past")
	}
	k.now = at
	if k.OnEvent != nil {
		k.OnEvent(at, name)
	}
	k.processed++
}

// drainStep executes the next runnable event at or before deadline. It
// reports false when nothing remains at or before the deadline.
//
//wlan:hotpath
func (k *Kernel) drainStep(deadline Time) bool {
	for len(k.heap) > 0 {
		key := k.heap[0]
		if key.at > deadline {
			return false
		}
		if key.slot < 0 {
			k.execRun(key)
			return true
		}
		k.popRoot()
		e := k.slots[key.slot]
		if e.cancel {
			k.cancelled--
			k.putEvent(e)
			continue
		}
		k.enter(key.at, e.name)
		fn := e.fn
		k.putEvent(e) // recycle before invoking: the callback may reschedule
		fn()
		return true
	}
	return false
}

// execRun executes the entry at a run head. The run's next key replaces
// the heap root and sifts down once, or the root is removed when the run
// is done; the slot and buffer are recycled before the callback, which may
// reuse them.
//
//wlan:hotpath
func (k *Kernel) execRun(key heapKey) {
	id := ^key.slot
	r := &k.runs[id]
	ent := r.buf[r.pos]
	fn, name := r.fn, r.name
	r.pos++
	if r.pos < len(r.buf) {
		next := &r.buf[r.pos]
		k.heap[0] = heapKey{at: next.At, seq: next.Seq, slot: key.slot}
		k.down(0)
		k.runExtra--
	} else {
		k.popRoot()
		k.putRun(id)
	}
	k.enter(ent.At, name)
	fn(ent.Arg)
}

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.drainStep(maxTime) {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (if it is in the future) and returns.
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped = false
	for !k.stopped && k.drainStep(deadline) {
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (k *Kernel) RunFor(d Duration) {
	k.RunUntil(k.now.Add(d))
}

// Ticker repeatedly invokes fn every period until cancelled. The first tick
// fires after one period. It returns a cancel function.
func (k *Kernel) Ticker(period Duration, name string, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	var ev Timer
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = k.Schedule(period, name, tick)
		}
	}
	ev = k.Schedule(period, name, tick)
	return func() {
		stopped = true
		k.Cancel(ev)
	}
}
