package sim

import (
	"math/rand"
	"testing"
)

// --- reference implementation --------------------------------------------
//
// refHeap is a deliberately naive binary min-heap on (at, seq) with lazy
// cancellation: the simplest credible model of the kernel's ordering
// contract. The differential test below drives it in lock-step with the
// struct-of-arrays 4-ary heap and demands identical pop sequences.

type refKey struct {
	at  Time
	seq uint64
	id  int
}

func refLess(a, b refKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type refHeap struct {
	keys      []refKey
	cancelled map[uint64]bool
}

func newRefHeap() *refHeap {
	return &refHeap{cancelled: make(map[uint64]bool)}
}

func (h *refHeap) push(k refKey) {
	h.keys = append(h.keys, k)
	i := len(h.keys) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(h.keys[i], h.keys[p]) {
			break
		}
		h.keys[i], h.keys[p] = h.keys[p], h.keys[i]
		i = p
	}
}

// pop removes and returns the minimum live key, skipping cancelled entries.
// ok is false when the heap holds no live keys.
func (h *refHeap) pop() (refKey, bool) {
	for len(h.keys) > 0 {
		min := h.keys[0]
		n := len(h.keys) - 1
		h.keys[0] = h.keys[n]
		h.keys = h.keys[:n]
		if n > 0 {
			i := 0
			for {
				c := 2*i + 1
				if c >= n {
					break
				}
				if c+1 < n && refLess(h.keys[c+1], h.keys[c]) {
					c++
				}
				if !refLess(h.keys[c], h.keys[i]) {
					break
				}
				h.keys[i], h.keys[c] = h.keys[c], h.keys[i]
				i = c
			}
		}
		if h.cancelled[min.seq] {
			delete(h.cancelled, min.seq)
			continue
		}
		return min, true
	}
	return refKey{}, false
}

// --- differential workload ------------------------------------------------

// TestDifferentialHeap drives the kernel and the naive reference heap with
// the same seeded randomized workload for over a million operations and
// requires bit-identical pop sequences: plain schedules, cancels and
// same-tick reschedules interleaved with sorted runs (zero-length,
// single-entry and longer) and RunUntil deadlines that split them. Delays
// are quantized so run entries and plain events constantly tie on a
// timestamp; the reference sees each run entry as one plain key. Pending
// is checked against the reference's live count after every operation, and
// the workload must trigger bulk reaps while runs sit in the heap.
func TestDifferentialHeap(t *testing.T) {
	const loopOps = 1_000_000

	rng := rand.New(rand.NewSource(0xD157))
	k := NewKernel()
	ref := newRefHeap()

	type entry struct {
		id     int
		tm     Timer // zero for run entries, which cannot be cancelled
		seq    uint64
		popped bool
		dead   bool
	}
	var entries []*entry
	nextID := 0
	var seq uint64   // mirrors the kernel's internal schedule counter
	var got []int    // ids delivered by the kernel, appended by callbacks
	stopEach := true // every callback stops Run, so Run executes one event
	live := 0        // the reference's live (queued, uncancelled) keys
	refNow := Time(0)
	ops := 0
	runs, reaps, reapsWithRuns := 0, 0, 0

	deliver := func(id int) {
		got = append(got, id)
		if stopEach {
			k.Stop()
		}
	}
	runFn := func(x any) { deliver(x.(int)) }

	schedule := func(d Duration) {
		id := nextID
		nextID++
		e := &entry{id: id, seq: seq}
		e.tm = k.Schedule(d, "diff", func() { deliver(id) })
		ref.push(refKey{at: k.Now().Add(d), seq: seq, id: id})
		seq++
		live++
		entries = append(entries, e)
		ops++
	}

	// scheduleRun queues n entries as one sorted run, the way the medium
	// does: seqs reserved in generation order, then sorted by (at, seq).
	var buf []RunEntry
	scheduleRun := func(n int) {
		base := k.ReserveSeqs(n)
		if base != seq {
			t.Fatalf("ReserveSeqs returned %d, mirror %d", base, seq)
		}
		buf = buf[:0]
		for i := 0; i < n; i++ {
			id := nextID
			nextID++
			at := k.Now().Add(Duration(rng.Intn(32)) * 10 * Microsecond)
			buf = append(buf, RunEntry{At: at, Seq: seq, Arg: id})
			ref.push(refKey{at: at, seq: seq, id: id})
			entries = append(entries, &entry{id: id, seq: seq})
			seq++
			live++
		}
		for i := 1; i < len(buf); i++ { // insertion sort by (at, seq)
			for j := i; j > 0 && (buf[j].At < buf[j-1].At || buf[j].At == buf[j-1].At && buf[j].Seq < buf[j-1].Seq); j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		k.ScheduleRun("run", runFn, buf)
		runs++
		ops++
	}

	cancel := func(e *entry) {
		before := len(k.heap)
		k.Cancel(e.tm)
		if len(k.heap) < before {
			reaps++
			for _, key := range k.heap {
				if key.slot < 0 {
					reapsWithRuns++
					break
				}
			}
		}
		if e.tm != (Timer{}) && !e.popped && !e.dead {
			ref.cancelled[e.seq] = true
			e.dead = true
			live--
		}
		ops++
	}

	// check compares one kernel delivery with the next reference pop.
	check := func(id int) {
		key, ok := ref.pop()
		if !ok {
			t.Fatalf("op %d: kernel delivered id %d, reference is empty", ops, id)
		}
		if id != key.id {
			t.Fatalf("op %d: pop #%d diverged: kernel delivered id %d, reference id %d", ops, len(got), id, key.id)
		}
		if key.at < refNow {
			t.Fatalf("reference time went backwards: %v after %v", key.at, refNow)
		}
		refNow = key.at
		entries[id].popped = true
		live--
	}

	// popOne runs exactly one kernel event (every callback calls Stop) and
	// checks it against the reference pop. Returns false when both agree the
	// queue is empty.
	popOne := func() bool {
		before := k.Processed()
		k.Run()
		if k.Processed() == before {
			if key, ok := ref.pop(); ok {
				t.Fatalf("op %d: kernel empty, reference still holds id %d", ops, key.id)
			}
			return false
		}
		check(got[len(got)-1])
		if k.Now() != refNow {
			t.Fatalf("clock mismatch: kernel %v, reference %v", k.Now(), refNow)
		}
		ops++
		return true
	}

	// runUntil lets the kernel run freely to a deadline that typically
	// falls inside queued runs, then checks every delivery in order and
	// that the reference holds nothing else at or before the deadline.
	runUntil := func(d Duration) {
		deadline := k.Now().Add(d)
		from := len(got)
		stopEach = false
		k.RunUntil(deadline)
		stopEach = true
		for _, id := range got[from:] {
			check(id)
		}
		if key, ok := ref.pop(); ok {
			if key.at <= deadline {
				t.Fatalf("op %d: RunUntil(%v) left id %d at %v", ops, deadline, key.id, key.at)
			}
			ref.push(key)
		}
		if k.Now() != deadline {
			t.Fatalf("clock after RunUntil = %v, want %v", k.Now(), deadline)
		}
		refNow = deadline
		ops++
	}

	for i := 0; i < loopOps; i++ {
		switch c := rng.Intn(100); {
		case c < 35:
			// Quantized delays (including zero) force timestamp collisions.
			schedule(Duration(rng.Intn(64)) * 10 * Microsecond)
		case c < 45:
			// Zero-length and single-entry runs are as common as longer ones.
			scheduleRun(rng.Intn(6))
		case c < 58:
			if len(entries) > 0 {
				cancel(entries[rng.Intn(len(entries))])
			}
		case c < 68:
			// Reschedule: cancel a random (possibly stale) timer, then
			// schedule a replacement — often landing on the same tick.
			if len(entries) > 0 {
				cancel(entries[rng.Intn(len(entries))])
				schedule(Duration(rng.Intn(8)) * 10 * Microsecond)
			}
		case c < 69:
			if rng.Intn(4) > 0 {
				runUntil(Duration(rng.Intn(16)) * 10 * Microsecond)
				break
			}
			// Mass cancel of the newest entries: pushes the cancelled
			// count past half the heap, forcing a bulk reap.
			for j := len(entries) - 1; j >= 0 && j >= len(entries)-256; j-- {
				cancel(entries[j])
			}
		default:
			popOne()
		}
		if p := k.Pending(); p != live {
			t.Fatalf("op %d: Pending = %d, reference holds %d live", ops, p, live)
		}
	}
	// Drain to empty: the full tail must agree too.
	for popOne() {
	}
	if ops < 1_000_000 {
		t.Fatalf("workload ran only %d operations, want >= 1M", ops)
	}
	if k.Pending() != 0 || live != 0 {
		t.Fatalf("kernel reports %d pending after drain, reference %d", k.Pending(), live)
	}
	if k.seq != seq {
		t.Fatalf("schedule counter mismatch: kernel %d, mirror %d", k.seq, seq)
	}
	if reapsWithRuns == 0 {
		t.Fatalf("no bulk reap ran with a run head queued (%d reaps)", reaps)
	}
	t.Logf("differential workload: %d ops, %d keys, %d runs, %d pops, %d reaps (%d with runs), heap high water %d, all identical",
		ops, nextID, runs, len(got), reaps, reapsWithRuns, k.HeapHighWater())
}

// TestCohortDrainProperty checks the same-timestamp ordering contract
// directly: every event queued at timestamp T runs before the clock
// advances past T, in seq (schedule) order — including events that
// callbacks at T schedule at T, which join with later seq.
func TestCohortDrainProperty(t *testing.T) {
	k := NewKernel()
	const T = Time(1000)
	const nA, nB = 50, 30

	var order []int
	var timers [nA]Timer
	for i := 0; i < nA; i++ {
		i := i
		timers[i] = k.ScheduleAt(T, "a", func() {
			if k.Now() != T {
				t.Fatalf("cohort event %d ran at %v, want %v", i, k.Now(), T)
			}
			order = append(order, i)
			if i < 5 {
				// Same-tick schedule from inside the cohort: must still run
				// at T, after every already-queued T event.
				extra := 1000 + i
				k.Schedule(0, "extra", func() {
					if k.Now() != T {
						t.Fatalf("same-tick event %d ran at %v, want %v", extra, k.Now(), T)
					}
					order = append(order, extra)
				})
			}
			if i == 0 {
				// Unexecuted events at the current timestamp are still
				// Scheduled and still Pending.
				if !timers[nA-1].Scheduled() {
					t.Fatal("unexecuted same-timestamp event lost Scheduled status")
				}
				if p := k.Pending(); p < nA-1 {
					t.Fatalf("Pending = %d mid-cohort, want >= %d", p, nA-1)
				}
			}
		})
	}
	for i := 0; i < nB; i++ {
		i := i
		k.ScheduleAt(T+10, "b", func() { order = append(order, 100+i) })
	}
	k.Run()

	want := make([]int, 0, nA+5+nB)
	for i := 0; i < nA; i++ {
		want = append(want, i)
	}
	for i := 0; i < 5; i++ {
		want = append(want, 1000+i)
	}
	for i := 0; i < nB; i++ {
		want = append(want, 100+i)
	}
	if len(order) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery[%d] = %d, want %d (full: %v)", i, order[i], want[i], order)
		}
	}
}
