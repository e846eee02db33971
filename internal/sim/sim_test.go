package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30*Microsecond, "c", func() { got = append(got, 3) })
	k.Schedule(10*Microsecond, "a", func() { got = append(got, 1) })
	k.Schedule(20*Microsecond, "b", func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Microsecond, "same", func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Schedule(100*Microsecond, "t1", func() { at1 = k.Now() })
	k.Schedule(2*Millisecond, "t2", func() { at2 = k.Now() })
	k.Run()
	if at1 != Time(100*Microsecond) {
		t.Errorf("first event at %v, want 100µs", at1)
	}
	if at2 != Time(2*Millisecond) {
		t.Errorf("second event at %v, want 2ms", at2)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(10*Microsecond, "x", func() { fired = true })
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Scheduled() {
		t.Fatal("cancelled event still reports scheduled")
	}
	// Double cancel and zero-handle cancel must be safe.
	k.Cancel(e)
	k.Cancel(Timer{})
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	var e2 Timer
	k.Schedule(10*Microsecond, "canceller", func() { k.Cancel(e2) })
	e2 = k.Schedule(20*Microsecond, "victim", func() { fired = true })
	k.Run()
	if fired {
		t.Fatal("event cancelled by earlier event still fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Microsecond, "adv", func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.ScheduleAt(Time(1*Microsecond), "past", func() {})
}

// Run entries interleave with plain events by (at, seq) exactly as the same
// entries scheduled one by one would: a plain event scheduled before the
// reservation wins a timestamp tie, one scheduled after loses it, and
// OnEvent reports every entry under the run's name.
func TestRunInterleavesWithPlainEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	var names []string
	k.OnEvent = func(_ Time, name string) { names = append(names, name) }
	k.ScheduleAt(10, "early", func() { order = append(order, "early") })
	base := k.ReserveSeqs(3)
	k.ScheduleAt(10, "late", func() { order = append(order, "late") })
	k.ScheduleAt(15, "mid", func() { order = append(order, "mid") })
	k.ScheduleRun("run", func(x any) { order = append(order, x.(string)) }, []RunEntry{
		{At: 10, Seq: base + 1, Arg: "r1"},
		{At: 10, Seq: base + 2, Arg: "r2"},
		{At: 20, Seq: base, Arg: "r0"},
	})
	if k.Pending() != 6 || k.HeapDepth() != 4 {
		t.Fatalf("Pending = %d, heap depth = %d; want 6 events in 4 keys", k.Pending(), k.HeapDepth())
	}
	k.RunUntil(12) // splits the run
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d after RunUntil(12), want 2", k.Pending())
	}
	k.Run()
	want := []string{"early", "r1", "r2", "late", "mid", "r0"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("order = %v, want %v", order, want)
	}
	wantNames := []string{"early", "run", "run", "late", "mid", "run"}
	if strings.Join(names, " ") != strings.Join(wantNames, " ") {
		t.Fatalf("OnEvent names = %v, want %v", names, wantNames)
	}
	if k.Pending() != 0 || k.Processed() != 6 {
		t.Fatalf("Pending = %d, Processed = %d after drain; want 0, 6", k.Pending(), k.Processed())
	}
}

// ScheduleRun rejects runs that start in the past, are not sorted by
// (at, seq) or use sequence numbers that were never reserved, with a
// message naming the run, as scheduleAt does for plain events.
func TestScheduleRunInvalidPanics(t *testing.T) {
	fn := func(any) {}
	cases := []struct {
		name, want string
		entries    func(k *Kernel, base uint64) []RunEntry
	}{
		{"past head", "before now", func(k *Kernel, base uint64) []RunEntry {
			return []RunEntry{{At: k.Now() - 1, Seq: base}, {At: k.Now() + 5, Seq: base + 1}}
		}},
		{"unsorted time", "is not after entry 0", func(k *Kernel, base uint64) []RunEntry {
			return []RunEntry{{At: k.Now() + 5, Seq: base}, {At: k.Now() + 4, Seq: base + 1}}
		}},
		{"unsorted seq at equal time", "is not after entry 1", func(k *Kernel, base uint64) []RunEntry {
			return []RunEntry{{At: k.Now() + 1, Seq: base}, {At: k.Now() + 5, Seq: base + 2}, {At: k.Now() + 5, Seq: base + 1}}
		}},
		{"duplicate key", "is not after entry 0", func(k *Kernel, base uint64) []RunEntry {
			return []RunEntry{{At: k.Now() + 5, Seq: base}, {At: k.Now() + 5, Seq: base}}
		}},
		{"unreserved seq", "unreserved seq", func(k *Kernel, base uint64) []RunEntry {
			return []RunEntry{{At: k.Now() + 5, Seq: base}, {At: k.Now() + 6, Seq: base + 3}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.RunUntil(100)
			base := k.ReserveSeqs(3)
			entries := tc.entries(k, base)
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, tc.want) || !strings.Contains(msg, `run "bad"`) {
					t.Fatalf("panic = %v, want a message naming run \"bad\" and containing %q", r, tc.want)
				}
				if k.Pending() != 0 || k.HeapDepth() != 0 {
					t.Fatalf("rejected run left Pending %d, heap depth %d", k.Pending(), k.HeapDepth())
				}
			}()
			k.ScheduleRun("bad", fn, entries)
		})
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.Schedule(-1, "neg", func() {})
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Microsecond, "e", func() {})
	k.RunUntil(Time(1 * Millisecond))
	if k.Now() != Time(1*Millisecond) {
		t.Fatalf("clock = %v, want 1ms", k.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(10*Microsecond, "in", func() { ran++ })
	k.Schedule(2*Millisecond, "out", func() { ran++ })
	k.RunUntil(Time(1 * Millisecond))
	if ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestRunForIsRelative(t *testing.T) {
	k := NewKernel()
	k.RunFor(1 * Millisecond)
	k.RunFor(1 * Millisecond)
	if k.Now() != Time(2*Millisecond) {
		t.Fatalf("clock = %v after two 1ms RunFor, want 2ms", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(1*Microsecond, "a", func() { ran++; k.Stop() })
	k.Schedule(2*Microsecond, "b", func() { ran++ })
	k.Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (stopped)", ran)
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("ran %d events after resume, want 2", ran)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(10*Microsecond, "outer", func() {
		order = append(order, "outer")
		k.Schedule(5*Microsecond, "inner", func() {
			order = append(order, "inner")
		})
	})
	k.Schedule(12*Microsecond, "mid", func() { order = append(order, "mid") })
	k.Run()
	want := []string{"outer", "mid", "inner"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestZeroDelaySelfSchedulingTerminates(t *testing.T) {
	k := NewKernel()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 100 {
			k.Schedule(0, "zero", fn)
		}
	}
	k.Schedule(0, "zero", fn)
	k.Run()
	if n != 100 {
		t.Fatalf("zero-delay chain ran %d times, want 100", n)
	}
	if k.Now() != 0 {
		t.Fatalf("zero-delay chain advanced clock to %v", k.Now())
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	cancel := k.Ticker(100*Microsecond, "tick", func() {
		ticks = append(ticks, k.Now())
	})
	k.RunUntil(Time(550 * Microsecond))
	cancel()
	k.RunUntil(Time(2 * Millisecond))
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := Time((i + 1) * 100 * int(Microsecond))
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerCancelFromCallback(t *testing.T) {
	k := NewKernel()
	n := 0
	var cancel func()
	cancel = k.Ticker(10*Microsecond, "tick", func() {
		n++
		if n == 3 {
			cancel()
		}
	})
	k.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times after self-cancel at 3", n)
	}
}

func TestProcessedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(Duration(i)*Microsecond, "e", func() {})
	}
	k.Run()
	if k.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", k.Processed())
	}
}

func TestOnEventHook(t *testing.T) {
	k := NewKernel()
	var names []string
	k.OnEvent = func(_ Time, name string) { names = append(names, name) }
	k.Schedule(1*Microsecond, "alpha", func() {})
	k.Schedule(2*Microsecond, "beta", func() {})
	k.Run()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("hook saw %v", names)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock matches each event's scheduled time.
func TestPropertyEventOrdering(t *testing.T) {
	if err := quick.Check(func(delaysRaw []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delaysRaw {
			d := Duration(d) * Microsecond
			k.Schedule(d, "e", func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// The multiset of fire times must equal the multiset of delays.
		want := make([]int64, len(delaysRaw))
		for i, d := range delaysRaw {
			want[i] = int64(d) * int64(Microsecond)
		}
		got := make([]int64, len(fired))
		for i, f := range fired {
			got[i] = int64(f)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationStrings(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{1500 * Nanosecond, "1.5µs"},
		{500 * Nanosecond, "500ns"},
		{0, "0ns"},
		{20 * Microsecond, "20.0µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(Duration(i%1000)*Microsecond, "bench", func() {})
		if k.Pending() > 10000 {
			k.Run()
		}
	}
	k.Run()
}
