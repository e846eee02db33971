package cluster

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/faultnet"
	"repro/internal/harness"
	"repro/internal/sweep"
)

// TestMain doubles as two subprocess entry points. When
// CLUSTER_COORD_CHILD is set, the test binary runs a checkpointed
// local-only cluster sweep and exits — a stand-in for `experiments
// -checkpoint` that the parent test can kill mid-run and restart against
// the same journal. When started as `-agent addr …` (the argv SpawnAgents
// uses), it serves as a loopback agent (see runAgentChild).
func TestMain(m *testing.M) {
	if os.Getenv("CLUSTER_COORD_CHILD") == "1" {
		runCoordChild()
		os.Exit(0)
	}
	if len(os.Args) >= 3 && os.Args[1] == "-agent" {
		runAgentChild(os.Args[2], os.Args[3:])
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func runCoordChild() {
	e := harness.ByID(os.Getenv("CLUSTER_CHILD_EXP"))
	if e == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", os.Getenv("CLUSTER_CHILD_EXP"))
		os.Exit(1)
	}
	step, _ := time.ParseDuration(os.Getenv("CLUSTER_CHILD_STEP"))
	c := &Coordinator{
		Quick:          true,
		CheckpointPath: os.Getenv("CLUSTER_CHILD_CKPT"),
		stepDelay:      step,
	}
	if agents := os.Getenv("CLUSTER_CHILD_AGENTS"); agents != "" {
		c.Agents = strings.Split(agents, ",")
	}
	res, err := c.Run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "resumed=%d\n", res.Resumed)
	fmt.Print(res.Table.CSV())
}

// The acceptance property for durability: a coordinator process killed
// mid-sweep and restarted against the same -checkpoint journal produces
// output byte-identical to the uninterrupted sequential run — and actually
// resumes (the second run skips journaled points instead of starting over).
func TestCoordinatorKilledAndResumedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess re-exec test")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	e, _, wantCSV := seqRender(t, "T1")
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	env := append(os.Environ(),
		"CLUSTER_COORD_CHILD=1",
		"CLUSTER_CHILD_EXP="+e.ID,
		"CLUSTER_CHILD_CKPT="+ckpt,
	)

	// Run 1: throttled so the grid cannot finish before the kill, killed as
	// soon as the journal holds at least one record.
	first := exec.Command(self, "-test.run=TestMain")
	first.Env = append(env, "CLUSTER_CHILD_STEP=250ms")
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, _ := os.ReadFile(ckpt)
		if sweep.CountRecords(data) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			first.Process.Kill()
			first.Wait()
			t.Fatal("checkpoint never gained a record")
		}
		time.Sleep(10 * time.Millisecond)
	}
	first.Process.Kill()
	first.Wait()

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	records := sweep.CountRecords(data)
	if records >= e.Grid(true).N {
		t.Skipf("child finished all %d points before the kill landed; nothing left to resume", records)
	}

	// Run 2: full speed against the same journal, to completion.
	var out, errOut bytes.Buffer
	second := exec.Command(self, "-test.run=TestMain")
	second.Env = append(env, "CLUSTER_CHILD_STEP=0")
	second.Stdout, second.Stderr = &out, &errOut
	if err := second.Run(); err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, errOut.String())
	}
	if got := out.String(); got != wantCSV {
		t.Errorf("resumed CSV differs from sequential:\n--- resumed\n%s--- sequential\n%s", got, wantCSV)
	}
	if !strings.Contains(errOut.String(), "resumed=") || strings.Contains(errOut.String(), "resumed=0\n") {
		t.Errorf("second run did not resume from the checkpoint:\n%s", errOut.String())
	}
}

// In-process resume: a journal holding a verified prefix of the grid must
// be loaded, re-validated and skipped — the coordinator evaluates only the
// remainder and still merges the sequential bytes.
func TestCheckpointResumeSkipsJournaledPoints(t *testing.T) {
	e, wantRender, _ := seqRender(t, "T1")
	n := e.Grid(true).N
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Journal the first half of the grid the way a real run would: one
	// verified chunk per point, through the real append path.
	cp, done, torn, err := sweep.OpenCheckpoint(ckpt, e.ID, true, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 || torn != 0 {
		t.Fatalf("fresh checkpoint reported done=%d torn=%d", len(done), torn)
	}
	half := n / 2
	if half == 0 {
		half = 1
	}
	for p := 0; p < half; p++ {
		var buf bytes.Buffer
		if err := sweep.RunWorkerPoints(e, []int{p}, true, &buf); err != nil {
			t.Fatal(err)
		}
		_, byPoint, st, err := sweep.ParseShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.AppendChunk(byPoint, st); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()

	addr, _ := startAgent(t)
	var evaluated []string
	c := &Coordinator{
		Agents:         []string{addr},
		Quick:          true,
		CheckpointPath: ckpt,
		Logf:           func(format string, args ...any) { evaluated = append(evaluated, fmt.Sprintf(format, args...)) },
	}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != half {
		t.Errorf("Resumed = %d, want %d", res.Resumed, half)
	}
	if got := res.Table.Render(); got != wantRender {
		t.Errorf("resumed Render differs from sequential:\n--- resumed\n%s--- sequential\n%s", got, wantRender)
	}
	var pts int
	for _, a := range res.Agents {
		pts += a.Points
	}
	if pts != n-half {
		t.Errorf("agents evaluated %d points, want only the %d not journaled (log: %v)", pts, n-half, evaluated)
	}

	// The journal now covers the whole grid; a third run evaluates nothing.
	c2 := &Coordinator{Agents: []string{addr}, Quick: true, CheckpointPath: ckpt}
	res2, err := c2.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != n {
		t.Errorf("fully-journaled rerun resumed %d of %d points", res2.Resumed, n)
	}
	if got := res2.Table.Render(); got != wantRender {
		t.Error("fully-journaled rerun differs from sequential")
	}
}

// A checkpoint for a different sweep must fail the run loudly — silently
// appending to (or truncating) another experiment's journal is data loss.
func TestCheckpointWrongExperimentFailsLoudly(t *testing.T) {
	e, _, _ := seqRender(t, "T1")
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, _, _, err := sweep.OpenCheckpoint(ckpt, "S1", true, 64)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	other := harness.ByID("S1")
	if err := sweep.RunWorkerPoints(other, []int{0}, true, &buf); err != nil {
		t.Fatal(err)
	}
	_, byPoint, st, err := sweep.ParseShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.AppendChunk(byPoint, st); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	c := &Coordinator{Quick: true, CheckpointPath: ckpt}
	if _, err := c.Run(e); err == nil || !strings.Contains(err.Error(), "belongs to exp=S1") {
		t.Fatalf("run against another sweep's checkpoint returned %v, want mismatch error", err)
	}
}

// The chaos property: a cluster sweep with every agent behind a seeded
// faultnet listener — refusals, mid-stream drops, stalls, delayed writes —
// still merges to the sequential bytes, for any seed.
func TestClusterChaosByteIdentity(t *testing.T) {
	e, wantRender, wantCSV := seqRender(t, "T1")
	for _, seed := range []int64{1, 7, 1234} {
		var addrs []string
		for i := 0; i < 2; i++ {
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := faultnet.Wrap(inner, seed+int64(i))
			a := &Agent{}
			go a.Serve(ln)
			t.Cleanup(a.Close)
			t.Cleanup(func() { ln.Close() })
			addrs = append(addrs, inner.Addr().String())
		}
		c := &Coordinator{
			Agents: addrs,
			Quick:  true,
			// Fast recovery knobs so injected faults cost milliseconds, not
			// the default re-probe second.
			HeartbeatEvery:   20 * time.Millisecond,
			HeartbeatTimeout: 200 * time.Millisecond,
			RetryBackoff:     10 * time.Millisecond,
			ReadmitEvery:     25 * time.Millisecond,
			Seed:             seed,
		}
		res, err := c.Run(e)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.Table.Render(); got != wantRender {
			t.Errorf("seed %d: chaos Render differs from sequential", seed)
		}
		if got := res.Table.CSV(); got != wantCSV {
			t.Errorf("seed %d: chaos CSV differs from sequential", seed)
		}
	}
}

// An agent whose first connections are torn down must be re-probed,
// re-admitted, and finish the sweep — with the failure and the comeback
// both visible in its stats.
func TestClusterReadmitsRecoveredAgent(t *testing.T) {
	e, wantRender, _ := seqRender(t, "T1")
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Close the first two accepted connections (the initial work+heartbeat
	// pair), then behave: the coordinator sees a live TCP endpoint whose
	// agent "process" dies instantly once, then recovers.
	ln := &flakyListener{Listener: inner, killFirst: 2}
	a := &Agent{}
	go a.Serve(ln)
	t.Cleanup(a.Close)

	c := &Coordinator{
		Agents:       []string{inner.Addr().String()},
		Quick:        true,
		DisableLocal: true,
		RetryBackoff: 10 * time.Millisecond,
		ReadmitEvery: 20 * time.Millisecond,
	}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
		t.Errorf("post-readmission Render differs from sequential")
	}
	st := res.Agents[0]
	if !st.Failed {
		t.Error("flaky agent not marked failed")
	}
	if st.Readmitted == 0 {
		t.Error("recovered agent was never re-admitted")
	}
	if st.Points != e.Grid(true).N {
		t.Errorf("re-admitted agent carried %d points, want the whole grid (%d)", st.Points, e.Grid(true).N)
	}
}

type flakyListener struct {
	net.Listener
	mu        sync.Mutex
	accepted  int
	killFirst int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	kill := l.accepted < l.killFirst
	l.accepted++
	l.mu.Unlock()
	if kill {
		conn.Close()
	}
	return conn, nil
}

// A chunk that exceeds its learned deadline must be cancelled and fail the
// connection transiently — the re-dispatch path, not a hung sweep.
func TestChunkDeadlineCancelsStuckChunk(t *testing.T) {
	e := harness.ByID("T1")
	// An agent that answers heartbeats but sits on run requests forever.
	addr := evilServer(t, pongingHandler(func(net.Conn, string) {}))
	c := &Coordinator{
		Quick: true,
		// Heartbeats are healthy here; only the deadline can recover.
		HeartbeatEvery:      time.Hour,
		ChunkDeadlineFactor: 1,
		MinChunkDeadline:    100 * time.Millisecond,
	}
	g := e.Grid(true)
	s := newScheduler(g.Costs(), 1)
	// Prime the cost model past its trust threshold: three fast chunks.
	for i := 0; i < 3; i++ {
		s.observe(1, time.Millisecond)
	}
	work, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	st := AgentStats{Addr: addr}
	t0 := time.Now()
	served, requeued, serveErr := c.serveConn(e, s, nil, &st, addr, work)
	if serveErr == nil {
		t.Fatal("serveConn returned success against a stuck agent")
	}
	if !strings.Contains(serveErr.Error(), "chunk deadline exceeded") {
		t.Fatalf("serveConn error = %v, want chunk deadline", serveErr)
	}
	if served != 0 || requeued == 0 {
		t.Errorf("served=%d requeued=%d, want the stuck chunk requeued", served, requeued)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("deadline cancellation took %v", elapsed)
	}
}

// HeartbeatTimeout <= HeartbeatEvery cannot ever observe a pong: the
// coordinator must clamp it (loudly), not silently declare every agent
// dead.
func TestHeartbeatMisconfigClampedLoudly(t *testing.T) {
	cases := []struct {
		every, timeout time.Duration
		clamped        bool
	}{
		{100 * time.Millisecond, 50 * time.Millisecond, true},
		{100 * time.Millisecond, 100 * time.Millisecond, true}, // boundary: equal is still unservable
		{100 * time.Millisecond, 101 * time.Millisecond, false},
		{0, 0, false}, // defaults are consistent
	}
	for _, tc := range cases {
		c := &Coordinator{HeartbeatEvery: tc.every, HeartbeatTimeout: tc.timeout}
		if got := c.heartbeatMisconfigured(); got != tc.clamped {
			t.Errorf("every=%v timeout=%v: misconfigured=%v, want %v", tc.every, tc.timeout, got, tc.clamped)
		}
		if c.heartbeatTimeout() <= c.heartbeatEvery() {
			t.Errorf("every=%v timeout=%v: effective timeout %v not past interval %v",
				tc.every, tc.timeout, c.heartbeatTimeout(), c.heartbeatEvery())
		}
	}

	// The clamp must be logged — and the clamped sweep must still work.
	e, wantRender, _ := seqRender(t, "T1")
	var mu sync.Mutex
	var logs []string
	c := &Coordinator{
		Quick:            true,
		HeartbeatEvery:   50 * time.Millisecond,
		HeartbeatTimeout: 10 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
		t.Error("clamped-heartbeat Render differs from sequential")
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range logs {
		found = found || strings.Contains(l, "clamping")
	}
	if !found {
		t.Errorf("heartbeat clamp was not logged: %v", logs)
	}
}

// Jittered backoff must be deterministic per (seed, addr) and actually
// jittered across addresses.
func TestDialBackoffDeterministicJitter(t *testing.T) {
	if addrSeed("a:1") == addrSeed("b:1") {
		t.Error("distinct addresses produced identical jitter seeds")
	}
	if addrSeed("a:1") != addrSeed("a:1") {
		t.Error("addrSeed is unstable")
	}
}
