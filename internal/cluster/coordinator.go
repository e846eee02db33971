package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// LocalAgentName labels the coordinator's implicit in-process agent in
// per-agent stats.
const LocalAgentName = "local"

// AgentStats is one agent's contribution to a sweep, rolled up from the
// per-chunk shard trailers its worker self-measured.
type AgentStats struct {
	Addr   string `json:"addr"`
	Chunks int    `json:"chunks"`
	Points int    `json:"points"`
	Rows   int    `json:"rows"`
	WallNs int64  `json:"wall_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	Events uint64 `json:"events"`
	// Failed marks an agent that died at least once mid-sweep (its
	// completed chunks still count above; its in-flight points were
	// re-dispatched, and it may have been re-admitted later).
	Failed bool `json:"failed,omitempty"`
	// Readmitted counts successful reconnects after a failure.
	Readmitted int `json:"readmitted,omitempty"`
	// Metrics aggregates the obs counter deltas from this agent's chunk
	// trailers (nil unless the agents ran with metrics enabled). They are
	// reporting-only: the coordinator never folds them into its own
	// registry, so its /metrics endpoint counts local work exactly once.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// Result is one experiment's merged cluster sweep.
type Result struct {
	Table  *stats.Table
	Agents []AgentStats
	// Redispatched counts points that had to be returned to the pool after
	// an agent failure or a chunk deadline (0 on a healthy sweep).
	Redispatched int
	// Resumed counts points loaded from the checkpoint instead of being
	// evaluated (0 without CheckpointPath or on a fresh run).
	Resumed int
}

// Coordinator fans a sweep out to a fleet of agents with cost-weighted
// work stealing: agents pull the costliest unfinished chunk next, so fast
// nodes naturally absorb more of a skewed grid and a slow or dead node
// never straggles the sweep. See the package documentation for the fault
// tolerance, exactly-once merge and checkpoint/resume contract.
type Coordinator struct {
	// Agents lists remote agent addresses (host:port).
	Agents []string
	// Quick selects the quick-mode grid.
	Quick bool
	// DisableLocal drops the implicit local agent. The default (false)
	// keeps it: the coordinator's own process evaluates chunks alongside
	// the remotes, and — because it cannot die — guarantees a sweep
	// degrades to plain local execution when every remote fails.
	DisableLocal bool
	// ChunkPoints is the number of points an agent pulls per request
	// (default 1: finest-grained stealing and re-dispatch).
	ChunkPoints int
	// HeartbeatEvery / HeartbeatTimeout tune dead-agent detection
	// (defaults 200ms / 2s). A missed heartbeat kills the agent's work
	// connection, which requeues its in-flight chunk. A configured timeout
	// that does not exceed the interval cannot ever observe a pong in
	// time; Run clamps it to 4× the interval with a logged warning instead
	// of silently misbehaving.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// DialTimeout bounds each individual connection attempt (default 5s).
	DialTimeout time.Duration
	// DialAttempts bounds the connection attempts per (re)connect cycle
	// (default 3). Attempts back off exponentially from RetryBackoff with
	// deterministic ±50% jitter seeded by Seed, so simultaneous
	// coordinator restarts do not thundering-herd a recovering agent.
	DialAttempts int
	// RetryBackoff is the base delay between connection attempts (default
	// 100ms, doubling per attempt).
	RetryBackoff time.Duration
	// ReadmitEvery is how often a fleet member that was connected and then
	// died is re-probed for re-admission (default 1s). Agents that never
	// connected at all are abandoned after their first failed dial cycle —
	// re-probing only makes sense for nodes known to have existed.
	ReadmitEvery time.Duration
	// MaxStrikes bounds consecutive fruitless reconnect cycles (no chunk
	// served) before a once-live agent is abandoned for good (default 8).
	MaxStrikes int
	// ChunkDeadlineFactor cancels a chunk whose wall time exceeds factor ×
	// its expected cost under the learned ns-per-cost model (EWMA over
	// completed chunks, trusted after 3 observations). The cancelled
	// chunk's points are re-dispatched; the agent is treated as failed
	// transiently and may reconnect. Default 8; negative disables.
	ChunkDeadlineFactor float64
	// MinChunkDeadline floors the per-chunk deadline so noisy estimates of
	// cheap points cannot cancel healthy work (default 2s).
	MinChunkDeadline time.Duration
	// CheckpointPath, when set, journals every verified chunk to this file
	// (internal/sweep checkpoint format) and resumes from it: completed
	// points found in the journal are re-validated, skipped, and merged
	// from their journaled rows, byte-identical to re-evaluation.
	CheckpointPath string
	// Seed fixes the backoff-jitter randomness (default 1): two runs with
	// the same seed retry on the same schedule.
	Seed int64
	// Logf reports agent failures, re-dispatches, re-admissions and
	// checkpoint resume/truncation events (nil silences).
	Logf func(format string, args ...any)

	// stepDelay throttles the local agent between chunks (tests only: it
	// holds a sweep open long enough to kill the coordinator mid-run).
	stepDelay time.Duration
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Coordinator) chunkPoints() int {
	if c.ChunkPoints < 1 {
		return 1
	}
	return c.ChunkPoints
}

func (c *Coordinator) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return 200 * time.Millisecond
	}
	return c.HeartbeatEvery
}

func (c *Coordinator) heartbeatTimeout() time.Duration {
	every := c.heartbeatEvery()
	t := c.HeartbeatTimeout
	if t <= 0 {
		t = 2 * time.Second
	}
	if t <= every {
		// A timeout that cannot outlast one interval would declare every
		// agent dead on its first ping; clamp rather than misbehave. Run
		// logs the clamp once up front.
		t = 4 * every
	}
	return t
}

// heartbeatMisconfigured reports whether the configured heartbeat values
// needed clamping (see heartbeatTimeout).
func (c *Coordinator) heartbeatMisconfigured() bool {
	return c.HeartbeatTimeout > 0 && c.HeartbeatTimeout <= c.heartbeatEvery()
}

func (c *Coordinator) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

func (c *Coordinator) dialAttempts() int {
	if c.DialAttempts < 1 {
		return 3
	}
	return c.DialAttempts
}

func (c *Coordinator) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.RetryBackoff
}

func (c *Coordinator) readmitEvery() time.Duration {
	if c.ReadmitEvery <= 0 {
		return time.Second
	}
	return c.ReadmitEvery
}

func (c *Coordinator) maxStrikes() int {
	if c.MaxStrikes < 1 {
		return 8
	}
	return c.MaxStrikes
}

func (c *Coordinator) chunkDeadlineFactor() float64 {
	if c.ChunkDeadlineFactor < 0 {
		return 0 // disabled
	}
	if c.ChunkDeadlineFactor == 0 {
		return 8
	}
	return c.ChunkDeadlineFactor
}

func (c *Coordinator) minChunkDeadline() time.Duration {
	if c.MinChunkDeadline <= 0 {
		return 2 * time.Second
	}
	return c.MinChunkDeadline
}

func (c *Coordinator) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// errFatalAgent marks errors that prove the agent is answering wrongly
// (experiment skew, malformed-but-framed responses, explicit agent error
// lines). Reconnecting cannot fix those, so the supervisor abandons the
// agent instead of retrying. Everything else — dial failures, connection
// loss, deadlines — is transient.
var errFatalAgent = errors.New("fatal agent error")

func fatalAgent(err error) error {
	return fmt.Errorf("%w: %v", errFatalAgent, err)
}

// Run executes the experiment's grid across the fleet and merges the
// results into a table byte-identical to e.Run(quick).
func (c *Coordinator) Run(e *harness.Experiment) (*Result, error) {
	if c.DisableLocal && len(c.Agents) == 0 {
		return nil, fmt.Errorf("cluster: no agents and the local agent is disabled")
	}
	if c.heartbeatMisconfigured() {
		c.logf("cluster: HeartbeatTimeout %v <= HeartbeatEvery %v can never observe a pong; clamping timeout to %v",
			c.HeartbeatTimeout, c.heartbeatEvery(), c.heartbeatTimeout())
	}
	g := e.Grid(c.Quick)
	workers := len(c.Agents)
	if !c.DisableLocal {
		workers++
	}
	s := newScheduler(g.Costs(), workers)

	res := &Result{Agents: make([]AgentStats, 0, workers)}

	var cp *sweep.Checkpoint
	if c.CheckpointPath != "" {
		var done map[int][][]string
		var torn int
		var err error
		cp, done, torn, err = sweep.OpenCheckpoint(c.CheckpointPath, e.ID, c.Quick, g.N)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", e.ID, err)
		}
		defer cp.Close()
		if torn > 0 {
			c.logf("cluster: checkpoint %s: truncated %d byte(s) of torn tail", c.CheckpointPath, torn)
		}
		if n := s.prefill(done); n > 0 {
			res.Resumed = n
			c.logf("cluster: resumed %d completed point(s) from checkpoint %s", n, c.CheckpointPath)
		}
	}

	var (
		mu sync.Mutex // guards res roll-up fields
		wg sync.WaitGroup
	)
	record := func(st AgentStats, redispatched int) {
		mu.Lock()
		res.Agents = append(res.Agents, st)
		res.Redispatched += redispatched
		mu.Unlock()
	}

	if !c.DisableLocal {
		wg.Add(1)
		go func() {
			defer wg.Done()
			record(c.runLocal(e, s, cp), 0)
		}()
	}
	for _, addr := range c.Agents {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			st, redispatched := c.superviseRemote(e, s, cp, addr)
			record(st, redispatched)
		}(addr)
	}
	wg.Wait()

	byPoint, err := s.result()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", e.ID, err)
	}
	table, err := sweep.Merge(g.Table, g.N, []map[int][][]string{byPoint})
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", e.ID, err)
	}
	sort.Slice(res.Agents, func(i, j int) bool { return res.Agents[i].Addr < res.Agents[j].Addr })
	res.Table = table
	return res, nil
}

// runLocal is the implicit local agent: chunks are evaluated in-process
// through the exact same RunWorkerPoints → wire → parse path as a remote,
// so the round-trip guards cover local execution identically. A local
// failure is fatal (it is deterministic — no agent could succeed).
func (c *Coordinator) runLocal(e *harness.Experiment, s *scheduler, cp *sweep.Checkpoint) AgentStats {
	st := AgentStats{Addr: LocalAgentName}
	ab := obs.ClusterAgent(LocalAgentName)
	for {
		pts := s.take(c.chunkPoints())
		if pts == nil {
			return st
		}
		t0 := time.Now()
		var buf bytes.Buffer
		if err := sweep.RunWorkerPoints(e, pts, c.Quick, &buf); err != nil {
			s.fail(fmt.Errorf("local agent: %w", err))
			return st
		}
		if err := c.acceptChunk(e, s, cp, &st, pts, buf.Bytes()); err != nil {
			s.fail(fmt.Errorf("local agent: %w", err))
			return st
		}
		elapsed := time.Since(t0)
		ab.Chunks.Inc()
		ab.ChunkLatency.Observe(uint64(elapsed))
		s.observe(s.costOf(pts), elapsed)
		if c.stepDelay > 0 {
			time.Sleep(c.stepDelay)
		}
	}
}

// superviseRemote owns one remote agent for the whole sweep: it dials with
// jittered exponential backoff, serves chunks until the connection (or the
// agent) fails, classifies the failure, and — for fleet members that had
// been live — periodically re-probes and re-admits them. It returns when
// the sweep finishes or the agent is abandoned for good.
func (c *Coordinator) superviseRemote(e *harness.Experiment, s *scheduler, cp *sweep.Checkpoint, addr string) (AgentStats, int) {
	st := AgentStats{Addr: addr}
	redispatched := 0
	rng := rand.New(rand.NewSource(c.seed() ^ addrSeed(addr)))
	everConnected := false
	strikes := 0
	// holdsSlot tracks whether this supervisor currently counts toward the
	// scheduler's live-worker total (it does from construction); releasing
	// the slot while disconnected is what lets a sweep with no other live
	// workers fail loudly instead of waiting on a re-probe forever.
	holdsSlot := true

	abandon := func(why error) (AgentStats, int) {
		st.Failed = true
		if holdsSlot {
			s.workerGone()
		}
		c.logf("cluster: agent %s abandoned (%v)", addr, why)
		return st, redispatched
	}

	for {
		if s.finished() {
			return st, redispatched
		}
		work, err := c.dialBackoff(addr, s, rng)
		if err != nil {
			if s.finished() {
				return st, redispatched
			}
			if !everConnected {
				// Never part of the fleet: no reason to believe it exists.
				return abandon(err)
			}
			strikes++
			if strikes >= c.maxStrikes() {
				return abandon(fmt.Errorf("%d fruitless reconnect cycles: %w", strikes, err))
			}
			st.Failed = true
			c.logf("cluster: agent %s still down (%v); re-probing in %v", addr, err, c.readmitEvery())
			if !s.waitOr(c.readmitEvery()) {
				return st, redispatched
			}
			continue
		}
		if !holdsSlot {
			s.workerBack()
			holdsSlot = true
		}
		if everConnected {
			st.Readmitted++
			obs.ClusterAgent(addr).Readmits.Inc()
			c.logf("cluster: agent %s came back; re-admitted to the fleet", addr)
		}
		everConnected = true

		served, n, serveErr := c.serveConn(e, s, cp, &st, addr, work)
		redispatched += n
		if serveErr == nil {
			return st, redispatched // sweep complete
		}
		st.Failed = true
		c.logf("cluster: agent %s failed (%v); %d in-flight point(s) re-dispatched", addr, serveErr, n)
		if errors.Is(serveErr, errFatalAgent) {
			s.workerGone()
			return st, redispatched
		}
		s.workerGone()
		holdsSlot = false
		if served > 0 {
			strikes = 0
		} else {
			strikes++
			if strikes >= c.maxStrikes() {
				c.logf("cluster: agent %s abandoned (%d fruitless reconnect cycles)", addr, strikes)
				return st, redispatched
			}
		}
		if !s.waitOr(c.readmitEvery()) {
			return st, redispatched
		}
	}
}

// addrSeed derives a per-agent jitter stream from its address so agents
// sharing a coordinator seed still retry on distinct schedules.
func addrSeed(addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64())
}

// dialBackoff attempts to connect up to DialAttempts times with jittered
// exponential backoff, giving up early when the sweep finishes.
func (c *Coordinator) dialBackoff(addr string, s *scheduler, rng *rand.Rand) (net.Conn, error) {
	var lastErr error
	delay := c.retryBackoff()
	for attempt := 0; attempt < c.dialAttempts(); attempt++ {
		if attempt > 0 {
			obs.ClusterAgent(addr).Retries.Inc()
			// ±50% deterministic jitter.
			jittered := delay/2 + time.Duration(rng.Int63n(int64(delay)))
			if !s.waitOr(jittered) {
				return nil, lastErr
			}
			delay *= 2
		}
		conn, err := net.DialTimeout("tcp", addr, c.dialTimeout())
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// serveConn drives one live work connection: heartbeat up, chunks pulled,
// dispatched, deadline-guarded and validated until the sweep completes
// (nil error) or the connection/agent fails. The number of chunks served
// and the points requeued by a failure are returned alongside the error.
func (c *Coordinator) serveConn(e *harness.Experiment, s *scheduler, cp *sweep.Checkpoint, st *AgentStats, addr string, work net.Conn) (served, requeued int, err error) {
	defer work.Close()
	ab := obs.ClusterAgent(addr)

	// Liveness runs on a second connection so a long-running chunk cannot
	// be mistaken for a dead agent: the agent answers pings from a separate
	// handler while the work connection is busy computing. When the process
	// dies both connections die; the heartbeat notices within its timeout
	// and closes the work connection, failing the blocked read below.
	stopHB, hbErr := c.startHeartbeat(addr, work)
	if hbErr != nil {
		return 0, 0, hbErr
	}
	defer stopHB()

	br := bufio.NewReader(work)
	for {
		pts := s.take(c.chunkPoints())
		if pts == nil {
			return served, 0, nil
		}
		fail := func(err error) (int, int, error) {
			return served, s.requeue(pts), err
		}
		// Deadline: a chunk exceeding factor × its expected cost (learned
		// ns-per-cost EWMA, floored by MinChunkDeadline) is cancelled by
		// failing the read; its points go back to the pool.
		if f := c.chunkDeadlineFactor(); f > 0 {
			if expect := s.expectNs(s.costOf(pts)); expect > 0 {
				deadline := time.Duration(f * float64(expect))
				if min := c.minChunkDeadline(); deadline < min {
					deadline = min
				}
				work.SetReadDeadline(time.Now().Add(deadline))
			} else {
				work.SetReadDeadline(time.Time{})
			}
		}
		t0 := time.Now()
		if _, err := fmt.Fprintln(work, formatRunRequest(e.ID, c.Quick, pts)); err != nil {
			return fail(err)
		}
		raw, err := readResponse(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("chunk deadline exceeded after %v: %w", time.Since(t0).Round(time.Millisecond), err)
			}
			return fail(err)
		}
		if err := c.acceptChunk(e, s, cp, st, pts, raw); err != nil {
			return fail(err)
		}
		elapsed := time.Since(t0)
		ab.Chunks.Inc()
		ab.ChunkLatency.Observe(uint64(elapsed))
		s.observe(s.costOf(pts), elapsed)
		served++
	}
}

// acceptChunk validates one chunk response against its request and delivers
// the rows: the response must parse, answer for the right experiment and
// quick mode, and cover exactly the requested point set. Verified chunks
// are journaled to the checkpoint (when one is open) before the call
// returns, so the journal never gets ahead of or behind the merge by more
// than the chunk in flight.
func (c *Coordinator) acceptChunk(e *harness.Experiment, s *scheduler, cp *sweep.Checkpoint, st *AgentStats, pts []int, raw []byte) error {
	h, byPoint, chunkStats, err := sweep.ParseShard(bytes.NewReader(raw))
	if err != nil {
		return fatalAgent(err)
	}
	if h.Exp != e.ID || h.Quick != c.Quick {
		return fatalAgent(fmt.Errorf("agent answered for exp=%s quick=%t, want exp=%s quick=%t", h.Exp, h.Quick, e.ID, c.Quick))
	}
	if len(byPoint) != len(pts) {
		return fatalAgent(fmt.Errorf("agent returned %d points, requested %d", len(byPoint), len(pts)))
	}
	for _, p := range pts {
		if _, ok := byPoint[p]; !ok {
			return fatalAgent(fmt.Errorf("agent response missing requested point %d", p))
		}
	}
	fresh := s.deliver(byPoint)
	if cp != nil && fresh > 0 {
		if err := cp.AppendChunk(byPoint, chunkStats); err != nil {
			// A checkpoint that cannot journal breaks the resume guarantee;
			// fail the sweep loudly rather than complete un-resumably.
			s.fail(err)
			return err
		}
	}
	st.Chunks++
	st.Points += chunkStats.Points
	st.Rows += chunkStats.Rows
	st.WallNs += chunkStats.WallNs
	st.Allocs += chunkStats.Allocs
	st.Bytes += chunkStats.Bytes
	st.Events += chunkStats.Events
	if len(chunkStats.Metrics) > 0 {
		if st.Metrics == nil {
			st.Metrics = make(map[string]uint64, len(chunkStats.Metrics))
		}
		for k, v := range chunkStats.Metrics {
			st.Metrics[k] += v
		}
	}
	return nil
}

// startHeartbeat dials the agent's control connection and pings it until
// stopped. On a missed or late pong it closes work, which unblocks the work
// loop's pending read with an error and triggers re-dispatch.
func (c *Coordinator) startHeartbeat(addr string, work net.Conn) (stop func(), err error) {
	hb, err := net.DialTimeout("tcp", addr, c.dialTimeout())
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(done)
			hb.Close()
		})
	}
	rtt := obs.ClusterAgent(addr).HeartbeatRTT
	go func() {
		br := bufio.NewReader(hb)
		ticker := time.NewTicker(c.heartbeatEvery())
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			hb.SetDeadline(time.Now().Add(c.heartbeatTimeout()))
			t0 := time.Now()
			if _, err := fmt.Fprintln(hb, pingLine); err != nil {
				work.Close()
				return
			}
			line, err := br.ReadString('\n')
			if err != nil || strings.TrimSuffix(line, "\n") != pongLine {
				work.Close()
				return
			}
			rtt.Observe(uint64(time.Since(t0)))
		}
	}()
	return stop, nil
}

// readResponse reads one framed response off the work connection: every
// line up to and including the "# end" terminator. A "# error:" line from
// the agent (or a closed connection before the terminator) fails the chunk.
func readResponse(br *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("connection lost mid-response: %w", err)
		}
		trimmed := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(trimmed, errPrefix) {
			return nil, fatalAgent(fmt.Errorf("agent error: %s", strings.TrimPrefix(trimmed, errPrefix)))
		}
		buf.WriteString(line)
		if trimmed == endLine {
			return buf.Bytes(), nil
		}
	}
}
