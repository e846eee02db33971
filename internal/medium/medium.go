// Package medium implements the shared wireless channel: it connects radios
// through a propagation model, tracks every in-flight transmission, computes
// piecewise SINR at each receiver, applies the PHY error model and capture
// rules, and drives the carrier-sense (CCA) signals the MAC listens to.
//
// The medium is the substitute for over-the-air hardware: a MAC attached to
// a Radio observes exactly the signals a driver sees — CCA busy/idle edges,
// decoded frames with RSSI/SINR metadata, FCS errors and TX completions.
//
// # Fan-out pruning and the spatial index
//
// Transmit fan-out takes one of two paths. On fading-free, shadowing-free
// channels whose path-loss model can bound detection range
// (spectrum.RangeBounder), it walks a uniform-grid spatial index; on every
// other channel it walks all radios, and the per-receiver power filter
// drops the ones out of range. The index's invalidation contract: topology
// mutations — AddRadio, SetMobility and DetectionMarginDB changes, all of
// which can change detection ranges or the cell size — rebuild it from
// scratch before the next transmission, while ordinary mobility migrates
// radios between cells incrementally (once per distinct transmission
// timestamp, driven by geom.Mobility positions). Pruning is always a
// conservative superset of the exact per-receiver power filter, and
// candidates are walked in ascending radio-id order, so delivered arrivals
// and event order are bit-identical to the all-pairs walk.
//
// # Arrival runs
//
// A transmission delivered to n receivers puts two keys in the kernel's
// event heap, not 2n events: its arrival leading edges go to the kernel as
// one sorted run (sim.Kernel.ScheduleRun) and its trailing edges as
// another. The medium reserves 2n sequence numbers and gives the i-th
// delivered arrival, in candidate order, base+2i for its start and
// base+2i+1 for its end, the numbers per-arrival scheduling would take,
// so every tie with another event breaks as before. The starts are sorted
// by (arrival time, seq); each end is its start plus the common airtime,
// so the ends come out in the same order. Arrivals are never cancelled: an
// arrival invalidated by a channel switch is marked stale and ignored when
// its edges fire.
package medium

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/units"
)

// RxInfo carries reception metadata to the MAC, mirroring what a driver
// reads from its RX descriptor.
type RxInfo struct {
	RSSI    units.DBm
	MinSINR units.DB // worst SINR over the frame
	Rate    phy.RateIdx
	Mode    *phy.Mode
	Airtime sim.Duration
	End     sim.Time // when the frame ended on air at the receiver
}

// Listener is the upward interface of a radio; the MAC implements it.
type Listener interface {
	// OnCCABusy fires when carrier sense transitions idle→busy.
	OnCCABusy()
	// OnCCAIdle fires when carrier sense transitions busy→idle.
	OnCCAIdle()
	// OnRxFrame delivers a successfully decoded frame. The frame is a
	// pooled zero-copy view whose body aliases the transmission's wire
	// buffer: it is valid only for the duration of the callback. Listeners
	// that keep the frame, its body, or any slice derived from the body
	// past their return must deep-copy (frame.Frame.Clone).
	OnRxFrame(f *frame.Frame, info RxInfo)
	// OnRxError reports a locked frame that failed its FCS.
	OnRxError(info RxInfo)
	// OnTxDone reports the end of this radio's own transmission.
	OnTxDone()
}

// NopListener discards all radio events; useful for passive nodes and tests.
type NopListener struct{}

func (NopListener) OnCCABusy()                     {}
func (NopListener) OnCCAIdle()                     {}
func (NopListener) OnRxFrame(*frame.Frame, RxInfo) {}
func (NopListener) OnRxError(RxInfo)               {}
func (NopListener) OnTxDone()                      {}

// transmission is one MPDU on the air. Transmissions are pooled: refs
// counts the arrivals still pointing at this object, and the wire buffer's
// capacity is reused across transmissions once refs drains to zero.
type transmission struct {
	id      uint64
	tx      *Radio
	mode    *phy.Mode
	rate    phy.RateIdx
	channel int
	wire    []byte
	bits    int
	start   sim.Time
	airtime sim.Duration
	txPos   geom.Point
	refs    int
	// decoded caches the parsed wire image: every receiver that decodes
	// this transmission sees the same bytes, and received frames are
	// read-only views by convention (rx paths Clone what they keep), so one
	// zero-copy UnmarshalInto serves the whole fan-out. The Frame struct is
	// pooled with the transmission and its Body aliases wire, so it is only
	// valid until the transmission's last arrival releases.
	decoded *frame.Frame
}

// linkCacheEntry caches the propagation physics of one directed static
// radio pair: received power (excluding fast fading), its linear-milliwatt
// conversion (a math.Pow otherwise re-done per arrival), and propagation
// delay. Entries live in a direct-mapped cache (linkWays slots per
// transmitter) tagged by receiver id plus both endpoints' invalidation
// generations: a stale or evicted entry is simply recomputed, which is
// bit-identical because link physics is a pure function of the endpoints.
type linkCacheEntry struct {
	power   units.DBm
	powerMW float64
	delay   sim.Duration
	rxTag   int32 // rx.id+1; 0 marks an empty slot
	txGen   uint32
	rxGen   uint32
}

// linkWays is the per-transmitter associativity of the link cache. Must be
// a power of two. The old row-major [tx][rx] layout was O(N²) memory —
// ~4 GB at 10k radios — where this is linkWays×N entries total; at city
// scale the spatial index keeps fan-outs local, so the slots a transmitter
// actually uses stay far below N.
const linkWays = 64

// Medium couples radios to the propagation model.
type Medium struct {
	kernel *sim.Kernel
	model  *spectrum.Model
	radios []*Radio
	nextTx uint64

	// PropagationDelay enables distance/c arrival delays (default true).
	PropagationDelay bool
	// DetectionMarginDB sets how far below a receiver's noise floor an
	// arrival may be and still be tracked as interference energy.
	DetectionMarginDB float64
	// Tracer receives frame-level events; nil disables tracing.
	Tracer trace.Tracer

	rng *rng.Source

	// Counters for diagnostics. Plain fields bumped on the fast path;
	// internal/core flushes deltas into the metrics registry at run-chunk
	// boundaries, so transmit never pays an atomic.
	Transmissions    uint64
	FanoutCandidates uint64 // candidate receivers walked per transmission
	FanoutDelivered  uint64 // arrivals actually scheduled
	LinkCacheHits    uint64 // linkPhysics cache hits on the static path
	LinkCacheMisses  uint64 // linkPhysics recomputes on the static path
	GridMigrations   uint64 // radios moved between spatial-grid cells

	// Fast-path state: pooled transmissions/arrivals/decoded frames and the
	// per-link gain cache (direct-mapped, linkWays slots per transmitter,
	// static pairs only). linkGen[i] is radio i's invalidation generation:
	// bumping it orphans every cached entry touching i in O(1).
	txPool      []*transmission
	arrPool     []*arrival
	starts      []sim.RunEntry // transmit scratch: one transmission's arrival runs
	framePool   []*frame.Frame
	links       []linkCacheEntry
	linkGen     []uint32
	shadowConst bool // shadow gain is time-invariant: base power cacheable
	noFast      bool // no fast fading: cached power is the exact rx power
	noShadow    bool // no shadowing either: loss is pure distance, so the
	// spatial index's range bounds hold

	// sp is the uniform-grid spatial index (see grid.go); gridDirty marks
	// it stale after topology mutations.
	sp        spatial
	gridDirty bool
}

// New creates an empty medium on the kernel with the given channel model.
func New(k *sim.Kernel, model *spectrum.Model, src *rng.Source) *Medium {
	m := &Medium{
		kernel:            k,
		model:             model,
		PropagationDelay:  true,
		DetectionMarginDB: 10,
		rng:               src.Split("medium"),
	}
	switch model.Shadow.(type) {
	case spectrum.NoFading, *spectrum.Shadowing:
		m.shadowConst = true
	}
	if _, ok := model.Shadow.(spectrum.NoFading); ok {
		m.noShadow = true
	}
	if _, ok := model.Fast.(spectrum.NoFading); ok {
		m.noFast = true
	}
	// The spatial index needs loss to be a pure, invertible function of
	// distance: no fast fading, no shadowing, and a range-boundable
	// path-loss model. Shadowing is excluded even though it is
	// time-invariant — its per-link Gaussian offset is unbounded, so no
	// distance can guarantee a link stays below the detection threshold.
	if rb, ok := model.PathLoss.(spectrum.RangeBounder); ok && m.noFast && m.noShadow {
		m.sp.bounder = rb
		m.sp.enabled = true
	}
	m.sp.cells = make(map[cellKey][]int32)
	return m
}

// Kernel returns the simulation kernel the medium schedules on.
func (m *Medium) Kernel() *sim.Kernel { return m.kernel }

// Model returns the propagation model (for experiments that inspect it).
func (m *Medium) Model() *spectrum.Model { return m.model }

// RadioConfig parameterises a new radio.
type RadioConfig struct {
	Name     string
	Mode     *phy.Mode
	Channel  int
	Mobility geom.Mobility
	TxPower  units.DBm
	// NoiseFigure defaults to 7 dB when zero.
	NoiseFigure units.DB
	// CSThreshold is the energy-detect busy threshold; defaults to -82 dBm.
	CSThreshold units.DBm
	// CaptureMargin is the power advantage a later frame needs to steal the
	// receiver lock. Zero disables capture unless CaptureEnabled is set
	// with the default 10 dB margin.
	CaptureMargin  units.DB
	CaptureEnabled bool
	Listener       Listener
}

// AddRadio registers a radio on the medium.
func (m *Medium) AddRadio(cfg RadioConfig) *Radio {
	if cfg.Mode == nil {
		panic("medium: radio needs a PHY mode")
	}
	if cfg.Mobility == nil {
		cfg.Mobility = geom.Static{}
	}
	if cfg.NoiseFigure == 0 {
		cfg.NoiseFigure = 7
	}
	if cfg.CSThreshold == 0 {
		cfg.CSThreshold = -82
	}
	if cfg.CaptureEnabled && cfg.CaptureMargin == 0 {
		cfg.CaptureMargin = 10
	}
	if cfg.Listener == nil {
		cfg.Listener = NopListener{}
	}
	r := &Radio{
		medium:     m,
		id:         len(m.radios),
		name:       cfg.Name,
		mode:       cfg.Mode,
		channel:    cfg.Channel,
		mobility:   cfg.Mobility,
		txPower:    cfg.TxPower,
		noiseFloor: cfg.Mode.NoiseFloorDBm(cfg.NoiseFigure),
		csThresh:   cfg.CSThreshold,
		csThreshMW: cfg.CSThreshold.MilliWatt(),
		capture:    cfg.CaptureEnabled,
		capMargin:  cfg.CaptureMargin,
		listener:   cfg.Listener,
		rng:        m.rng.Split("radio:" + cfg.Name),
		nameTxDone: "tx-done:" + cfg.Name,
	}
	r.noiseFloorMW = linearOrZero(r.noiseFloor)
	_, r.static = cfg.Mobility.(geom.Static)
	r.txDoneFn = func() {
		r.state = stateIdle
		r.updateCCA()
		r.listener.OnTxDone()
	}
	m.radios = append(m.radios, r)
	// Grow the direct-mapped link cache by one transmitter row; fresh
	// zero entries carry no tags, so nothing needs clearing.
	var empty [linkWays]linkCacheEntry
	m.links = append(m.links, empty[:]...)
	m.linkGen = append(m.linkGen, 0)
	// The new radio may appear in any transmitter's fan-out, and its noise
	// floor can tighten every detection range: rebuild the spatial index
	// before the next transmission.
	m.gridDirty = true
	return r
}

// invalidateLinks drops cached gains for every link touching radio id
// (O(1): the radio's generation advances, orphaning its tagged entries)
// and marks the spatial index for rebuild.
func (m *Medium) invalidateLinks(id int) {
	m.linkGen[id]++
	m.gridDirty = true
}

// --- object pools ---------------------------------------------------------

func (m *Medium) getTransmission() *transmission {
	if n := len(m.txPool); n > 0 {
		t := m.txPool[n-1]
		m.txPool = m.txPool[:n-1]
		return t
	}
	return &transmission{}
}

func (m *Medium) putTransmission(t *transmission) {
	t.tx = nil
	t.mode = nil
	if t.decoded != nil {
		t.decoded.Body = nil // drop the wire alias before pooling
		m.framePool = append(m.framePool, t.decoded)
		t.decoded = nil
	}
	m.txPool = append(m.txPool, t) // t.wire keeps its capacity for reuse
}

// decodeFrame returns (decoding on first use) the transmission's parsed
// frame: a pooled Frame whose body aliases the wire buffer. Zero-alloc in
// steady state — UnmarshalInto overwrites every field of the pooled struct.
func (m *Medium) decodeFrame(t *transmission) *frame.Frame {
	if t.decoded != nil {
		return t.decoded
	}
	var f *frame.Frame
	if n := len(m.framePool); n > 0 {
		f = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
	} else {
		f = &frame.Frame{}
	}
	if err := frame.UnmarshalInto(f, t.wire); err != nil {
		// The wire image was built by Marshal, so this means model
		// corruption, not channel noise.
		panic("medium: undecodable wire image: " + err.Error())
	}
	t.decoded = f
	return f
}

func (m *Medium) getArrival() *arrival {
	if n := len(m.arrPool); n > 0 {
		a := m.arrPool[n-1]
		m.arrPool = m.arrPool[:n-1]
		return a
	}
	return &arrival{}
}

// releaseArrival recycles an arrival after its trailing edge has been fully
// processed, and recycles the transmission once its last arrival releases.
func (m *Medium) releaseArrival(a *arrival) {
	t := a.t
	*a = arrival{}
	m.arrPool = append(m.arrPool, a)
	t.refs--
	if t.refs == 0 {
		m.putTransmission(t)
	}
}

// Static dispatch targets for the arrival runs: package-level funcs carry
// the arrival pointer through the kernel without a closure allocation.
func arrivalStartFn(x any) { a := x.(*arrival); a.rx.arrivalStart(a) }
func arrivalEndFn(x any)   { a := x.(*arrival); a.rx.arrivalEnd(a) }

// runEntryCmp orders run entries by (at, seq), the kernel's run order.
func runEntryCmp(a, b sim.RunEntry) int {
	if a.At != b.At {
		return cmp.Compare(a.At, b.At)
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// Radios returns all registered radios.
func (m *Medium) Radios() []*Radio { return m.radios }

// linkPhysics returns the received power and propagation delay for a
// transmission from r to rx, consulting the per-link cache when both
// endpoints are static and the shadow process is time-invariant. Cached
// values reproduce the uncached computation bit-for-bit: the cache stores
// txPower-loss+shadow with the same operation order RxPower uses, and fast
// fading (when present) is re-applied per transmission.
// The second return is the cached linear-milliwatt power, or -1 when the
// caller must convert (fast fading applied, or the link is uncacheable).
func (m *Medium) linkPhysics(r, rx *Radio, t *transmission) (units.DBm, float64, sim.Duration) {
	linkID := uint64(r.id)<<20 | uint64(rx.id)
	if m.shadowConst && r.static && rx.static {
		lc := &m.links[r.id*linkWays+rx.id&(linkWays-1)]
		if lc.rxTag == int32(rx.id)+1 && lc.txGen == m.linkGen[r.id] && lc.rxGen == m.linkGen[rx.id] {
			m.LinkCacheHits++
		} else {
			m.LinkCacheMisses++
			rxPos := rx.mobility.PositionAt(t.start)
			base := r.txPower.Add(-m.model.PathLoss.Loss(t.txPos, rxPos)).Add(m.model.Shadow.Gain(linkID, t.start))
			d := t.txPos.Distance(rxPos)
			lc.power = base
			lc.powerMW = linearOrZero(base)
			lc.delay = sim.Duration(d / units.SpeedOfLight * float64(sim.Second))
			lc.rxTag = int32(rx.id) + 1
			lc.txGen = m.linkGen[r.id]
			lc.rxGen = m.linkGen[rx.id]
		}
		if !m.noFast {
			power := lc.power.Add(m.model.Fast.Gain(linkID, t.start))
			return power, -1, lc.delay
		}
		return lc.power, lc.powerMW, lc.delay
	}
	rxPos := rx.mobility.PositionAt(t.start)
	power := m.model.RxPower(r.txPower, t.txPos, rxPos, linkID, t.start)
	d := t.txPos.Distance(rxPos)
	return power, -1, sim.Duration(d / units.SpeedOfLight * float64(sim.Second))
}

// transmit puts a wire image on the air from radio r.
func (m *Medium) transmit(r *Radio, f *frame.Frame, rate phy.RateIdx) sim.Duration {
	t := m.getTransmission()
	t.wire = f.AppendWire(t.wire[:0])
	airtime := r.mode.Airtime(rate, len(t.wire))
	m.nextTx++
	m.Transmissions++
	t.id = m.nextTx
	t.tx = r
	t.mode = r.mode
	t.rate = rate
	t.channel = r.channel
	t.bits = len(t.wire) * 8
	t.start = m.kernel.Now()
	t.airtime = airtime
	t.txPos = r.mobility.PositionAt(t.start)
	t.refs = 0
	if m.Tracer != nil {
		m.Tracer.Trace(trace.Event{
			At: t.start, Node: r.name, Kind: trace.KindTx, Frame: f,
			Detail: fmt.Sprintf("rate=%v airtime=%v", r.mode.Rate(rate), airtime),
		})
	}

	// Deliver arrival start/end events to every other radio on the channel.
	// Fan-out walks the spatial index when the model supports it, else
	// every radio; the index only ever drops receivers the power filter
	// below would drop, and preserves ascending-id order, so the delivered
	// arrivals are identical to the full walk.
	cands := m.radios
	if m.sp.enabled && m.gridReady() {
		cands = m.gridCandidates(r, t)
	}
	m.FanoutCandidates += uint64(len(cands))
	starts := m.starts[:0]
	for _, rx := range cands {
		if rx == r || rx.channel != r.channel {
			continue
		}
		power, powerMW, delay := m.linkPhysics(r, rx, t)
		// Ignore arrivals far below the receiver's noise floor: they are
		// irrelevant both as signal and as interference.
		if float64(power) < float64(rx.noiseFloor)-m.DetectionMarginDB {
			continue
		}
		if !m.PropagationDelay {
			delay = 0
		}
		if powerMW < 0 {
			powerMW = linearOrZero(power)
		}
		arr := m.getArrival()
		arr.t = t
		arr.rx = rx
		arr.power = power
		arr.powerMW = powerMW
		t.refs++
		m.FanoutDelivered++
		starts = append(starts, sim.RunEntry{At: t.start.Add(delay), Arg: arr})
	}
	m.starts = starts
	if t.refs == 0 {
		m.putTransmission(t)
	} else {
		m.scheduleArrivals(starts, airtime)
	}
	return airtime
}

// scheduleArrivals queues a transmission's delivered arrivals, in candidate
// order, as a run of leading edges and a run of trailing edges, numbered as
// the package doc's Arrival runs section describes.
//
//wlan:hotpath
func (m *Medium) scheduleArrivals(starts []sim.RunEntry, airtime sim.Duration) {
	base := m.kernel.ReserveSeqs(2 * len(starts))
	for i := range starts {
		starts[i].Seq = base + 2*uint64(i)
	}
	slices.SortFunc(starts, runEntryCmp)
	m.kernel.ScheduleRun("rx-start", arrivalStartFn, starts)
	// The kernel copied the starts; turn them into the ends in place.
	for i := range starts {
		starts[i].At = starts[i].At.Add(airtime)
		starts[i].Seq++
	}
	m.kernel.ScheduleRun("rx-end", arrivalEndFn, starts)
}

func (m *Medium) String() string {
	return fmt.Sprintf("medium(%d radios, %d tx)", len(m.radios), m.Transmissions)
}

// linearOrZero converts dBm to mW treating -Inf as zero.
func linearOrZero(p units.DBm) float64 {
	if math.IsInf(float64(p), -1) {
		return 0
	}
	return p.MilliWatt()
}
