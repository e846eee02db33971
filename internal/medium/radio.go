package medium

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// radioState is the transceiver state.
type radioState uint8

const (
	stateIdle radioState = iota
	stateRx
	stateTx
	stateSleep
)

func (s radioState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateRx:
		return "rx"
	case stateTx:
		return "tx"
	case stateSleep:
		return "sleep"
	}
	return "?"
}

// arrival is one transmission as seen by one receiver. Arrivals are pooled
// by the medium and recycled after their trailing edge is processed.
type arrival struct {
	t       *transmission
	rx      *Radio // the receiver; lets kernel events dispatch without closures
	power   units.DBm
	powerMW float64 // power in linear mW, converted once per arrival
	// lockable records whether the receiver was able to start decoding.
	locked bool
	ended  bool
	// stale marks arrivals invalidated by a channel switch.
	stale bool
}

// segAccum incrementally folds the constant-interference timeline of a
// locked reception. The seed kept an append-only []segment that grew with
// every overlap boundary — O(boundaries) memory over a long lock — and
// evaluated the whole timeline at lock end. Only the *running products*
// matter for the frame's fate, so the accumulator keeps exactly one open
// span and folds each span into (success, minLin) the instant it closes,
// with the same per-span arithmetic in the same time order as the naive
// timeline: the results are bit-identical (pinned by
// TestSegAccumMatchesNaiveTimeline) and memory is O(1) regardless of lock
// duration or interferer count.
type segAccum struct {
	from     sim.Time // start of the open span
	interfMW float64  // interference level of the open span
	success  float64  // product of per-span chunk success probabilities
	minLin   float64  // minimum linear SINR over closed spans
}

// begin opens the timeline at a lock start.
//
//wlan:hotpath
func (s *segAccum) begin(now sim.Time, interfMW float64) {
	s.from = now
	s.interfMW = interfMW
	s.success = 1
	s.minLin = math.Inf(1)
}

// boundary records an interference change at now. Same-instant changes
// overwrite the open span's level (a zero-length span contributes nothing);
// otherwise the open span is closed through fold and a new one opens. Equal
// adjacent levels coalesce in storage automatically — the open span is the
// only storage there is — while fold still sees every span exactly as the
// naive timeline would.
//
//wlan:hotpath
func (s *segAccum) boundary(now sim.Time, interfMW float64, r *Radio) {
	if s.from != now {
		r.foldSpan(now)
		s.from = now
	}
	s.interfMW = interfMW
}

// RadioStats aggregates per-radio counters.
type RadioStats struct {
	TxFrames   uint64
	TxAirtime  sim.Duration
	RxFrames   uint64       // successfully decoded
	RxErrors   uint64       // locked but failed FCS
	RxAirtime  sim.Duration // time spent locked on frames (ok or errored)
	RxOverlaps uint64       // arrivals that found the receiver already locked
	RxWhileTx  uint64       // arrivals discarded because the radio was transmitting
	SleepTime  sim.Duration
}

// PowerModel converts radio state residency into energy. The defaults are
// the classic Feeney/Nilsson-class WLAN card numbers.
type PowerModel struct {
	TxW    float64 // transmit draw, watts
	RxW    float64 // receive (locked) draw
	IdleW  float64 // idle listening draw
	SleepW float64 // doze draw
}

// DefaultPowerModel returns typical 802.11b card figures.
func DefaultPowerModel() PowerModel {
	return PowerModel{TxW: 1.40, RxW: 0.90, IdleW: 0.74, SleepW: 0.047}
}

// Energy returns the joules consumed by a radio with the given stats over
// elapsed virtual time. Idle time is inferred as the remainder.
func (pm PowerModel) Energy(st RadioStats, elapsed sim.Duration) float64 {
	idle := elapsed - st.TxAirtime - st.RxAirtime - st.SleepTime
	if idle < 0 {
		idle = 0
	}
	return pm.TxW*st.TxAirtime.Seconds() +
		pm.RxW*st.RxAirtime.Seconds() +
		pm.IdleW*idle.Seconds() +
		pm.SleepW*st.SleepTime.Seconds()
}

// Radio is one transceiver attached to the medium. All methods must be
// called from kernel context (inside events).
type Radio struct {
	medium   *Medium
	id       int
	name     string
	mode     *phy.Mode
	channel  int
	mobility geom.Mobility
	txPower  units.DBm

	noiseFloor   units.DBm
	noiseFloorMW float64 // noiseFloor in linear mW, converted once
	csThresh     units.DBm
	csThreshMW   float64 // csThresh in linear mW, converted once
	capture      bool
	capMargin    units.DB

	listener Listener
	rng      *rng.Source

	state    radioState
	inFlight []*arrival
	totalMW  float64 // interference+signal power at the antenna, mW
	lock     *arrival
	seg      segAccum
	ccaBusy  bool
	txEnd    sim.Timer

	// Fast-path state: static mobility (gain cacheable), event names built
	// once at AddRadio, and the tx-done callback allocated once.
	static     bool
	nameTxDone string
	txDoneFn   func()

	sleepStart sim.Time
	Stats      RadioStats
}

// Name returns the radio's scenario name.
func (r *Radio) Name() string { return r.name }

// Mode returns the radio's PHY mode.
func (r *Radio) Mode() *phy.Mode { return r.mode }

// Channel returns the radio's channel number.
func (r *Radio) Channel() int { return r.channel }

// TxPower returns the configured transmit power.
func (r *Radio) TxPower() units.DBm { return r.txPower }

// Position returns the radio's current position.
func (r *Radio) Position() geom.Point {
	return r.mobility.PositionAt(r.medium.kernel.Now())
}

// SetMobility replaces the mobility model and invalidates cached link gains
// involving this radio.
func (r *Radio) SetMobility(m geom.Mobility) {
	r.mobility = m
	_, r.static = m.(geom.Static)
	r.medium.invalidateLinks(r.id)
}

// SetListener installs the MAC-side event consumer.
func (r *Radio) SetListener(l Listener) {
	if l == nil {
		l = NopListener{}
	}
	r.listener = l
}

// NoiseFloor returns the receiver noise floor.
func (r *Radio) NoiseFloor() units.DBm { return r.noiseFloor }

// CCABusy reports whether carrier sense currently indicates a busy medium:
// transmitting, locked onto a frame, or receiving energy above threshold.
// The energy compare runs in linear milliwatts against the pre-converted
// threshold, sparing a log10 on every arrival edge.
func (r *Radio) CCABusy() bool {
	if r.state == stateTx {
		return true
	}
	if r.state == stateSleep {
		return false
	}
	return r.lock != nil || r.totalMW >= r.csThreshMW
}

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.state == stateTx }

// Transmit puts a frame on the air at the given rate and returns its
// airtime. Transmitting while already transmitting is a MAC bug and panics.
// Transmitting while receiving abandons the receive lock (half duplex).
func (r *Radio) Transmit(f *frame.Frame, rate phy.RateIdx) sim.Duration {
	if r.state == stateTx {
		panic(fmt.Sprintf("medium: %s transmit while transmitting", r.name))
	}
	if r.state == stateSleep {
		panic(fmt.Sprintf("medium: %s transmit while asleep", r.name))
	}
	if r.lock != nil {
		// Half duplex: the frame being received is lost.
		r.lock.locked = false
		r.lock = nil
	}
	r.state = stateTx
	r.updateCCA() // the transmitter's own CCA goes busy for the TX duration
	airtime := r.medium.transmit(r, f, rate)
	r.Stats.TxFrames++
	r.Stats.TxAirtime += airtime
	r.txEnd = r.medium.kernel.Schedule(airtime, r.nameTxDone, r.txDoneFn)
	return airtime
}

// Sleep turns the receiver off for power saving: all in-flight and future
// arrivals are ignored until Wake.
func (r *Radio) Sleep() {
	if r.state == stateTx {
		panic(fmt.Sprintf("medium: %s sleep while transmitting", r.name))
	}
	if r.state == stateSleep {
		return
	}
	if r.lock != nil {
		r.lock.locked = false
		r.lock = nil
	}
	r.state = stateSleep
	r.sleepStart = r.medium.kernel.Now()
	// Energy tracking continues (arrivals still update totalMW) but CCA is
	// reported idle while asleep; recomputed on wake.
}

// Wake re-enables the receiver.
func (r *Radio) Wake() {
	if r.state != stateSleep {
		return
	}
	r.state = stateIdle
	r.Stats.SleepTime += r.medium.kernel.Now().Sub(r.sleepStart)
	r.updateCCA()
}

// Asleep reports whether the radio is in power-save sleep.
func (r *Radio) Asleep() bool { return r.state == stateSleep }

// interferenceMW returns current non-lock power at the antenna.
//
//wlan:hotpath
func (r *Radio) interferenceMW() float64 {
	if r.lock == nil {
		return r.totalMW
	}
	i := r.totalMW - r.lock.powerMW
	if i < 0 {
		i = 0
	}
	return i
}

// updateCCA emits edge events on carrier-sense transitions.
//
//wlan:hotpath
func (r *Radio) updateCCA() {
	busy := r.CCABusy()
	if busy == r.ccaBusy {
		return
	}
	r.ccaBusy = busy
	if r.state == stateSleep {
		return
	}
	if busy {
		r.listener.OnCCABusy()
	} else {
		r.listener.OnCCAIdle()
	}
}

// SetChannel retunes the radio. In-progress and in-flight receptions on the
// old channel are lost; carrier sense restarts clean.
func (r *Radio) SetChannel(ch int) {
	if ch == r.channel {
		return
	}
	if r.state == stateTx {
		panic(fmt.Sprintf("medium: %s channel switch while transmitting", r.name))
	}
	r.channel = ch
	if r.lock != nil {
		r.lock.locked = false
		r.lock = nil
	}
	if r.state == stateRx {
		r.state = stateIdle
	}
	for _, a := range r.inFlight {
		a.stale = true
	}
	r.inFlight = r.inFlight[:0]
	r.totalMW = 0
	r.updateCCA()
}

// arrivalStart processes the leading edge of a transmission at this
// receiver.
func (r *Radio) arrivalStart(a *arrival) {
	if a.t.channel != r.channel {
		// The receiver retuned after this frame launched.
		a.stale = true
		return
	}
	r.inFlight = append(r.inFlight, a)
	r.totalMW += a.powerMW

	switch {
	case r.state == stateTx:
		// Half duplex: arrivals during TX are never decodable.
		r.Stats.RxWhileTx++
	case r.state == stateSleep:
		// Receiver off.
	case r.lock == nil:
		// Try to lock: the preamble must be detectable, meaning the frame
		// power clears the noise floor and the instantaneous SINR is sane.
		if a.power >= r.noiseFloor {
			r.beginLock(a)
		}
	default:
		r.Stats.RxOverlaps++
		if r.capture && a.power >= r.lock.power.Add(r.capMargin) {
			// Capture: the stronger late frame steals the receiver.
			r.lock.locked = false
			r.closeSegment()
			r.beginLock(a)
		} else {
			// Plain interference against the current lock.
			r.closeSegment()
		}
	}
	r.updateCCA()
}

func (r *Radio) beginLock(a *arrival) {
	a.locked = true
	r.lock = a
	r.state = stateRx
	r.seg.begin(r.medium.kernel.Now(), r.interferenceMW())
}

// closeSegment folds the open constant-interference span of the locked
// frame and opens a new one at the current interference level.
func (r *Radio) closeSegment() {
	if r.lock == nil {
		return
	}
	r.seg.boundary(r.medium.kernel.Now(), r.interferenceMW(), r)
}

// foldSpan closes the open span [r.seg.from, to) against the locked frame:
// one chunk-error evaluation and a running SINR minimum, exactly as the
// naive end-of-lock timeline walk would compute for this span.
//
//wlan:hotpath
func (r *Radio) foldSpan(to sim.Time) {
	a := r.lock
	dur := to.Sub(r.seg.from)
	if dur <= 0 {
		return
	}
	sinr := a.powerMW / (r.noiseFloorMW + r.seg.interfMW)
	bits := int(float64(a.t.bits) * float64(dur) / float64(a.t.airtime))
	r.seg.success *= a.t.mode.ChunkSuccess(a.t.rate, sinr, bits)
	if sinr < r.seg.minLin {
		r.seg.minLin = sinr
	}
}

// arrivalEnd processes the trailing edge of a transmission. The arrival is
// recycled on every exit path: the end event is its last reference.
func (r *Radio) arrivalEnd(a *arrival) {
	if a.stale {
		r.medium.releaseArrival(a)
		return
	}
	a.ended = true
	// Remove from in-flight set.
	for i, x := range r.inFlight {
		if x == a {
			r.inFlight = append(r.inFlight[:i], r.inFlight[i+1:]...)
			break
		}
	}
	r.totalMW -= a.powerMW
	if r.totalMW < 1e-18 {
		r.totalMW = 0
	}

	if r.lock == a {
		r.finishLock(a)
	} else if r.lock != nil {
		// Interferer ended mid-lock: new segment with less interference.
		r.closeSegment()
	}
	r.updateCCA()
	r.medium.releaseArrival(a)
}

// finishLock folds the final span, evaluates the locked frame's fate from
// the accumulated per-span products, and notifies the listener.
func (r *Radio) finishLock(a *arrival) {
	now := r.medium.kernel.Now()
	r.Stats.RxAirtime += a.t.airtime
	r.foldSpan(now)
	success := r.seg.success
	// The minimum SINR was tracked in linear space; log10 is monotone, so
	// one conversion of the minimum matches converting every span.
	minSINR := units.DB(1000)
	if !math.IsInf(r.seg.minLin, 1) {
		if db := units.DBFromLinear(r.seg.minLin); db < minSINR {
			minSINR = db
		}
	}
	r.lock = nil
	r.state = stateIdle

	info := RxInfo{
		RSSI:    a.power,
		MinSINR: minSINR,
		Rate:    a.t.rate,
		Mode:    a.t.mode,
		Airtime: a.t.airtime,
		End:     now,
	}
	if r.rng.Float64() < success {
		f := r.medium.decodeFrame(a.t)
		r.Stats.RxFrames++
		if tr := r.medium.Tracer; tr != nil {
			tr.Trace(trace.Event{
				At: now, Node: r.name, Kind: trace.KindRxOK, Frame: f,
				Detail: fmt.Sprintf("rssi=%v sinr=%v", info.RSSI, info.MinSINR),
			})
		}
		r.listener.OnRxFrame(f, info)
	} else {
		r.Stats.RxErrors++
		if tr := r.medium.Tracer; tr != nil {
			tr.Trace(trace.Event{
				At: now, Node: r.name, Kind: trace.KindRxErr,
				Detail: fmt.Sprintf("rssi=%v sinr=%v from=%s", info.RSSI, info.MinSINR, a.t.tx.name),
			})
		}
		r.listener.OnRxError(info)
	}
}
