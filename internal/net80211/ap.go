// Package net80211 is the management plane above the MAC: access points
// (beaconing, authentication, association, intra-BSS bridging, power-save
// buffering), stations (scanning, join state machine, roaming with
// hysteresis, PS-Poll sleep cycles) and ad-hoc IBSS nodes. It corresponds
// to the SME/MLME layer a driver stack implements above mac80211.
//
// # Frame ownership contracts
//
// Two rules keep the allocation-free fast paths sound; every send or
// receive path added to this package must follow them:
//
//   - RX frames are views. Frames arriving from the MAC (mac.Receiver) are
//     zero-copy views into pooled decode buffers, valid only during the
//     callback. Retain nothing without frame.Frame.Clone — the AP's
//     wired-DS forwarding, the power-save buffer and the reassembler all
//     clone before they keep.
//   - TX frames are MAC-owned after Enqueue. A frame handed to
//     mac.DCF.Enqueue (and its body) belongs to the MAC until the MSDU is
//     delivered or dropped; the MAC mutates and retransmits from that
//     storage in place. Send paths therefore draw frames from the
//     per-node txPool — QueueCap()+2 slots, advanced only when Enqueue
//     accepts — and must never recycle a slot the MAC may still hold.
//
// Both rules are enforced statically by cmd/wlanlint: the retainview
// analyzer catches RX views retained past their handler, and the
// txownership analyzer catches non-pooled frames reaching Enqueue and
// use-after-hand-off. A new send/receive path that trips either analyzer
// is wrong until it clones or pools; see README.md "Static contracts".
package net80211

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wep"
)

// TU is the 802.11 time unit used for beacon intervals.
const TU = 1024 * sim.Microsecond

// EtherTypePayload is the LLC/SNAP ethertype used for application payloads.
const EtherTypePayload = 0x0800

// DeliveryFunc receives application payloads: src/dst are the original
// end-to-end addresses.
type DeliveryFunc func(src, dst frame.MACAddr, payload []byte)

// APConfig parameterises an access point.
type APConfig struct {
	SSID string
	// BeaconInterval defaults to 100 TU.
	BeaconInterval sim.Duration
	// DTIMPeriod defaults to 1 (every beacon is a DTIM).
	DTIMPeriod int
	// WEPKey enables privacy: shared-key authentication and WEP-sealed
	// data bodies.
	WEPKey wep.Key
	// WEPKeyID is the key slot (0-3) stamped into sealed frames and
	// required of received ones; a frame carrying a different key ID
	// counts as a decrypt error instead of being decrypted with the wrong
	// key and failing on the ICV by luck.
	WEPKeyID byte
	// PSBufferCap bounds the per-station power-save buffer (default 32).
	PSBufferCap int
}

// staEntry is the AP's per-station state.
type staEntry struct {
	addr   frame.MACAddr
	aid    uint16
	authed bool
	assoc  bool
	ps     bool
	psBuf  []*frame.Frame
	// challenge is the outstanding shared-key auth challenge.
	challenge []byte
}

// APStats counts management-plane activity.
type APStats struct {
	BeaconsSent   uint64
	AuthOK        uint64
	AuthFail      uint64
	Assocs        uint64
	Relayed       uint64 // STA→STA frames bridged inside the BSS
	ToDS          uint64 // frames forwarded to the wired DS
	FromDS        uint64 // frames delivered from the wired DS
	PSBuffered    uint64
	PSDelivered   uint64
	PSDropped     uint64
	DecryptErrors uint64
	Handoffs      uint64 // stale associations dropped on ESS roam announcements
}

// AP is an access point: one DCF below, beacon scheduler and association
// table above, optional wired DS port behind.
type AP struct {
	k    *sim.Kernel
	dcf  *mac.DCF
	cfg  APConfig
	ssid string

	stations map[frame.MACAddr]*staEntry
	byAID    map[uint16]*staEntry
	nextAID  uint16

	port *ether.Port

	dtimCount int
	ivs       wep.IVCounter
	// tx pools outgoing data frames/bodies; wepOpen is the rx decrypt
	// scratch. Both make steady-state bridging allocation-free.
	tx      *txPool
	wepOpen []byte
	// rates is the supported-rates IE, fixed at construction (the mode
	// never changes); beaconTIM is the reusable TIM scratch. Together with
	// AppendBeacon into a pooled TX body they make beaconing — the one
	// thing an idle BSS does — allocation-free.
	rates     []byte
	beaconTIM frame.TIM

	// OnDeliver receives payloads addressed to the AP itself (or group).
	OnDeliver DeliveryFunc
	Tracer    trace.Tracer
	Stats     APStats

	stopBeacons func()
}

// NewAP builds an access point on an existing DCF (whose address becomes
// the BSSID) and starts beaconing.
func NewAP(k *sim.Kernel, dcf *mac.DCF, cfg APConfig) *AP {
	if cfg.BeaconInterval == 0 {
		cfg.BeaconInterval = 100 * TU
	}
	if cfg.DTIMPeriod == 0 {
		cfg.DTIMPeriod = 1
	}
	if cfg.PSBufferCap == 0 {
		cfg.PSBufferCap = 32
	}
	ap := &AP{
		k:        k,
		dcf:      dcf,
		cfg:      cfg,
		ssid:     cfg.SSID,
		stations: make(map[frame.MACAddr]*staEntry),
		byAID:    make(map[uint16]*staEntry),
		tx:       newTxPool(dcf.QueueCap()),
		Tracer:   trace.Nop{},
	}
	ap.rates = ap.rateIE()
	dcf.SetReceiver(ap.receive)
	// Stagger the beacon phase per BSSID: co-located APs with synchronized
	// tickers would collide their beacons every interval, which real APs
	// avoid by having independent TSF start times.
	offset := sim.Duration(uint64(cfg.BeaconInterval) * (uint64(ap.BSSID()[5]) * 149 % 256) / 256)
	var stopped bool
	var stopTicker func()
	k.Schedule(offset, "beacon-start:"+cfg.SSID, func() {
		if stopped {
			return
		}
		ap.sendBeacon()
		stopTicker = k.Ticker(cfg.BeaconInterval, "beacon:"+cfg.SSID, ap.sendBeacon)
	})
	ap.stopBeacons = func() {
		stopped = true
		if stopTicker != nil {
			stopTicker()
		}
	}
	return ap
}

// BSSID returns the AP's MAC address.
func (ap *AP) BSSID() frame.MACAddr { return ap.dcf.Address() }

// Stop halts beaconing.
func (ap *AP) Stop() { ap.stopBeacons() }

// MAC exposes the underlying DCF (for stats in experiments).
func (ap *AP) MAC() *mac.DCF { return ap.dcf }

// AttachDS connects the AP to a wired distribution system switch and
// registers the AP's BSSID on its port. The AP never sends from its own
// address on the wire, so without this the switch would flood every frame
// bridged to it across all ports.
func (ap *AP) AttachDS(sw *ether.Switch) {
	ap.port = sw.AddPort(ap.fromDS)
	sw.Relearn(ap.BSSID(), ap.port)
}

// Associated reports whether addr is an associated station.
func (ap *AP) Associated(addr frame.MACAddr) bool {
	e := ap.stations[addr]
	return e != nil && e.assoc
}

// AssociatedCount returns the number of associated stations.
func (ap *AP) AssociatedCount() int {
	n := 0
	//wlan:allow-nondeterminism order-independent count over the station map
	for _, e := range ap.stations {
		if e.assoc {
			n++
		}
	}
	return n
}

func (ap *AP) privacy() bool { return len(ap.cfg.WEPKey) > 0 }

// tracing reports whether a real tracer is attached. Handlers gate their
// trace.Event construction on it so the fmt.Sprintf detail strings are never
// built under the default trace.Nop — tracing off must cost nothing.
func (ap *AP) tracing() bool {
	_, nop := ap.Tracer.(trace.Nop)
	return !nop
}

// open decrypts a received WEP body into the AP's reusable scratch. The
// result is a view, valid until the next open call; consumers copy what
// they keep (queueFromDS re-encapsulates, the DS port clones).
func (ap *AP) open(body []byte) ([]byte, error) {
	plain, err := wep.OpenTo(ap.wepOpen[:0], ap.cfg.WEPKey, ap.cfg.WEPKeyID, body)
	if err != nil {
		return nil, err
	}
	ap.wepOpen = plain
	return plain, nil
}

// sendBeacon enqueues the periodic beacon with the current TIM. The frame
// and body come from the AP's transmit pool and the body is built with
// AppendBeacon into the reused buffer, so an idle BSS beacons forever
// without allocating; the slot commits only when the MAC accepts the
// frame, per the txPool ownership protocol.
func (ap *AP) sendBeacon() {
	ap.dtimCount--
	if ap.dtimCount < 0 {
		ap.dtimCount = ap.cfg.DTIMPeriod - 1
	}
	tim := &ap.beaconTIM
	tim.DTIMCount = uint8(ap.dtimCount)
	tim.DTIMPeriod = uint8(ap.cfg.DTIMPeriod)
	tim.Multicast = false
	tim.AIDs = tim.AIDs[:0]
	//wlan:allow-nondeterminism TIM encodes as an AID bitmap, so the wire bytes are independent of collection order
	for _, e := range ap.stations {
		if e.assoc && e.ps && len(e.psBuf) > 0 {
			tim.AIDs = append(tim.AIDs, e.aid)
		}
	}
	cap := uint16(frame.CapESS)
	if ap.privacy() {
		cap |= frame.CapPrivacy
	}
	b := frame.Beacon{
		Timestamp:  uint64(ap.k.Now() / 1000),
		IntervalTU: uint16(ap.cfg.BeaconInterval / TU),
		Capability: cap,
		SSID:       ap.ssid,
		Rates:      ap.rates,
		Channel:    uint8(ap.channel()),
		TIM:        tim,
	}
	slot := ap.tx.slot()
	slot.body = frame.AppendBeacon(slot.body[:0], &b)
	slot.f = frame.Frame{
		Type: frame.TypeManagement, Subtype: frame.SubtypeBeacon,
		Addr1: frame.Broadcast, Addr2: ap.BSSID(), Addr3: ap.BSSID(),
		Body: slot.body,
	}
	if ap.dcf.Enqueue(&slot.f) {
		ap.tx.commit()
		ap.Stats.BeaconsSent++
	}
}

func (ap *AP) rateIE() []byte {
	m := ap.dcf.Mode()
	var out []byte
	for i := 0; i < m.NumRates() && i < 8; i++ {
		r := m.Rate(phy.RateIdx(i))
		out = append(out, frame.RateByte(int(float64(r.BitRate)/500e3), r.Basic))
	}
	return out
}

func (ap *AP) channel() int { return ap.dcf.Radio().Channel() }

// Send transmits an application payload from the AP itself to a station in
// the BSS (or broadcast). It returns false when the target is unknown or
// the queue is full.
func (ap *AP) Send(dst frame.MACAddr, payload []byte) bool {
	if dst.IsGroup() {
		return ap.queueFromDS(dst, ap.BSSID(), payload)
	}
	e := ap.stations[dst]
	if e == nil || !e.assoc {
		return false
	}
	return ap.queueFromDS(dst, ap.BSSID(), payload)
}

// queueFromDS builds a FromDS data frame (buffering for PS stations). The
// frame and its body come from the AP's transmit pool, so steady-state
// bridging allocates nothing; ownership moves to the MAC on a successful
// Enqueue. Power-save buffering is the exception: the buffer outlives this
// call, so it takes a Clone and the pooled slot stays uncommitted.
func (ap *AP) queueFromDS(dst, src frame.MACAddr, payload []byte) bool {
	slot := ap.tx.slot()
	if ap.privacy() {
		ap.tx.snap = frame.AppendSNAP(ap.tx.snap[:0], EtherTypePayload, payload)
		sealed, err := wep.SealTo(slot.body[:0], ap.cfg.WEPKey, ap.ivs.Next(), ap.cfg.WEPKeyID, ap.tx.snap)
		if err != nil {
			return false
		}
		slot.body = sealed
	} else {
		slot.body = frame.AppendSNAP(slot.body[:0], EtherTypePayload, payload)
	}
	slot.f = frame.Frame{
		Type: frame.TypeData, Subtype: frame.SubtypeData,
		FromDS: true,
		Addr1:  dst, Addr2: ap.BSSID(), Addr3: src,
		Body:      slot.body,
		Protected: ap.privacy(),
	}
	if e := ap.stations[dst]; e != nil && e.ps {
		if len(e.psBuf) >= ap.cfg.PSBufferCap {
			ap.Stats.PSDropped++
			return false
		}
		e.psBuf = append(e.psBuf, slot.f.Clone())
		ap.Stats.PSBuffered++
		return true
	}
	if !ap.dcf.Enqueue(&slot.f) {
		return false
	}
	ap.tx.commit()
	return true
}

// receive handles every frame the MAC delivers.
func (ap *AP) receive(f *frame.Frame, info medium.RxInfo) {
	switch f.Type {
	case frame.TypeManagement:
		ap.handleMgmt(f, info)
	case frame.TypeData:
		ap.handleData(f)
	case frame.TypeControl:
		if f.Subtype == frame.SubtypePSPoll {
			ap.handlePSPoll(f)
		}
	}
}

func (ap *AP) handleMgmt(f *frame.Frame, _ medium.RxInfo) {
	switch f.Subtype {
	case frame.SubtypeProbeReq:
		ap.handleProbe(f)
	case frame.SubtypeAuth:
		ap.handleAuth(f)
	case frame.SubtypeAssocReq, frame.SubtypeReassocReq:
		ap.handleAssoc(f)
	case frame.SubtypeDisassoc, frame.SubtypeDeauth:
		if e := ap.stations[f.Addr2]; e != nil {
			e.assoc = false
			e.authed = false
			delete(ap.byAID, e.aid)
		}
	}
}

// dropStation removes a roamed-away station's association state. Called on
// ESS handoff announcements from the DS; a station that was never
// associated here is a no-op (its own AP hears its announcement too, but
// the switch never reflects a frame back to its source port).
func (ap *AP) dropStation(addr frame.MACAddr) {
	e := ap.stations[addr]
	if e == nil || !e.assoc {
		return
	}
	e.assoc = false
	e.authed = false
	e.ps = false
	e.psBuf = nil
	delete(ap.byAID, e.aid)
	ap.Stats.Handoffs++
}

func (ap *AP) handleProbe(f *frame.Frame) {
	// A probe request body is a bare IE list; respond to wildcard probes
	// and to probes naming our SSID. LookupIE reads the SSID as a view of
	// the frame body — no element list is materialised.
	if ssid, ok := frame.LookupIE(f.Body, frame.IESSID); ok && len(ssid) > 0 && string(ssid) != ap.ssid {
		return
	}
	capBits := uint16(frame.CapESS)
	if ap.privacy() {
		capBits |= frame.CapPrivacy
	}
	resp := frame.Beacon{
		Timestamp:  uint64(ap.k.Now() / 1000),
		IntervalTU: uint16(ap.cfg.BeaconInterval / TU),
		Capability: capBits,
		SSID:       ap.ssid,
		Rates:      ap.rates,
		Channel:    uint8(ap.channel()),
	}
	// The response body is built with AppendBeacon into a pooled TX body,
	// like the beacon itself: a probe storm makes the AP marshal nothing on
	// the heap.
	slot := ap.tx.slot()
	slot.body = frame.AppendBeacon(slot.body[:0], &resp)
	slot.f = frame.Frame{
		Type: frame.TypeManagement, Subtype: frame.SubtypeProbeResp,
		Addr1: f.Addr2, Addr2: ap.BSSID(), Addr3: ap.BSSID(),
		Body: slot.body,
	}
	if ap.dcf.Enqueue(&slot.f) {
		ap.tx.commit()
	}
}

func (ap *AP) entry(addr frame.MACAddr) *staEntry {
	e := ap.stations[addr]
	if e == nil {
		e = &staEntry{addr: addr}
		ap.stations[addr] = e
	}
	return e
}

// sendAuthReply enqueues one authentication response from a pooled TX slot;
// the body marshals with AppendAuth straight into the reused buffer.
func (ap *AP) sendAuthReply(dst frame.MACAddr, algo, seq, status uint16, challenge []byte) {
	a := frame.Auth{Algorithm: algo, SeqNum: seq, Status: status, Challenge: challenge}
	slot := ap.tx.slot()
	slot.body = frame.AppendAuth(slot.body[:0], &a)
	slot.f = frame.Frame{
		Type: frame.TypeManagement, Subtype: frame.SubtypeAuth,
		Addr1: dst, Addr2: ap.BSSID(), Addr3: ap.BSSID(),
		Body: slot.body,
	}
	if ap.dcf.Enqueue(&slot.f) {
		ap.tx.commit()
	}
}

func (ap *AP) handleAuth(f *frame.Frame) {
	e := ap.entry(f.Addr2)
	reply := func(algo, seq, status uint16, challenge []byte) {
		ap.sendAuthReply(f.Addr2, algo, seq, status, challenge)
	}
	// Shared-key sequence 3 arrives WEP-sealed: decrypt before parsing.
	body := f.Body
	if f.Protected {
		if !ap.privacy() {
			return
		}
		plain, err := ap.open(body)
		if err != nil {
			// Wrong key: the challenge response is unreadable.
			ap.Stats.AuthFail++
			ap.Stats.DecryptErrors++
			e.challenge = nil
			reply(frame.AuthAlgoSharedKey, 4, frame.StatusChallengeFail, nil)
			return
		}
		body = plain
	}
	a, err := frame.ParseAuth(body)
	if err != nil {
		return
	}
	switch {
	case a.Algorithm == frame.AuthAlgoOpen && a.SeqNum == 1:
		if ap.privacy() {
			// Privacy BSS refuses open auth (strict-WEP policy).
			ap.Stats.AuthFail++
			reply(a.Algorithm, 2, frame.StatusAuthAlgoUnsupp, nil)
			return
		}
		e.authed = true
		ap.Stats.AuthOK++
		reply(a.Algorithm, 2, frame.StatusSuccess, nil)
	case a.Algorithm == frame.AuthAlgoSharedKey && a.SeqNum == 1:
		if !ap.privacy() {
			ap.Stats.AuthFail++
			reply(a.Algorithm, 2, frame.StatusAuthAlgoUnsupp, nil)
			return
		}
		// Issue a deterministic 128-byte challenge.
		ch := make([]byte, 128)
		for i := range ch {
			ch[i] = byte(i) ^ f.Addr2[5]
		}
		e.challenge = ch
		reply(a.Algorithm, 2, frame.StatusSuccess, ch)
	case a.Algorithm == frame.AuthAlgoSharedKey && a.SeqNum == 3:
		if e.challenge == nil || !f.Protected ||
			string(a.Challenge) != string(e.challenge) {
			ap.Stats.AuthFail++
			e.challenge = nil
			reply(a.Algorithm, 4, frame.StatusChallengeFail, nil)
			return
		}
		e.authed = true
		e.challenge = nil
		ap.Stats.AuthOK++
		reply(a.Algorithm, 4, frame.StatusSuccess, nil)
	}
}

func (ap *AP) handleAssoc(f *frame.Frame) {
	req, err := frame.ParseAssocReq(f.Body)
	if err != nil || req.SSID != ap.ssid {
		return
	}
	e := ap.entry(f.Addr2)
	status := uint16(frame.StatusSuccess)
	if !e.authed {
		status = frame.StatusUnspecified
	}
	if status == frame.StatusSuccess && !e.assoc {
		ap.nextAID++
		e.aid = ap.nextAID
		e.assoc = true
		ap.byAID[e.aid] = e
		ap.Stats.Assocs++
		if ap.port != nil {
			// Announce the station on the wire so the switch learns it here.
			ap.port.Send(ether.Frame{Dst: frame.Broadcast, Src: f.Addr2, Payload: nil})
		}
	}
	resp := frame.AssocResp{Capability: frame.CapESS, Status: status, AID: e.aid, Rates: ap.rates}
	slot := ap.tx.slot()
	slot.body = frame.AppendAssocResp(slot.body[:0], &resp)
	slot.f = frame.Frame{
		Type: frame.TypeManagement, Subtype: frame.SubtypeAssocResp,
		Addr1: f.Addr2, Addr2: ap.BSSID(), Addr3: ap.BSSID(),
		Body: slot.body,
	}
	if ap.dcf.Enqueue(&slot.f) {
		ap.tx.commit()
	}
	if ap.tracing() {
		ap.Tracer.Trace(trace.Event{At: ap.k.Now(), Node: ap.ssid, Kind: trace.KindMgmt,
			Detail: fmt.Sprintf("assoc %v aid=%d status=%d", f.Addr2, e.aid, status)})
	}
}

func (ap *AP) handleData(f *frame.Frame) {
	e := ap.stations[f.Addr2]
	if e == nil || !e.assoc {
		return // not in our BSS
	}
	// Track power management transitions.
	ap.setPS(e, f.PwrMgmt)
	if f.Subtype == frame.SubtypeNullData {
		return
	}
	if !f.ToDS {
		return
	}
	body := f.Body
	if f.Protected {
		if !ap.privacy() {
			return
		}
		plain, err := ap.open(body)
		if err != nil {
			ap.Stats.DecryptErrors++
			return
		}
		body = plain
	}
	et, payload, err := frame.DecapSNAP(body)
	if err != nil || et != EtherTypePayload {
		return
	}
	src, dst := f.SA(), f.DA()
	switch {
	case dst == ap.BSSID():
		if ap.OnDeliver != nil {
			ap.OnDeliver(src, dst, payload)
		}
	case dst.IsGroup():
		// Deliver locally, rebroadcast into the BSS, and flood the DS.
		if ap.OnDeliver != nil {
			ap.OnDeliver(src, dst, payload)
		}
		ap.queueFromDS(dst, src, payload)
		if ap.port != nil {
			ap.Stats.ToDS++
			ap.port.Send(ether.Frame{Dst: dst, Src: src, Payload: clonePayload(payload)})
		}
	case ap.Associated(dst):
		ap.Stats.Relayed++
		ap.queueFromDS(dst, src, payload)
	case ap.port != nil:
		ap.Stats.ToDS++
		ap.port.Send(ether.Frame{Dst: dst, Src: src, Payload: clonePayload(payload)})
	}
}

// setPS updates a station's power-save state; leaving PS flushes the buffer.
func (ap *AP) setPS(e *staEntry, ps bool) {
	if e.ps == ps {
		return
	}
	e.ps = ps
	if ap.tracing() {
		ap.Tracer.Trace(trace.Event{At: ap.k.Now(), Node: ap.ssid, Kind: trace.KindPS,
			Detail: fmt.Sprintf("%v ps=%v", e.addr, ps)})
	}
	if !ps {
		for _, f := range e.psBuf {
			ap.dcf.Enqueue(f)
			ap.Stats.PSDelivered++
		}
		e.psBuf = nil
	}
}

func (ap *AP) handlePSPoll(f *frame.Frame) {
	aid := f.Duration & 0x3fff
	e := ap.byAID[aid]
	if e == nil || e.addr != f.Addr2 {
		return
	}
	if len(e.psBuf) == 0 {
		return
	}
	out := e.psBuf[0]
	e.psBuf = e.psBuf[1:]
	out.MoreData = len(e.psBuf) > 0
	ap.Stats.PSDelivered++
	ap.dcf.Enqueue(out)
}

// clonePayload copies a payload that must outlive the rx callback: wired
// delivery is scheduled as a future kernel event, while an unencrypted
// payload still aliases the radio's pooled wire buffer.
func clonePayload(p []byte) []byte {
	return append([]byte(nil), p...)
}

// fromDS handles frames arriving from the wired side.
func (ap *AP) fromDS(ef ether.Frame) {
	if ef.Payload == nil {
		// A peer AP in the ESS announced this address on the wire: the
		// station (re)associated there. If it was associated here it has
		// roamed away — drop the stale entry so in-BSS relay and
		// power-save buffering stop black-holing its traffic.
		ap.dropStation(ef.Src)
		return
	}
	switch {
	case ef.Dst == ap.BSSID():
		if ap.OnDeliver != nil {
			ap.OnDeliver(ef.Src, ef.Dst, ef.Payload)
		}
	case ef.Dst.IsGroup():
		ap.Stats.FromDS++
		ap.queueFromDS(ef.Dst, ef.Src, ef.Payload)
	case ap.Associated(ef.Dst):
		ap.Stats.FromDS++
		ap.queueFromDS(ef.Dst, ef.Src, ef.Payload)
	}
}
