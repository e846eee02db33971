// Package txown exercises the txownership contract: frames handed to a
// MAC's Enqueue (mac.DCF, the baseline MACs, or the net80211.MAC interface)
// come from a txPool slot (or a Clone), and are MAC-owned after the
// commit-on-accept hand-off.
package txown

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/net80211"
)

// pool mirrors the net80211 txPool ownership idiom.
type pool struct {
	slots []slot
	next  int
}

type slot struct {
	f    frame.Frame
	body []byte
}

func (p *pool) slot() *slot { return &p.slots[p.next] }
func (p *pool) commit()     { p.next = (p.next + 1) % len(p.slots) }

var d *mac.DCF

func badLiteral() {
	d.Enqueue(&frame.Frame{Type: frame.TypeData}) // want "fresh frame literal"
}

func badLocalLiteral() {
	f := &frame.Frame{Type: frame.TypeData}
	d.Enqueue(f) // want "fresh frame literal"
}

func badNew() {
	d.Enqueue(new(frame.Frame)) // want "new\\(\\)-allocated frame"
}

func badConstructor(bssid, ta frame.MACAddr) {
	d.Enqueue(frame.NewPSPoll(bssid, ta, 1)) // want "fresh frame.NewPSPoll frame"
}

func onRxForward(f *frame.Frame, info medium.RxInfo) {
	d.Enqueue(f) // want "enqueueing the delivered RX view"
}

func badUseAfterHandoff(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	if d.Enqueue(&s.f) {
		p.commit()
		s.f.Retry = true // want "the MAC owns the frame"
	}
	s.f.Seq = 1 // want "the MAC owns the frame"
}

func goodPooled(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	if d.Enqueue(&s.f) {
		p.commit()
	}
}

func goodRefusalPath(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	ok := d.Enqueue(&s.f)
	if !ok {
		s.f.Retry = false // refusal: the frame is still ours
	}
}

func goodClone(f *frame.Frame) {
	d.Enqueue(f.Clone())
}

func goodRefusalEquals(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	ok := d.Enqueue(&s.f)
	if ok == false {
		s.f.Retry = false
	}
}

func goodRefusalInline(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	if !d.Enqueue(&s.f) {
		s.f.Retry = false
	}
}

func goodReattempt(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	d.Enqueue(&s.f)
	if !d.Enqueue(&s.f) {
		s.f.Retry = true
	}
}

func goodRebind(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	if d.Enqueue(&s.f) {
		p.commit()
	}
	s = p.slot()
	s.f = frame.Frame{Type: frame.TypeControl}
}

// The same contract holds through the MAC interface net80211.Adhoc sends
// through, and on the baseline MACs.
var (
	link  net80211.MAC
	aloha *mac.Aloha
	tdma  *mac.TDMA
)

func badInterfaceConstructor(da, sa frame.MACAddr) {
	link.Enqueue(frame.NewData(da, sa, sa, false, false, nil)) // want "fresh frame.NewData frame"
}

func badInterfaceLiteral() {
	f := &frame.Frame{Type: frame.TypeData}
	link.Enqueue(f) // want "fresh frame literal"
}

func badBaselines() {
	aloha.Enqueue(new(frame.Frame))                  // want "new\\(\\)-allocated frame"
	tdma.Enqueue(&frame.Frame{Type: frame.TypeData}) // want "fresh frame literal"
}

func badInterfaceUseAfterHandoff(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	if link.Enqueue(&s.f) {
		p.commit()
	}
	s.f.Seq = 1 // want "the MAC owns the frame"
}

func goodInterfacePooled(p *pool) {
	s := p.slot()
	s.f = frame.Frame{Type: frame.TypeData}
	if !link.Enqueue(&s.f) {
		s.f.Retry = false
		return
	}
	p.commit()
}
