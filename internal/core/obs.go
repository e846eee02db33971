package core

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Metrics flushing. The kernel and medium keep plain per-instance
// counters so their hot paths never pay an atomic; this file diffs those
// counters against the last flush and folds the deltas into the global
// obs registry. Flushes happen at Run boundaries — and, when MetricsEvery
// is set, at fixed sim-time intervals inside Run — by splitting RunFor
// into repeated RunUntil calls. The split is unobservable to model code
// (the kernel delivers exactly the same events in the same order; only
// the resting position of the clock between chunks differs), so enabling
// metrics cannot perturb any experiment table.

// MetricsEvery is the sim-time interval between metric flushes inside a
// single Network.Run call. Zero (the default) flushes only at Run
// boundaries. cmd/experiments and cmd/wlanbench set it alongside
// obs.SetEnabled when -metrics is given, so a long-running point exposes
// live kernel gauges instead of going dark until it finishes.
var MetricsEvery sim.Duration

// obsSnapshot remembers the per-network counter values at the last flush
// so each flush adds only the delta.
type obsSnapshot struct {
	processed     uint64
	transmissions uint64
	fanoutCand    uint64
	fanoutDeliv   uint64
	cacheHits     uint64
	cacheMisses   uint64
	migrations    uint64
}

// flushObs folds kernel and medium counter deltas into the obs registry
// and refreshes the instantaneous gauges. Called on the goroutine that
// owns the network; the registry side is atomic and safe against
// concurrent scrapes.
func (n *Network) flushObs() {
	k := n.kernel
	last := &n.obsLast

	processed := k.Processed()
	events := processed - last.processed
	obs.Sim.Events.Add(events)
	// The kernel pops one event at a time: every event is a size-1 cohort.
	obs.Sim.CohortSize.AddBuckets([]uint64{events}, events)
	last.processed = processed

	obs.Sim.NowNs.Set(int64(k.Now()))
	obs.Sim.HeapDepth.Set(int64(k.HeapDepth()))
	obs.Sim.HeapHighWater.SetMax(int64(k.HeapHighWater()))
	obs.Sim.PoolEvents.Set(int64(k.PoolSize()))
	obs.Sim.PoolFree.Set(int64(k.FreeEvents()))

	m := n.medium
	obs.Medium.Transmissions.Add(m.Transmissions - last.transmissions)
	obs.Medium.FanoutCandidates.Add(m.FanoutCandidates - last.fanoutCand)
	obs.Medium.FanoutDelivered.Add(m.FanoutDelivered - last.fanoutDeliv)
	obs.Medium.LinkCacheHits.Add(m.LinkCacheHits - last.cacheHits)
	obs.Medium.LinkCacheMisses.Add(m.LinkCacheMisses - last.cacheMisses)
	obs.Medium.GridMigrations.Add(m.GridMigrations - last.migrations)
	last.transmissions = m.Transmissions
	last.fanoutCand = m.FanoutCandidates
	last.fanoutDeliv = m.FanoutDelivered
	last.cacheHits = m.LinkCacheHits
	last.cacheMisses = m.LinkCacheMisses
	last.migrations = m.GridMigrations
}

// runObserved is Run's body when metrics are enabled: the same virtual
// span, chunked at MetricsEvery so gauges stay live mid-run. Event
// delivery is byte-identical to the single RunFor call it replaces.
func (n *Network) runObserved(d sim.Duration) {
	deadline := n.kernel.Now().Add(d)
	for {
		next := n.kernel.Now().Add(MetricsEvery)
		if MetricsEvery <= 0 || next > deadline {
			next = deadline
		}
		n.kernel.RunUntil(next)
		n.flushObs()
		if n.kernel.Now() >= deadline || n.kernel.Stopped() {
			return
		}
	}
}
