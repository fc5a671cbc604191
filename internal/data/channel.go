package data

// Flow-level bandwidth contention. A Channel is one shared link of the
// storage hierarchy (the parallel FS's aggregate pipe, one node's NVMe, the
// burst buffer). A transfer is a flow that traverses one or more channels;
// at any instant its rate is the minimum, over its channels, of the
// channel's fair share capacity/nActive. Whenever a flow starts or
// finishes, the System recomputes every active rate and reschedules the
// next completion — the classic flow-level network model, driven entirely
// through the deterministic event engine. A recompute costs
// O(flows + live channels): channels no flow has touched since their
// occupancy last returned to zero are never visited.

import (
	"math"

	"rpgo/internal/metrics"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Channel is one shared-bandwidth link.
type Channel struct {
	name     string
	capacity float64 // bytes/s

	// nActive, share (capacity/nActive) and sumRate are rebuilt on every
	// recompute while the channel is live.
	live    bool
	nActive int
	share   float64
	sumRate float64

	// lastFrac is the last recorded occupancy (sumRate/capacity); the
	// samples list is the step function MeanOccupancy integrates.
	lastFrac float64
	bytes    int64 // total bytes delivered

	samples []occSample
}

type occSample struct {
	t sim.Time
	v float64
}

// Name identifies the channel (e.g. "sharedfs", "nvme:12").
func (c *Channel) Name() string { return c.name }

// Capacity returns the channel bandwidth in bytes/s.
func (c *Channel) Capacity() float64 { return c.capacity }

// Bytes returns the total bytes delivered through the channel so far.
func (c *Channel) Bytes() int64 { return c.bytes }

// note records an occupancy change for the timeline.
func (c *Channel) note(at sim.Time, frac float64) {
	if frac == c.lastFrac {
		return
	}
	c.lastFrac = frac
	c.samples = append(c.samples, occSample{t: at, v: frac})
}

// OccupancySeries returns the bandwidth-occupancy timeline (fraction of
// capacity in use, sampled at every change), downsampled to maxPoints.
func (c *Channel) OccupancySeries(maxPoints int) metrics.Series {
	s := metrics.Series{Name: c.name + ".occupancy"}
	for _, p := range c.samples {
		s.Points = append(s.Points, metrics.Point{T: p.t, V: p.v})
	}
	return metrics.Downsample(s, maxPoints)
}

// MeanOccupancy returns the time-averaged occupancy fraction over
// [start, end], integrating the recorded step function.
func (c *Channel) MeanOccupancy(start, end sim.Time) float64 {
	span := end.Sub(start).Seconds()
	if span <= 0 {
		return 0
	}
	busy := 0.0
	cur := 0.0
	last := start
	for _, p := range c.samples {
		if p.t <= start {
			cur = p.v
			continue
		}
		t := p.t
		if t > end {
			t = end
		}
		busy += cur * t.Sub(last).Seconds()
		last = t
		cur = p.v
		if p.t >= end {
			break
		}
	}
	if last < end {
		busy += cur * end.Sub(last).Seconds()
	}
	return busy / span
}

// flowKind selects what a finished transfer does to the registry.
type flowKind uint8

const (
	flowStage flowKind = iota // shared tier → node: node replica, coalescable
	flowWrite                 // node → tier: node replica and tier presence
	flowTier                  // tier → tier: tier presence, coalescable
)

// flow is one transfer, from the API call to its completion: the setup
// delay, the contention sweeps and the completion callback all carry the
// same record.
type flow struct {
	kind      flowKind
	nch       uint8
	chans     [2]*Channel
	remaining float64 // bytes left
	rate      float64 // bytes/s, current fair share
	dest      spec.StageTier
	tt        transferInfo
	done      func()
	// waiters are the coalesced callers riding this transfer.
	waiters []func()
}

// link appends ch to the channels the flow traverses (nil is no link).
func (f *flow) link(ch *Channel) {
	if ch != nil {
		f.chans[f.nch] = ch
		f.nch++
	}
}

// links returns the channels the flow traverses, in link order.
func (f *flow) links() []*Channel { return f.chans[:f.nch] }

type transferInfo struct {
	uid     string
	dataset string
	task    string
	bytes   int64
	src     string
	dst     string
	node    int
	start   sim.Time
	// contended names the first already-busy channel the flow joined
	// (empty when the flow had every link to itself) — the causal source
	// of any bandwidth stall.
	contended string
}

// advance progresses every flow to the current time.
func (s *System) advance() {
	now := s.eng.Now()
	dt := now.Sub(s.lastT).Seconds()
	if dt > 0 {
		for _, f := range s.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	s.lastT = now
}

// recompute redistributes fair shares and reschedules the next completion.
// It must run at the current time with advance already applied. Only live
// channels are swept: every channel a flow traverses is live, and a
// channel leaves the list in the sweep that notes its occupancy back to
// zero — after which noting zero again would be a no-op, so skipping it
// changes nothing.
func (s *System) recompute() {
	for _, ch := range s.live {
		ch.nActive = 0
		ch.sumRate = 0
	}
	for _, f := range s.flows {
		for _, ch := range f.links() {
			ch.nActive++
		}
	}
	for _, ch := range s.live {
		if ch.nActive > 0 {
			ch.share = ch.capacity / float64(ch.nActive)
		}
	}
	// The next completion is the flow with the least remaining/rate:
	// flowETA is monotone in that ratio, and a drained flow (ratio taken
	// as -1) is due at once.
	var first *flow
	least := math.Inf(1)
	for _, f := range s.flows {
		r := math.Inf(1)
		for _, ch := range f.links() {
			if ch.share < r {
				r = ch.share
			}
		}
		f.rate = r
		for _, ch := range f.links() {
			ch.sumRate += r
		}
		q := -1.0
		if f.remaining > 0 {
			q = f.remaining / r
		}
		if first == nil || q < least {
			first, least = f, q
		}
	}
	now := s.eng.Now()
	kept := s.live[:0]
	for _, ch := range s.live {
		ch.note(now, ch.sumRate/ch.capacity)
		if ch.nActive > 0 {
			kept = append(kept, ch)
		} else {
			ch.live = false
		}
	}
	clear(s.live[len(kept):])
	s.live = kept
	s.timer.Stop()
	if first == nil {
		return
	}
	s.timer = s.eng.After(flowETA(first.remaining, first.rate), s.tickFn)
}

// flowETA converts remaining bytes at a rate to a Duration, never zero so
// virtual time strictly progresses toward completion.
func flowETA(remaining, rate float64) sim.Duration {
	if remaining <= 0 {
		return 0
	}
	d := sim.Seconds(remaining / rate)
	if d <= 0 {
		d = sim.Microsecond
	}
	return d
}

// tick fires at the earliest projected completion: finished flows complete
// (in start order, keeping runs deterministic) and shares redistribute.
func (s *System) tick() {
	s.advance()
	kept := s.flows[:0]
	finished := s.finished[:0]
	for _, f := range s.flows {
		// Tolerate one microsecond's worth of rounding: the engine
		// quantizes time to µs, so a flow within rate·1µs of empty is
		// done.
		if f.remaining <= f.rate*1e-6 {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	clear(s.flows[len(kept):])
	s.flows = kept
	now := s.eng.Now()
	for _, f := range finished {
		s.bytesMoved += f.tt.bytes
		s.cBytes.Add(uint64(f.tt.bytes))
		for _, ch := range f.links() {
			ch.bytes += f.tt.bytes
		}
		s.finishTransfer(f, now)
	}
	if len(finished) > 0 {
		s.gFlows.Set(now, float64(len(s.flows)))
	}
	clear(finished)
	s.finished = finished
	s.recompute()
}
