package main

// Host-side tracing: a span at each layer boundary the harness calls
// through, kept in memory and written out as trace-event JSON when the
// run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"rpgo/internal/obs"
)

// Op phases: the layer calls an op makes, in order. Each is a span whose
// parent is the op's root span.
const (
	phSetup = iota
	phSubmit
	phWait
	phPost
	phBlame
	numPhases
)

var phaseNames = [numPhases]string{"core.setup", "core.submit", "core.wait", "metrics.post", "analytics.blame"}

// opCtx carries one op's clock, and in traced ops its spans and
// self-profiler.
type opCtx struct {
	id     int
	prof   *obs.SelfProfiler // nil in untraced ops
	spans  *spanLog          // nil in untraced ops
	counts bool              // read the exact layer counts after the run
	deep   bool              // run the checks that are not part of every op

	start, end time.Time
	ns         [numPhases]int64
	cur        int // current phase, -1 when none
	mark       time.Time
	root, span int
}

func (o *opCtx) begin() {
	o.start = time.Now()
	o.cur = -1
	o.root = o.spans.begin("op", -1, o.id, o.start)
}

// enter closes the current phase and opens ph.
func (o *opCtx) enter(ph int) {
	now := time.Now()
	o.close(now)
	o.cur, o.mark = ph, now
	o.span = o.spans.begin(phaseNames[ph], o.root, o.id, now)
}

// stop ends the op: everything after it is the harness's own checking.
func (o *opCtx) stop() {
	now := time.Now()
	o.close(now)
	o.cur, o.end = -1, now
	o.spans.finish(o.root, now)
}

func (o *opCtx) close(now time.Time) {
	if o.cur < 0 {
		return
	}
	o.ns[o.cur] += now.Sub(o.mark).Nanoseconds()
	o.spans.finish(o.span, now)
}

// opNs is the op's host time; setupNs the part before the engine first
// runs (session, pilot, task manager and Submit or campaign start).
func (o *opCtx) opNs() int64    { return o.end.Sub(o.start).Nanoseconds() }
func (o *opCtx) setupNs() int64 { return o.ns[phSetup] + o.ns[phSubmit] }

// span is one host interval, in nanoseconds since the log's epoch.
type span struct {
	name       string
	start, end int64
	parent     int // index of the parent span, -1 for a root
	op         int
}

// spanLog keeps spans in memory. A nil log records nothing.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) begin(name string, parent, op int, at time.Time) int {
	if l == nil {
		return -1
	}
	t := at.Sub(l.epoch).Nanoseconds()
	l.spans = append(l.spans, span{name: name, start: t, end: t, parent: parent, op: op})
	return len(l.spans) - 1
}

func (l *spanLog) finish(i int, at time.Time) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = at.Sub(l.epoch).Nanoseconds()
}

// add records a span that is already complete.
func (l *spanLog) add(name string, parent, op int, from, to time.Time) {
	l.finish(l.begin(name, parent, op, from), to)
}

// selfNs returns, per span name, each op's self time: the spans' durations
// minus the part of their intervals that child spans cover.
func (l *spanLog) selfNs() map[string]map[int]int64 {
	children := make(map[int][]int)
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]map[int]int64)
	for i, s := range l.spans {
		self := s.end - s.start - l.covered(s, children[i])
		if out[s.name] == nil {
			out[s.name] = make(map[int]int64)
		}
		out[s.name][s.op] += self
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's.
func (l *spanLog) covered(parent span, kids []int) int64 {
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := l.spans[k]
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as a trace-event JSON document, with the run's
// meta under otherData, and validates the file it wrote.
func (l *spanLog) write(path string, meta map[string]any) error {
	evs := make([]obs.TraceEvent, 0, len(l.spans)+1)
	evs = append(evs, obs.TraceEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "perfbench host spans"},
	})
	for i, s := range l.spans {
		evs = append(evs, obs.TraceEvent{
			Name: s.name, Cat: "perfbench", Ph: "X", Pid: 1, Tid: 1,
			Ts: s.start / 1000, Dur: (s.end - s.start) / 1000,
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
		})
	}
	doc := struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}{evs, meta}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := obs.ValidateTraceEvents(f)
	if err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	if n != len(evs) {
		return fmt.Errorf("span file %s: %d events, wrote %d", path, n, len(evs))
	}
	return nil
}
