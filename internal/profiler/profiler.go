// Package profiler records timestamped lifecycle events, mirroring
// RADICAL-Analytics: every state transition and backend event carries a
// virtual timestamp, and post-mortem analysis derives throughput,
// concurrency and utilization from the trace.
//
// Two representations coexist: a compact per-task record (fixed fields, used
// at scale: the largest experiment traces 229,376 tasks) and an optional
// full event log (arbitrary named events, used by tests and small runs).
package profiler

import (
	"sort"
	"time"

	"rpgo/internal/sim"
)

// EdgeKind classifies a causal wait: what a record was blocked on before it
// could make progress. Kinds map one-to-one onto the blame taxonomy used by
// the critical-path engine (internal/analytics).
type EdgeKind uint8

const (
	// EdgeQueued: the task sat in the backend placement queue behind
	// earlier work (plain FIFO wait; placement never refused it).
	EdgeQueued EdgeKind = iota
	// EdgeStarved: the task was considered by the placer and denied at
	// least once for lack of free slots (placement starvation).
	EdgeStarved
	// EdgeStage: the task waited on its own staging transfer (Ref is the
	// transfer UID).
	EdgeStage
	// EdgeTransfer: the task piggybacked on another task's in-flight
	// transfer of the same dataset (Ref is that transfer's UID).
	EdgeTransfer
	// EdgeService: the task body blocked on an inference call (Ref is the
	// service name).
	EdgeService
	// EdgeRetry: the task was re-dispatched after a failure (Ref is the
	// failure reason); the edge spans the backoff.
	EdgeRetry
	// EdgeBatch: the request was served in a batch formed around an
	// earlier request (Ref is the batch leader's UID).
	EdgeBatch
	// EdgeReplica: the request waited for a serving replica to come free
	// (Ref is the replica UID that eventually served it).
	EdgeReplica
	// EdgeContention: the transfer shared a bandwidth channel with other
	// in-flight transfers (Ref is the contended channel name).
	EdgeContention
	// EdgeFailure: the attempt's work was lost to a failure (Ref is the
	// failure reason); the edge spans the dead attempt's run window, or —
	// terminally, when retries are exhausted — the instant of the final
	// failure.
	EdgeFailure
	// EdgeCheckpoint: the task body blocked on checkpoint traffic — a
	// periodic checkpoint write or a post-relocation restore stage-in
	// (Ref is the transfer UID).
	EdgeCheckpoint
)

var edgeKindNames = [...]string{
	EdgeQueued:     "queued",
	EdgeStarved:    "starved",
	EdgeStage:      "stage",
	EdgeTransfer:   "transfer",
	EdgeService:    "service",
	EdgeRetry:      "retry",
	EdgeBatch:      "batch",
	EdgeReplica:    "replica",
	EdgeContention: "contention",
	EdgeFailure:    "failure",
	EdgeCheckpoint: "checkpoint",
}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return "unknown"
}

// EdgeKindFromString maps a serialized kind name back to its EdgeKind;
// ok=false for names no release ever wrote.
func EdgeKindFromString(s string) (EdgeKind, bool) {
	for k, n := range edgeKindNames {
		if n == s {
			return EdgeKind(k), true
		}
	}
	return 0, false
}

// CausalEdge records one resolved wait: the record holding the edge was
// blocked from From to To on the thing named by Kind/Ref. Edges are emitted
// at the moment the wait resolves and never mutate simulation state.
type CausalEdge struct {
	Kind EdgeKind
	// From is when the wait began, To when it resolved.
	From sim.Time
	To   sim.Time
	// Ref names the blocking entity: a transfer UID, request UID, replica
	// UID, service name, channel name, or retry reason, per Kind.
	Ref string
}

// Wait returns the edge's blocked duration.
func (e CausalEdge) Wait() sim.Duration { return e.To.Sub(e.From) }

// addEdge appends an edge to a lazily-allocated slice. Most records carry a
// handful of edges, so the first append reserves a small capacity to keep
// the steady-state cost at one allocation per record. Retained task traces
// do even better: the profiler pre-slices their Edges out of a chunked
// arena (see Profiler.Task), so appends up to edgeCap are allocation-free.
func addEdge(edges []CausalEdge, e CausalEdge) []CausalEdge {
	if edges == nil {
		edges = make([]CausalEdge, 0, 4)
	}
	return append(edges, e)
}

// edgeCap is the per-task edge capacity carved from the edge arena; tasks
// with more edges spill to a regular heap slice on the fifth append.
const edgeCap = 4

// TaskTrace is the compact per-task record. A negative time means the event
// did not (or has not yet) happened.
type TaskTrace struct {
	UID string
	// Submit is when the client task manager accepted the task.
	Submit sim.Time
	// Scheduled is when the agent scheduler handed it to an executor.
	Scheduled sim.Time
	// Launch is when the backend accepted the launch request.
	Launch sim.Time
	// Start is when the task process began executing.
	Start sim.Time
	// End is when the task process finished.
	End sim.Time
	// Final is when the task reached a terminal RP state.
	Final sim.Time
	// Failed reports whether the terminal state was FAILED.
	Failed bool
	// Backend records which runtime system executed the task.
	Backend string
	// Workflow carries the task's campaign tag for analytics.
	Workflow string
	// Cores and GPUs are the slots the task occupied while running.
	Cores int
	GPUs  int
	// Retries counts executor-level resubmissions.
	Retries int
	// ServiceRequests counts inference requests the task issued;
	// ServiceFailed counts the ones that errored. ServiceWait is the
	// total wall time the task body spent blocked on responses.
	ServiceRequests int
	ServiceFailed   int
	ServiceWait     sim.Duration
	// BytesIn / BytesOut are the bytes the data subsystem actually moved
	// for the task (locality hits move nothing). StageIn / StageOut are
	// the wall times the task spent staging — StageIn on the compute node
	// before its body ran, StageOut writing outputs after it.
	BytesIn  int64
	BytesOut int64
	StageIn  sim.Duration
	StageOut sim.Duration
	// DataHits counts input datasets found already at their destination
	// tier (or on the placement node); DataMisses counts the ones that
	// needed a transfer.
	DataHits   int
	DataMisses int
	// Edges are the resolved causal waits of this task, in resolution
	// order. Golden-fingerprint hashes enumerate fields explicitly, so
	// edges never perturb trace determinism checks.
	Edges []CausalEdge
}

// AddEdge appends one resolved causal wait to the task's record.
func (t *TaskTrace) AddEdge(e CausalEdge) { t.Edges = addEdge(t.Edges, e) }

const unset = sim.Time(-1)

// NewTaskTrace returns a trace with all timestamps unset.
func NewTaskTrace(uid string) *TaskTrace {
	return &TaskTrace{
		UID:       uid,
		Submit:    unset,
		Scheduled: unset,
		Launch:    unset,
		Start:     unset,
		End:       unset,
		Final:     unset,
	}
}

// Ran reports whether the task has both start and end timestamps.
func (t *TaskTrace) Ran() bool { return t.Start >= 0 && t.End >= 0 }

// RequestTrace is the compact per-inference-request record, the
// request-level counterpart of TaskTrace: issue → batch dispatch →
// response. Traces are appended in completion order, which is
// deterministic for a fixed seed.
type RequestTrace struct {
	// UID identifies the request (e.g. "llm.req.000042").
	UID string
	// Service is the endpoint name; Replica the serving replica UID.
	Service string
	Replica string
	// Task is the issuing task's UID, empty for external clients.
	Task string
	// Issued is when the request entered the endpoint queue; Dispatched
	// when its batch started service; Done when the response returned.
	Issued     sim.Time
	Dispatched sim.Time
	Done       sim.Time
	// Batch is the size of the batch that served the request.
	Batch int
	// Failed marks requests that errored (endpoint closed, replica lost
	// beyond recovery).
	Failed bool
	// Edges are the resolved causal waits of this request (batch
	// formation, replica availability).
	Edges []CausalEdge
}

// AddEdge appends one resolved causal wait to the request's record.
func (r *RequestTrace) AddEdge(e CausalEdge) { r.Edges = addEdge(r.Edges, e) }

// Latency returns issue→response, the client-observed request latency.
func (r *RequestTrace) Latency() sim.Duration { return r.Done.Sub(r.Issued) }

// QueueWait returns issue→dispatch, the time spent queued and batching.
func (r *RequestTrace) QueueWait() sim.Duration { return r.Dispatched.Sub(r.Issued) }

// TransferTrace is the compact per-transfer record of the data subsystem:
// one contention-modelled movement of one dataset between two storage
// locations. Traces append in completion order, which is deterministic for
// a fixed seed.
type TransferTrace struct {
	// UID identifies the transfer (e.g. "xfer.000042") so causal edges on
	// tasks can name the exact movement they waited on.
	UID string
	// Dataset is the dataset name; Task the staging task's UID (empty
	// for transfers outside any task).
	Dataset string
	Task    string
	// Bytes is the transferred size.
	Bytes int64
	// Src and Dst name the endpoints (e.g. "sharedfs", "nvme:12").
	Src string
	Dst string
	// Node is the compute node involved, -1 for tier-to-tier transfers.
	Node int
	// Start is when the transfer entered its channels (after setup
	// latency); End when the last byte arrived.
	Start sim.Time
	End   sim.Time
	// Edges are the resolved causal waits of this transfer (channel
	// contention).
	Edges []CausalEdge
}

// AddEdge appends one resolved causal wait to the transfer's record.
func (t *TransferTrace) AddEdge(e CausalEdge) { t.Edges = addEdge(t.Edges, e) }

// Duration returns the transfer's time in the channels.
func (t *TransferTrace) Duration() sim.Duration { return t.End.Sub(t.Start) }

// TraceSink receives completed trace records as the simulation produces
// them: one OnTask per task at its terminal state, one OnTransfer per
// completed data movement, one OnRequest per answered inference request.
// Callbacks run inside engine events and must not schedule new ones.
// Implementations live in internal/obs (Memory, Fold, JSONL).
type TraceSink interface {
	OnTask(*TaskTrace)
	OnTransfer(TransferTrace)
	OnRequest(RequestTrace)
	// Flush finalizes buffered output (spill sinks); the session calls it
	// once the run is over.
	Flush() error
}

// TraceRetainer is an optional TraceSink capability. A sink that reports
// RetainTraces()=false switches the profiler to streaming mode: records are
// handed to the sink and dropped, so trace memory stays O(1) in task count.
// Sinks without the capability retain (the safe default).
type TraceRetainer interface {
	RetainTraces() bool
}

// Event is one record in the full event log.
type Event struct {
	Time   sim.Time
	Entity string // e.g. task UID, "pilot.0000", "flux.3"
	Name   string // e.g. "schedule", "exec_start", "bootstrap_done"
	Info   string // free-form detail
}

// Profiler collects traces and events for one session.
type Profiler struct {
	traces map[string]*TaskTrace
	order  []*TaskTrace
	// arena chunks TaskTrace storage so tracing n tasks costs n/chunk
	// allocations instead of n (the largest campaigns trace >200k tasks).
	arena []TaskTrace
	// edgeArena chunks the Edges backing storage the same way: every
	// retained trace starts with an edgeCap-capacity slice carved from a
	// shared chunk, so causal emitters append without allocating.
	edgeArena []CausalEdge

	// sink observes completed records; retain controls whether the
	// profiler also keeps them (streaming sinks turn retention off).
	sink   TraceSink
	retain bool
	nTasks int

	// Phase, when set, receives one sim.PhaseSinkFold wall-clock sample per
	// sink callback — the self-profiler's view of how much real time the
	// streaming sinks (folds, spills, blame) cost the run.
	Phase sim.PhaseFunc

	// RecordEvents enables the full event log; compact traces are always
	// collected.
	RecordEvents bool
	events       []Event

	requests  []RequestTrace
	transfers []TransferTrace
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{traces: make(map[string]*TaskTrace), retain: true}
}

// SetSink routes completed records through s (nil restores the default
// retain-only behavior). Retention follows the sink's TraceRetainer
// capability: sinks without it keep today's in-memory traces.
func (p *Profiler) SetSink(s TraceSink) {
	p.sink = s
	p.retain = true
	if s != nil {
		if r, ok := s.(TraceRetainer); ok {
			p.retain = r.RetainTraces()
		}
	}
}

// Sink returns the active trace sink, nil by default.
func (p *Profiler) Sink() TraceSink { return p.sink }

// Retain reports whether the profiler keeps records in memory; false means
// a streaming sink owns them (Tasks/Requests/Transfers stay empty).
func (p *Profiler) Retain() bool { return p.retain }

// Flush finalizes the sink's buffered output; a no-op without a sink.
func (p *Profiler) Flush() error {
	if p.sink != nil {
		return p.sink.Flush()
	}
	return nil
}

// Task returns (creating if needed) the compact trace for uid.
func (p *Profiler) Task(uid string) *TaskTrace {
	if t, ok := p.traces[uid]; ok {
		return t
	}
	p.nTasks++
	if !p.retain {
		// Streaming mode: the trace lives only until TaskFinal hands it
		// to the sink. No arena (its chunks would pin memory), no order.
		t := NewTaskTrace(uid)
		p.traces[uid] = t
		return t
	}
	if len(p.arena) == 0 {
		p.arena = make([]TaskTrace, 512)
	}
	t := &p.arena[0]
	p.arena = p.arena[1:]
	*t = TaskTrace{
		UID:       uid,
		Submit:    unset,
		Scheduled: unset,
		Launch:    unset,
		Start:     unset,
		End:       unset,
		Final:     unset,
	}
	if len(p.edgeArena) < edgeCap {
		p.edgeArena = make([]CausalEdge, 512*edgeCap)
	}
	t.Edges = p.edgeArena[:0:edgeCap]
	p.edgeArena = p.edgeArena[edgeCap:]
	p.traces[uid] = t
	p.order = append(p.order, t)
	return t
}

// TaskFinal notifies the profiler that a task's trace reached its terminal
// state: the sink observes the completed record, and in streaming mode the
// profiler then drops its own reference so trace memory stays bounded.
// (Callers may keep using the pointer; only the index entry is released.)
func (p *Profiler) TaskFinal(t *TaskTrace) {
	if p.sink != nil {
		var t0 time.Time
		if p.Phase != nil {
			t0 = time.Now()
		}
		p.sink.OnTask(t)
		if p.Phase != nil {
			p.Phase(sim.PhaseSinkFold, time.Since(t0).Nanoseconds())
		}
	}
	if !p.retain {
		delete(p.traces, t.UID)
	}
}

// TaskRelease drops the profiler's index entry for uid without the final
// notification. Sharded sessions need it: the client profiler registers
// every trace (so merged output keeps submission order) but TaskFinal fires
// on the owning pilot's domain profiler, so in streaming mode the client's
// map entry would otherwise leak. No-op in retain mode.
func (p *Profiler) TaskRelease(uid string) {
	if !p.retain {
		delete(p.traces, uid)
	}
}

// Tasks returns all traces in submission order (empty in streaming mode).
func (p *Profiler) Tasks() []*TaskTrace { return p.order }

// NumTasks returns the number of traced tasks, retained or streamed.
func (p *Profiler) NumTasks() int { return p.nTasks }

// Request appends one completed inference-request trace.
func (p *Profiler) Request(rt RequestTrace) {
	if p.sink != nil {
		var t0 time.Time
		if p.Phase != nil {
			t0 = time.Now()
		}
		p.sink.OnRequest(rt)
		if p.Phase != nil {
			p.Phase(sim.PhaseSinkFold, time.Since(t0).Nanoseconds())
		}
	}
	if !p.retain {
		return
	}
	p.requests = append(p.requests, rt)
}

// Requests returns all request traces in completion order.
func (p *Profiler) Requests() []RequestTrace { return p.requests }

// RequestsFor returns the request traces against one service endpoint.
func (p *Profiler) RequestsFor(service string) []RequestTrace {
	var out []RequestTrace
	for _, r := range p.requests {
		if r.Service == service {
			out = append(out, r)
		}
	}
	return out
}

// Transfer appends one completed data-transfer trace.
func (p *Profiler) Transfer(tt TransferTrace) {
	if p.sink != nil {
		var t0 time.Time
		if p.Phase != nil {
			t0 = time.Now()
		}
		p.sink.OnTransfer(tt)
		if p.Phase != nil {
			p.Phase(sim.PhaseSinkFold, time.Since(t0).Nanoseconds())
		}
	}
	if !p.retain {
		return
	}
	p.transfers = append(p.transfers, tt)
}

// Transfers returns all transfer traces in completion order.
func (p *Profiler) Transfers() []TransferTrace { return p.transfers }

// TransfersFor returns the transfer traces of one dataset.
func (p *Profiler) TransfersFor(dataset string) []TransferTrace {
	var out []TransferTrace
	for _, t := range p.transfers {
		if t.Dataset == dataset {
			out = append(out, t)
		}
	}
	return out
}

// Log appends an event to the full log when enabled.
func (p *Profiler) Log(at sim.Time, entity, name, info string) {
	if !p.RecordEvents {
		return
	}
	p.events = append(p.events, Event{Time: at, Entity: entity, Name: name, Info: info})
}

// Events returns the full event log.
func (p *Profiler) Events() []Event { return p.events }

// EventsFor returns the logged events for one entity, in time order.
func (p *Profiler) EventsFor(entity string) []Event {
	var out []Event
	for _, e := range p.events {
		if e.Entity == entity {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
