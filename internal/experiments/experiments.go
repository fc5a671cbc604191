// Package experiments defines and runs the paper's seven experiments
// (Table 1): srun, flux_1, flux_n, dragon, flux+dragon, impeccable_srun and
// impeccable_flux, plus the Fig 7 instance-overhead measurement. Each
// runner executes repetitions of a full RADICAL-Pilot session on the
// simulated platform and derives the paper's metrics (throughput,
// utilization, overhead, makespan, timeline series).
package experiments

import (
	"fmt"
	"math"

	"rpgo/internal/campaign"
	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// CoresPerNode is Frontier's usable core count (cpn in Table 1).
const CoresPerNode = 56

// WorkloadKind selects the synthetic workload family.
type WorkloadKind int

const (
	// Null tasks return immediately (middleware stress).
	Null WorkloadKind = iota
	// Dummy tasks sleep for TaskSeconds (saturation / utilization).
	Dummy
	// MixedExecFunc interleaves executable and function sleep tasks
	// (Experiment flux+dragon).
	MixedExecFunc
)

func (k WorkloadKind) String() string {
	switch k {
	case Null:
		return "null"
	case Dummy:
		return "dummy"
	case MixedExecFunc:
		return "exec+func"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// ThroughputConfig parameterizes one throughput experiment cell.
type ThroughputConfig struct {
	// Name labels the experiment (e.g. "flux_1").
	Name string
	// Nodes is the pilot size.
	Nodes int
	// Partitions lays out backend instances (empty → srun default).
	Partitions []spec.PartitionConfig
	// Workload and TaskSeconds follow Table 1.
	Workload    WorkloadKind
	TaskSeconds float64
	// Tasks overrides the task count; zero uses nodes*cpn*4 (Table 1).
	Tasks int
	// Seed and Reps control repetitions; each rep r uses Seed+r.
	Seed uint64
	Reps int
	// Params overrides the model constants (ablations); nil = default.
	Params *model.Params
	// Sink, when set, builds a per-repetition trace sink (repetitions run
	// concurrently, so they cannot share one). With a non-retaining sink
	// the profiler streams instead of retaining and the RepResult summary
	// fields stay zero — read the sink's folds instead.
	Sink func(rep int) profiler.TraceSink
}

// RepResult is the outcome of a single repetition.
type RepResult struct {
	Throughput metrics.Throughput
	CPUUtil    float64
	Makespan   sim.Duration
	Failed     int
}

// ThroughputResult aggregates repetitions of one cell.
type ThroughputResult struct {
	Config ThroughputConfig
	Reps   []RepResult
	// AvgTput is the mean over repetitions of the per-rep average
	// throughput; MaxTput is the best repetition (the paper reports both
	// "average" and "maximum" rates).
	AvgTput float64
	MaxTput float64
	// PeakWindow is the highest 1 s-window start count seen in any rep.
	PeakWindow float64
	// MeanUtil is the mean CPU utilization over repetitions.
	MeanUtil float64
	// MeanMakespan is the mean workload makespan.
	MeanMakespan sim.Duration
}

// taskCount returns the Table-1 task count for the cell.
func (c *ThroughputConfig) taskCount() int {
	if c.Tasks > 0 {
		return c.Tasks
	}
	return workload.FullDensityCount(c.Nodes, CoresPerNode)
}

// buildWorkload materializes the cell's task list.
func (c *ThroughputConfig) buildWorkload() []*spec.TaskDescription {
	n := c.taskCount()
	d := sim.Seconds(c.TaskSeconds)
	switch c.Workload {
	case Null:
		return workload.Null(n)
	case Dummy:
		return workload.Dummy(n, d)
	case MixedExecFunc:
		return workload.Mixed(n/2, n-n/2, d)
	default:
		panic("experiments: unknown workload kind")
	}
}

// RunThroughput executes all repetitions of one cell. Repetitions are
// independent sessions with index-derived seeds, so they run on the
// RunCells worker pool; aggregation folds the results in repetition order,
// keeping every statistic identical to a serial run.
func RunThroughput(cfg ThroughputConfig) ThroughputResult {
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	res := ThroughputResult{Config: cfg}
	res.Reps = make([]RepResult, cfg.Reps)
	RunCells(cfg.Reps, func(r int) {
		res.Reps[r] = runThroughputRep(cfg, r, cfg.Seed+uint64(r))
	})
	var utilSum float64
	var makespanSum sim.Duration
	for _, rep := range res.Reps {
		res.AvgTput += rep.Throughput.Avg
		if rep.Throughput.Avg > res.MaxTput {
			res.MaxTput = rep.Throughput.Avg
		}
		if rep.Throughput.Peak > res.PeakWindow {
			res.PeakWindow = rep.Throughput.Peak
		}
		utilSum += rep.CPUUtil
		makespanSum += rep.Makespan
	}
	res.AvgTput /= float64(cfg.Reps)
	res.MeanUtil = utilSum / float64(cfg.Reps)
	res.MeanMakespan = makespanSum / sim.Duration(cfg.Reps)
	return res
}

func runThroughputRep(cfg ThroughputConfig, repIdx int, seed uint64) RepResult {
	var sink profiler.TraceSink
	if cfg.Sink != nil {
		sink = cfg.Sink(repIdx)
	}
	sess := core.NewSession(core.Config{Seed: seed, Params: cfg.Params, Sink: sink})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      cfg.Nodes,
		SMT:        1,
		Partitions: cfg.Partitions,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", cfg.Name, err))
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(cfg.buildWorkload())
	if err := tm.Wait(); err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", cfg.Name, err))
	}
	tasks := sess.Profiler.Tasks()
	var rep RepResult
	rep.Throughput = metrics.ThroughputOf(tasks)
	rep.Makespan = metrics.Makespan(tasks)
	start, end := execWindow(tasks)
	rep.CPUUtil = metrics.Utilization(tasks, cfg.Nodes*CoresPerNode, start, end)
	for _, tr := range tasks {
		if tr.Failed {
			rep.Failed++
		}
	}
	return rep
}

// execWindow returns [first start, last end] over all tasks that ran.
func execWindow(tasks []*profiler.TaskTrace) (sim.Time, sim.Time) {
	var first, last sim.Time = -1, -1
	for _, tr := range tasks {
		if !tr.Ran() {
			continue
		}
		if first < 0 || tr.Start < first {
			first = tr.Start
		}
		if tr.End > last {
			last = tr.End
		}
	}
	if first < 0 {
		return 0, 0
	}
	return first, last
}

// FluxPartitions returns a flux layout with k instances.
func FluxPartitions(k int) []spec.PartitionConfig {
	return []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: k}}
}

// DragonPartitions returns a dragon layout with k instances.
func DragonPartitions(k int) []spec.PartitionConfig {
	return []spec.PartitionConfig{{Backend: spec.BackendDragon, Instances: k}}
}

// HybridPartitions returns the flux+dragon layout with k instances per
// runtime and the node split halved between them.
func HybridPartitions(k int) []spec.PartitionConfig {
	return []spec.PartitionConfig{
		{Backend: spec.BackendFlux, Instances: k, NodeShare: 0.5},
		{Backend: spec.BackendDragon, Instances: k, NodeShare: 0.5},
	}
}

// --- Experiment definitions (Table 1) ---

// SrunCell builds Experiment srun at a node count (Table 1 row 1: null and
// dummy(180 s), 4-node pilot in the paper, swept 1–8 for Fig 5a).
func SrunCell(nodes int, wl WorkloadKind, seed uint64, reps int) ThroughputConfig {
	secs := 180.0
	if wl == Null {
		secs = 0
	}
	return ThroughputConfig{
		Name: "srun", Nodes: nodes,
		Workload: wl, TaskSeconds: secs,
		Seed: seed, Reps: reps,
	}
}

// Flux1Cell builds Experiment flux_1 (single instance; Table 1 lists both
// null and dummy(360 s) — throughput is measured on null runs, utilization
// on dummy runs).
func Flux1Cell(nodes int, wl WorkloadKind, seed uint64, reps int) ThroughputConfig {
	secs := 360.0
	if wl == Null {
		secs = 0
	}
	return ThroughputConfig{
		Name: "flux_1", Nodes: nodes, Partitions: FluxPartitions(1),
		Workload: wl, TaskSeconds: secs,
		Seed: seed, Reps: reps,
	}
}

// FluxNCell builds Experiment flux_n (k instances; null for throughput,
// dummy(180 s) for utilization).
func FluxNCell(nodes, instances int, wl WorkloadKind, seed uint64, reps int) ThroughputConfig {
	secs := 180.0
	if wl == Null {
		secs = 0
	}
	return ThroughputConfig{
		Name: fmt.Sprintf("flux_%d", instances), Nodes: nodes,
		Partitions: FluxPartitions(instances),
		Workload:   wl, TaskSeconds: secs,
		Seed: seed, Reps: reps,
	}
}

// DragonCell builds Experiment dragon (single runtime, exec tasks; null
// for throughput, dummy(180 s) for utilization).
func DragonCell(nodes int, wl WorkloadKind, seed uint64, reps int) ThroughputConfig {
	secs := 180.0
	if wl == Null {
		secs = 0
	}
	return ThroughputConfig{
		Name: "dragon", Nodes: nodes, Partitions: DragonPartitions(1),
		Workload: wl, TaskSeconds: secs,
		Seed: seed, Reps: reps,
	}
}

// HybridCell builds Experiment flux+dragon (k instances per runtime, mixed
// exec+func tasks; zero-duration for throughput, dummy(360 s) for
// utilization).
func HybridCell(nodes, instancesPerRuntime int, taskSeconds float64, seed uint64, reps int) ThroughputConfig {
	return ThroughputConfig{
		Name: "flux+dragon", Nodes: nodes,
		Partitions: HybridPartitions(instancesPerRuntime),
		Workload:   MixedExecFunc, TaskSeconds: taskSeconds,
		Seed: seed, Reps: reps,
	}
}

// --- IMPECCABLE (Experiments impeccable_srun / impeccable_flux) ---

// ImpeccableConfig parameterizes a campaign run: one IMPECCABLE campaign
// per pilot, each sized to its node share, on a sharded session.
type ImpeccableConfig struct {
	// Nodes is the TOTAL node count, split evenly over the pilots.
	Nodes int
	// Pilots is the pilot count (≤0 means 1). One pilot shares the
	// client's domain; Pilots≥2 places each pilot in its own partition
	// domain.
	Pilots int
	// Shards is the worker count for the sharded engine (≤0 means 1).
	Shards  int
	Backend spec.Backend // BackendSrun or BackendFlux
	Seed    uint64
	// Params overrides model constants; nil = default.
	Params *model.Params
	// MaxIters caps pipeline iterations (tests); zero = full campaign.
	MaxIters int
	// Sink, when set, builds each domain's trace sink. With non-retaining
	// sinks the profilers stream instead of retaining: Traces comes back
	// empty and the trace-derived summary fields stay zero — read the
	// sinks' folds instead.
	Sink func(domain int) profiler.TraceSink
	// Profile, when set, self-profiles the run's wall-clock phases across
	// all domains; nil leaves every hook unset.
	Profile *obs.SelfProfiler
	// Monitor, when set, is attached to the sharded coordinator's window
	// barrier, fed the merged live snapshot and campaign progress, and
	// published once at the end of the run.
	Monitor *obs.Monitor
}

// ImpeccableResult captures a campaign run (one repetition — the paper's
// Fig 8 shows single runs).
type ImpeccableResult struct {
	Config   ImpeccableConfig
	Tasks    int
	Failed   int
	Makespan sim.Duration
	// Traces are the merged per-task records in submission order (empty
	// in streaming mode).
	Traces  []*profiler.TaskTrace
	CPUUtil float64
	GPUUtil float64
	// Concurrency and StartRate are the Fig 8 series (green / red).
	Concurrency metrics.Series
	StartRate   metrics.Series
	// PeakConcurrency is the maximum running-task count.
	PeakConcurrency float64
	// MeanStartRate is the average nonzero start rate.
	MeanStartRate float64
	// Windows / CrossEvents / Shards report the sharded engine's work.
	Windows     uint64
	CrossEvents uint64
	Shards      int
	// BarrierStallNs is total wall-clock time shards spent waiting at
	// window barriers; LookaheadEff is the measured sim-time advanced per
	// barrier relative to the lookahead (≥1; higher = fewer barriers per
	// unit of simulated time).
	BarrierStallNs int64
	LookaheadEff   float64
	// ShardStats are the final per-shard window/traffic counters.
	ShardStats []obs.ShardRecord
}

// RunImpeccable executes the campaign end to end and merges the per-pilot
// results. The trace is identical at every shard count.
func RunImpeccable(cfg ImpeccableConfig) ImpeccableResult {
	if cfg.Pilots < 1 {
		cfg.Pilots = 1
	}
	domains := 1
	if cfg.Pilots > 1 {
		domains = cfg.Pilots + 1
	}
	ss := core.NewShardedSession(core.ShardedConfig{
		Seed:    cfg.Seed,
		Params:  cfg.Params,
		Domains: domains,
		Shards:  cfg.Shards,
		Sink:    cfg.Sink,
		Profile: cfg.Profile,
	})
	if cfg.Monitor != nil {
		cfg.Monitor.AttachSharded(ss.Eng)
		cfg.Monitor.SetSource(ss.LiveSnapshot)
	}
	var parts []spec.PartitionConfig
	switch cfg.Backend {
	case spec.BackendSrun:
		parts = nil // RP default executor
	case spec.BackendFlux:
		parts = FluxPartitions(1)
	default:
		panic("experiments: impeccable backend must be srun or flux")
	}
	split := []int{cfg.Nodes}
	if cfg.Pilots > 1 {
		split = platform.SplitNodes(cfg.Nodes, cfg.Pilots)
	}
	tms := make([]*core.TaskManager, cfg.Pilots)
	camps := make([]*campaign.Campaign, cfg.Pilots)
	for i := 0; i < cfg.Pilots; i++ {
		pd := spec.PilotDescription{Nodes: split[i], SMT: 1, Partitions: parts}
		domain := 0
		ccfg := campaign.Config{Nodes: split[i], MaxIters: cfg.MaxIters, MaxRetries: 2}
		if cfg.Pilots > 1 {
			domain = i + 1
			// Distinct pilot UIDs (each domain numbers its own pilots from
			// zero) and decorrelated adaptive-sizing streams per campaign.
			pd.UID = fmt.Sprintf("pilot.%04d", i)
			ccfg.SizingStream = fmt.Sprintf("campaign.adaptive.p%02d", i)
		}
		pilot, err := ss.SubmitPilot(domain, pd)
		if err != nil {
			panic(fmt.Sprintf("experiments: impeccable: %v", err))
		}
		tm := ss.TaskManager(pilot)
		camp := campaign.New(ccfg, ss.Client(), tm)
		if err := camp.Start(); err != nil {
			panic(fmt.Sprintf("experiments: impeccable: %v", err))
		}
		tms[i] = tm
		camps[i] = camp
	}
	if cfg.Monitor != nil {
		// The heartbeat fires on the coordinator after the window barrier,
		// when every domain is quiescent, so summing live task-manager
		// counters here is safe.
		cfg.Monitor.SetProgress(func() (int, int) {
			done, total := 0, 0
			for _, tm := range tms {
				done += tm.FinalCount()
				total += tm.SubmittedCount()
			}
			return done, total
		})
	}
	// The first Wait drives the sharded engine to global quiescence; the
	// rest only verify their own completion counts.
	for _, tm := range tms {
		if err := tm.Wait(); err != nil {
			panic(fmt.Sprintf("experiments: impeccable: %v", err))
		}
	}
	cfg.Monitor.Publish()

	tasks := ss.Tasks()
	start, end := execWindow(tasks)
	res := ImpeccableResult{
		Config:         cfg,
		Tasks:          len(tasks),
		Makespan:       metrics.Makespan(tasks),
		CPUUtil:        metrics.Utilization(tasks, cfg.Nodes*CoresPerNode, start, end),
		GPUUtil:        metrics.UtilizationGPU(tasks, cfg.Nodes*8, start, end),
		Concurrency:    metrics.ConcurrencySeries(tasks, 400),
		StartRate:      metrics.RateSeries(tasks, 30*sim.Second, 400),
		Traces:         tasks,
		Windows:        ss.Eng.Windows(),
		CrossEvents:    ss.Eng.CrossEvents(),
		Shards:         ss.Eng.Shards(),
		BarrierStallNs: ss.Eng.BarrierStallNs(),
		LookaheadEff:   ss.Eng.LookaheadEfficiency(),
		ShardStats:     obs.ShardRecords(ss.Eng),
	}
	for _, camp := range camps {
		res.Failed += camp.TotalFailed()
	}
	res.PeakConcurrency = res.Concurrency.Max()
	res.MeanStartRate = res.StartRate.Mean()
	return res
}

// --- Instance bootstrap overheads (Fig 7) ---

// OverheadResult is one (backend, nodes) bootstrap measurement.
type OverheadResult struct {
	Backend spec.Backend
	Nodes   int
	// Mean and Min/Max over repetitions, in seconds.
	Mean, Min, Max float64
}

// RunOverheads measures instance bootstrap for both backends across sizes.
func RunOverheads(sizes []int, seed uint64, reps int) []OverheadResult {
	var out []OverheadResult
	for _, backend := range []spec.Backend{spec.BackendFlux, spec.BackendDragon} {
		for _, n := range sizes {
			r := OverheadResult{Backend: backend, Nodes: n, Min: math.Inf(1)}
			for rep := 0; rep < reps; rep++ {
				sess := core.NewSession(core.Config{Seed: seed + uint64(rep)})
				pilot, err := sess.SubmitPilot(spec.PilotDescription{
					Nodes: n, SMT: 1,
					Partitions: []spec.PartitionConfig{{Backend: backend, Instances: 1}},
				})
				if err != nil {
					panic(err)
				}
				sess.Run()
				ls := pilot.Agent.Launchers()
				if len(ls) != 1 {
					panic("experiments: expected one launcher")
				}
				d := ls[0].BootstrapOverhead().Seconds()
				r.Mean += d
				if d < r.Min {
					r.Min = d
				}
				if d > r.Max {
					r.Max = d
				}
			}
			r.Mean /= float64(reps)
			out = append(out, r)
		}
	}
	return out
}
