package main

// The four workloads. Each one turns the workload seed into a pool of op
// inputs before timing starts, and runs one op — a full simulated session:
// set-up, run and post-run analysis — through the public APIs of core,
// campaign, workload, metrics, analytics and obs, with the configurations
// of the experiments runners. Output checks run after the op's clock stops.

import (
	"fmt"

	"rpgo/internal/analytics"
	"rpgo/internal/campaign"
	"rpgo/internal/core"
	"rpgo/internal/experiments"
	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// srunCeiling is Frontier's per-allocation srun concurrency limit; the
// Slurm controller's high-water mark must never exceed it.
const srunCeiling = 112

// input is one op's generated input. Ops cycle through a workload's pool,
// so every re-run of an input must reproduce its first run exactly.
type input struct {
	index  int
	path   string // launch path: srun, flux, flux_n, dragon, flux_dragon, prrte
	policy spec.PlacementPolicy
	seed   uint64
	// tasks is the pre-built task list of task-list workloads (nil for
	// campaigns, which generate their own). UIDs are assigned up front, so
	// Submit never writes to the shared descriptions.
	tasks []*spec.TaskDescription
}

// simStats are the paper's simulated metrics of one op. For a given input
// they are fixed by the model; any difference between runs is a failure.
type simStats struct {
	Tasks      int
	MakespanS  float64
	TasksPerS  float64
	CPUUtilPct float64
}

// opResult is what one op reports back to the harness.
type opResult struct {
	path  string
	tasks int // tasks brought to a final state
	sim   simStats
	// counts are the exact per-layer counts, read after the run (only when
	// opCtx.counts is set).
	counts map[string]float64
	// Host-time layer readings that are not spans: self-profiler phases
	// and sharded-engine telemetry.
	dispatchNs, placementNs, sinkFoldNs int64
	barrierNs, exchangeNs               int64
	busySkew                            float64
}

// scale sizes a workload; tests use a tiny one.
type scale struct {
	fig8Nodes     int
	nullNodes     int
	shardedNodes  int
	shardedPilots int
	ckptNodes     int
	ckptShards    int
	ckptPerShard  int
	// Pool sizes: the number of distinct op inputs (ckpt: of seeds, each
	// run under both placements). More inputs average a run over more seeds
	// of the model's random draws, and op_host_ms_p90, taken over the
	// inputs, needs 100 of them to have ten beyond it.
	fig8Pool, nullPool, shardedPool, ckptPool int
}

var fullScale = scale{
	fig8Nodes: 1024, nullNodes: 16,
	shardedNodes: 65536, shardedPilots: 16,
	ckptNodes: 16, ckptShards: 16, ckptPerShard: 16,
	fig8Pool: 104, nullPool: 100, shardedPool: 4, ckptPool: 52,
}

var smokeScale = scale{
	fig8Nodes: 64, nullNodes: 2,
	shardedNodes: 256, shardedPilots: 4,
	ckptNodes: 4, ckptShards: 4, ckptPerShard: 4,
	fig8Pool: 4, nullPool: 5, shardedPool: 1, ckptPool: 4,
}

// workloadDef names a workload and binds its input generator and op.
type workloadDef struct {
	name   string
	inputs func(seed uint64, sc scale) []*input
	run    func(in *input, sc scale, o *opCtx) (opResult, error)
}

var workloads = []workloadDef{
	{"fig8_impeccable", fig8Inputs, runFig8},
	{"null_launch_mix", nullInputs, runNull},
	{"sharded_fig8", shardedInputs, runSharded},
	{"ckpt_failures", ckptInputs, runCkpt},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// opSeeds draws n session seeds from the workload seed's own stream.
func opSeeds(seed uint64, name string, n int) []uint64 {
	st := rng.New(seed).Stream("perfbench." + name)
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(st.Intn(1<<30)) + 1
	}
	return out
}

// presetUIDs gives descriptions the identifiers Submit would assign in a
// fresh session ("task.%06d" from zero), so submission leaves them as is.
func presetUIDs(tds []*spec.TaskDescription) []*spec.TaskDescription {
	for i, td := range tds {
		td.UID = fmt.Sprintf("task.%06d", i)
	}
	return tds
}

// --- fig8_impeccable ---

// fig8Slots alternates the two launch paths of Fig 8.
var fig8Slots = []string{"srun", "flux"}

func fig8Inputs(seed uint64, sc scale) []*input {
	seeds := opSeeds(seed, "fig8_impeccable", sc.fig8Pool)
	ins := make([]*input, len(seeds))
	for i, s := range seeds {
		ins[i] = &input{index: i, path: fig8Slots[i%len(fig8Slots)], seed: s}
	}
	return ins
}

func fig8Partitions(path string) []spec.PartitionConfig {
	if path == "flux" {
		return experiments.FluxPartitions(1)
	}
	return nil // RP default executor: srun
}

// runFig8 mirrors experiments.RunImpeccable: one pilot, the adaptive
// IMPECCABLE campaign, the Fig 8 series and the blame decomposition.
func runFig8(in *input, sc scale, o *opCtx) (opResult, error) {
	nodes := sc.fig8Nodes
	o.enter(phSetup)
	sess := core.NewSession(core.Config{Seed: in.seed, Profile: o.prof})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: nodes, SMT: 1, Partitions: fig8Partitions(in.path),
	})
	if err != nil {
		return opResult{}, err
	}
	tm := sess.TaskManager(pilot)
	o.enter(phSubmit)
	camp := campaign.New(campaign.Config{Nodes: nodes, MaxRetries: 2}, sess, tm)
	if err := camp.Start(); err != nil {
		return opResult{}, err
	}
	o.enter(phWait)
	if err := tm.Wait(); err != nil {
		return opResult{}, err
	}
	o.enter(phPost)
	tasks := sess.Profiler.Tasks()
	start, end := execWindow(tasks)
	makespan := metrics.Makespan(tasks)
	cpu := metrics.Utilization(tasks, nodes*experiments.CoresPerNode, start, end)
	metrics.UtilizationGPU(tasks, nodes*8, start, end)
	metrics.ConcurrencySeries(tasks, 400)
	metrics.RateSeries(tasks, 30*sim.Second, 400)
	o.enter(phBlame)
	rep := analytics.BlameFromTraces(tasks)
	o.stop()

	res := opResult{path: in.path, tasks: tm.FinalCount(), sim: statsOf(len(tasks), makespan, cpu)}
	if err := checkSession(tm, camp.TotalSubmitted(), tasks, []*core.Session{sess}); err != nil {
		return res, err
	}
	if err := checkBlame(rep, makespan); err != nil {
		return res, err
	}
	if o.counts {
		res.counts = sessionCounts(sess.LiveSnapshot(), sess.Profiler, []*campaign.Campaign{camp})
	}
	res.readProfile(o.prof)
	return res, nil
}

// --- null_launch_mix ---

// nullSlots is the fixed launch-path rotation.
var nullSlots = []string{"srun", "flux_n", "dragon", "flux_dragon", "prrte"}

// nullInstances is the instance count of flux_n and, per runtime, of
// flux+dragon.
const nullInstances = 4

// nullCell returns the experiments cell of a launch path at n nodes.
func nullCell(path string, nodes int) experiments.ThroughputConfig {
	k := min(nullInstances, nodes)
	switch path {
	case "srun":
		return experiments.SrunCell(nodes, experiments.Null, 0, 1)
	case "flux_n":
		return experiments.FluxNCell(nodes, k, experiments.Null, 0, 1)
	case "dragon":
		return experiments.DragonCell(nodes, experiments.Null, 0, 1)
	case "flux_dragon":
		return experiments.HybridCell(nodes, max(1, min(k, nodes/2)), 0, 0, 1)
	case "prrte":
		return experiments.ThroughputConfig{
			Name: "prrte", Nodes: nodes, Workload: experiments.Null,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendPRRTE, Instances: 1}},
		}
	}
	panic("perfbench: unknown launch path " + path)
}

// nullTasks builds a path's Table 1 task list: nodes×56×4 zero-duration
// tasks (half executables, half functions on flux+dragon).
func nullTasks(path string, nodes int) []*spec.TaskDescription {
	n := workload.FullDensityCount(nodes, experiments.CoresPerNode)
	if path == "flux_dragon" {
		return presetUIDs(workload.Mixed(n/2, n-n/2, 0))
	}
	return presetUIDs(workload.Null(n))
}

func nullInputs(seed uint64, sc scale) []*input {
	seeds := opSeeds(seed, "null_launch_mix", sc.nullPool)
	lists := map[string][]*spec.TaskDescription{}
	ins := make([]*input, len(seeds))
	for i, s := range seeds {
		path := nullSlots[i%len(nullSlots)]
		if lists[path] == nil {
			lists[path] = nullTasks(path, sc.nullNodes)
		}
		ins[i] = &input{index: i, path: path, seed: s, tasks: lists[path]}
	}
	return ins
}

// runNull mirrors the experiments throughput rep with an obs.Fold sink:
// the streaming path, with the simulated metrics read from the fold.
func runNull(in *input, sc scale, o *opCtx) (opResult, error) {
	cell := nullCell(in.path, sc.nullNodes)
	o.enter(phSetup)
	fold := obs.NewFold()
	sess := core.NewSession(core.Config{Seed: in.seed, Sink: fold, Profile: o.prof})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: cell.Nodes, SMT: 1, Partitions: cell.Partitions,
	})
	if err != nil {
		return opResult{}, err
	}
	tm := sess.TaskManager(pilot)
	o.enter(phSubmit)
	tm.Submit(in.tasks)
	o.enter(phWait)
	if err := tm.Wait(); err != nil {
		return opResult{}, err
	}
	o.enter(phPost)
	makespan := fold.Makespan()
	cpu := fold.Utilization(cell.Nodes * experiments.CoresPerNode)
	o.stop()

	res := opResult{path: in.path, tasks: tm.FinalCount(), sim: statsOf(fold.Tasks(), makespan, cpu)}
	if err := checkSession(tm, len(in.tasks), nil, []*core.Session{sess}); err != nil {
		return res, err
	}
	if fold.Tasks() != len(in.tasks) {
		return res, fmt.Errorf("fold saw %d final tasks, submitted %d", fold.Tasks(), len(in.tasks))
	}
	if o.counts {
		res.counts = sessionCounts(sess.LiveSnapshot(), sess.Profiler, nil)
	}
	res.readProfile(o.prof)
	return res, nil
}

// --- sharded_fig8 ---

// shardedShards pins the sharded engine's worker count so results taken on
// hosts with different core counts stay comparable.
const shardedShards = 2

func shardedInputs(seed uint64, sc scale) []*input {
	seeds := opSeeds(seed, "sharded_fig8", sc.shardedPool)
	ins := make([]*input, len(seeds))
	for i, s := range seeds {
		ins[i] = &input{index: i, path: "flux", seed: s}
	}
	return ins
}

// runSharded mirrors experiments.RunShardedImpeccable: one IMPECCABLE
// campaign per Flux pilot, each pilot in its own partition domain.
func runSharded(in *input, sc scale, o *opCtx) (opResult, error) {
	pilots := sc.shardedPilots
	o.enter(phSetup)
	ss := core.NewShardedSession(core.ShardedConfig{
		Seed: in.seed, Domains: pilots + 1, Shards: shardedShards, Profile: o.prof,
	})
	split := platform.SplitNodes(sc.shardedNodes, pilots)
	tms := make([]*core.TaskManager, pilots)
	camps := make([]*campaign.Campaign, pilots)
	for i := 0; i < pilots; i++ {
		o.enter(phSetup)
		pilot, err := ss.SubmitPilot(i+1, spec.PilotDescription{
			UID: fmt.Sprintf("pilot.%04d", i), Nodes: split[i], SMT: 1,
			Partitions: experiments.FluxPartitions(1),
		})
		if err != nil {
			return opResult{}, err
		}
		tms[i] = ss.TaskManager(pilot)
		o.enter(phSubmit)
		camps[i] = campaign.New(campaign.Config{
			Nodes: split[i], MaxRetries: 2,
			SizingStream: fmt.Sprintf("campaign.adaptive.p%02d", i),
		}, ss.Client(), tms[i])
		if err := camps[i].Start(); err != nil {
			return opResult{}, err
		}
	}
	o.enter(phWait)
	// The first Wait drives the sharded engine to global quiescence; the
	// rest only verify their own completion counts.
	for _, tm := range tms {
		if err := tm.Wait(); err != nil {
			return opResult{}, err
		}
	}
	o.enter(phPost)
	tasks := ss.Tasks()
	start, end := execWindow(tasks)
	makespan := metrics.Makespan(tasks)
	cpu := metrics.Utilization(tasks, sc.shardedNodes*experiments.CoresPerNode, start, end)
	metrics.ConcurrencySeries(tasks, 400)
	o.stop()

	final, submitted := 0, 0
	for i, tm := range tms {
		final += tm.FinalCount()
		submitted += camps[i].TotalSubmitted()
	}
	res := opResult{path: in.path, tasks: final, sim: statsOf(len(tasks), makespan, cpu)}
	sessions := make([]*core.Session, ss.Domains())
	for d := range sessions {
		sessions[d] = ss.Domain(d)
	}
	for i, tm := range tms {
		if err := checkSession(tm, camps[i].TotalSubmitted(), nil, nil); err != nil {
			return res, fmt.Errorf("pilot %d: %w", i, err)
		}
	}
	if err := checkSession(nil, submitted, tasks, sessions); err != nil {
		return res, err
	}
	if o.deep {
		// Blame is not part of the sharded runner's analysis, so the
		// telescoping check runs outside the timed op, once per input.
		if err := checkBlame(analytics.BlameFromTraces(tasks), makespan); err != nil {
			return res, err
		}
	}
	if o.counts {
		snap := ss.LiveSnapshot()
		hw := 0
		for _, s := range sessions {
			if h := s.Controller.Ceiling().HighWater; h > hw {
				hw = h
			}
		}
		// The merged snapshot sums per-domain high-waters; the ceiling is
		// per controller, so report the largest one.
		snap.Put("slurm.srun_highwater", float64(hw))
		retained := 0
		for _, s := range sessions {
			retained += len(s.Profiler.Tasks())
		}
		res.counts = sessionCounts(snap, nil, camps)
		res.counts["profiler.retained_traces"] = float64(retained)
		res.counts["data.transfers"] = float64(len(ss.Transfers()))
		res.counts["sharded.lookahead_eff"] = ss.Eng.LookaheadEfficiency()
	}
	res.readProfile(o.prof)
	res.barrierNs = ss.Eng.BarrierStallNs()
	res.exchangeNs = ss.Eng.ExchangeNs()
	res.busySkew = busySkew(ss.ShardRecords())
	return res, nil
}

// busySkew is the slowest shard's busy time over the mean: the factor by
// which imbalance stretches each window.
func busySkew(recs []obs.ShardRecord) float64 {
	var most, sum int64
	for _, r := range recs {
		sum += r.BusyNs
		most = max(most, r.BusyNs)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(recs)) / float64(sum)
}

// --- ckpt_failures ---

// ckptPolicies alternates the two placements of the failure sweep.
var ckptPolicies = []spec.PlacementPolicy{spec.PlacePack, spec.PlaceDataAware}

// Failure-sweep cell parameters: one node failure per node every two
// simulated minutes, each down for a minute, tasks checkpointing every
// 10 s to the shared FS.
const (
	ckptMTBF        = 120
	ckptDowntime    = 60
	ckptHorizon     = 1200
	ckptTaskSeconds = 120
	ckptInterval    = 10
	ckptBytes       = 1 << 27
	ckptShardBytes  = 1 << 28
	ckptMaxRetries  = 5
)

func ckptInputs(seed uint64, sc scale) []*input {
	seeds := opSeeds(seed, "ckpt_failures", sc.ckptPool)
	ins := make([]*input, 0, 2*len(seeds))
	for _, s := range seeds {
		// Both policies face the same workload and failure schedule, as
		// in the sweep: the policy axis isolates placement.
		for _, pol := range ckptPolicies {
			tasks := workload.TrainingFanout(sc.ckptShards, sc.ckptPerShard, ckptShardBytes,
				sim.Seconds(ckptTaskSeconds))
			for _, td := range tasks {
				td.MaxRetries = ckptMaxRetries
				td.CheckpointInterval = sim.Seconds(ckptInterval)
				td.CheckpointBytes = ckptBytes
				td.CheckpointDest = spec.TierSharedFS
			}
			ins = append(ins, &input{
				index: len(ins), path: "flux", policy: pol, seed: s, tasks: presetUIDs(tasks),
			})
		}
	}
	return ins
}

// runCkpt mirrors the failure sweep's cell: a checkpointed training
// fan-out on one Flux pilot under seeded node failures.
func runCkpt(in *input, sc scale, o *opCtx) (opResult, error) {
	params := model.Default()
	params.Fault = model.FaultParams{
		NodeMTBF: ckptMTBF, NodeDowntime: ckptDowntime, Horizon: ckptHorizon,
	}
	o.enter(phSetup)
	sess := core.NewSession(core.Config{Seed: in.seed, Params: &params, Profile: o.prof})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: sc.ckptNodes, SMT: 1,
		Partitions: experiments.FluxPartitions(1), Placement: in.policy,
	})
	if err != nil {
		return opResult{}, err
	}
	tm := sess.TaskManager(pilot)
	o.enter(phSubmit)
	tm.Submit(in.tasks)
	o.enter(phWait)
	if err := tm.Wait(); err != nil {
		return opResult{}, err
	}
	o.enter(phPost)
	tasks := sess.Profiler.Tasks()
	start, end := execWindow(tasks)
	makespan := metrics.Makespan(tasks)
	cpu := metrics.Utilization(tasks, sc.ckptNodes*experiments.CoresPerNode, start, end)
	o.enter(phBlame)
	rep := analytics.BlameFromTraces(tasks)
	o.stop()

	res := opResult{path: in.path, tasks: tm.FinalCount(), sim: statsOf(len(tasks), makespan, cpu)}
	if err := checkSession(tm, len(in.tasks), tasks, []*core.Session{sess}); err != nil {
		return res, err
	}
	if err := checkBlame(rep, makespan); err != nil {
		return res, err
	}
	if o.counts {
		res.counts = sessionCounts(sess.LiveSnapshot(), sess.Profiler, nil)
	}
	res.readProfile(o.prof)
	return res, nil
}

// --- shared analysis and checks ---

func statsOf(tasks int, makespan sim.Duration, cpuUtil float64) simStats {
	s := simStats{Tasks: tasks, MakespanS: makespan.Seconds(), CPUUtilPct: cpuUtil * 100}
	if s.MakespanS > 0 {
		s.TasksPerS = float64(tasks) / s.MakespanS
	}
	return s
}

// execWindow returns [first start, last end] over the tasks that ran, as
// the experiments runners compute it.
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

// checkSession verifies that every submitted task reached a final state:
// the task manager's final count equals want (the submitted count, or the
// campaign's TotalSubmitted), every retained trace carries a final
// timestamp, and no session's srun concurrency exceeded the ceiling.
func checkSession(tm *core.TaskManager, want int, traces []*profiler.TaskTrace, sessions []*core.Session) error {
	if tm != nil {
		if tm.SubmittedCount() != want || tm.FinalCount() != want {
			return fmt.Errorf("%d of %d submitted tasks final, want %d", tm.FinalCount(), tm.SubmittedCount(), want)
		}
	}
	if traces != nil {
		if len(traces) != want {
			return fmt.Errorf("%d task traces, want %d", len(traces), want)
		}
		for _, tr := range traces {
			if tr.Final < 0 || tr.Final < tr.Submit {
				return fmt.Errorf("task %s never reached a final state", tr.UID)
			}
		}
	}
	for _, s := range sessions {
		if hw := s.Controller.Ceiling().HighWater; hw > srunCeiling {
			return fmt.Errorf("srun high-water %d exceeds the ceiling of %d", hw, srunCeiling)
		}
	}
	return nil
}

// checkBlame verifies that the blame categories sum exactly (in integer
// microseconds) to the makespan.
func checkBlame(rep analytics.BlameReport, makespan sim.Duration) error {
	if rep.Blame.Total() != rep.Makespan || rep.Makespan != makespan {
		return fmt.Errorf("blame does not telescope: categories %d, blame makespan %d, makespan %d",
			rep.Blame.Total(), rep.Makespan, makespan)
	}
	return nil
}

// countKeys are the exact per-layer counts copied from a session snapshot.
var countKeys = []string{
	"sim.events", "sim.heap_highwater", "sim.timer_cancellations",
	"sharded.windows", "sharded.cross_events",
	"launch.attempts", "launch.placed", "launch.scan_failures",
	"launch.watermark_skips", "launch.queue_highwater",
	"slurm.srun_highwater",
	"agent.dispatches", "agent.retries",
	"data.bytes_total", "data.locality_hits", "data.locality_misses",
	"fault.node_failures", "fault.victims", "fault.node_restores",
}

// sessionCounts reads the exact per-layer counts the program exposes
// after a run. prof may be nil (sharded runs add their own profiler
// counts); keys a session does not report read as zero.
func sessionCounts(snap *obs.Snapshot, prof *profiler.Profiler, camps []*campaign.Campaign) map[string]float64 {
	c := make(map[string]float64, len(countKeys)+5)
	for _, k := range countKeys {
		c[k] = snap.Counters[k]
	}
	if prof != nil {
		c["profiler.retained_traces"] = float64(len(prof.Tasks()))
		c["data.transfers"] = float64(len(prof.Transfers()))
	}
	for _, camp := range camps {
		c["campaign.iterations"] += float64(len(camp.Records()))
		c["campaign.submitted"] += float64(camp.TotalSubmitted())
	}
	return c
}

// readProfile copies the self-profiler's phase totals (nil when untraced).
func (r *opResult) readProfile(p *obs.SelfProfiler) {
	r.dispatchNs = p.TotalNs(sim.PhaseDispatch)
	r.placementNs = p.TotalNs(sim.PhasePlacement)
	r.sinkFoldNs = p.TotalNs(sim.PhaseSinkFold)
}

// sameCounts reports the first count that differs between two ops.
func sameCounts(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("count sets differ: %d vs %d keys", len(a), len(b))
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return fmt.Errorf("count %s differs: %v vs %v", k, v, b[k])
		}
	}
	return nil
}
