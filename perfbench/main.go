// Command perfbench is the repository benchmark: the host cost per
// simulated task of four paper workloads, end to end, and in a separate
// traced run split by layer.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// The workload seed generates a pool of op inputs before timing starts.
// A warm-up pass runs every input once and records its simulated results;
// the timed phase then cycles through the pool for --seconds, one op after
// another, and every re-run must reproduce those results exactly. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it runs each
// input untraced and traced in pairs, checks that observing changed
// nothing, and prints the per-layer metrics. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
// run.py next to this file builds and runs it from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"rpgo/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload workloadDef
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	commit   string
	scale    scale
	smoke    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig8_impeccable, null_launch_mix, sharded_fig8 or ckpt_failures")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same op inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in host seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "traced runs write their host spans to this trace-event JSON file")
	commit := fs.String("commit", "unknown", "source revision recorded in the run's meta")
	smoke := fs.Bool("smoke", false, "run at a tiny scale (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, commit: *commit, scale: fullScale, smoke: *smoke,
	}
	if cfg.smoke {
		cfg.scale = smokeScale
	}
	res, meta, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: meta: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "meta %s\n", metaLine)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// runOp runs one op, turning a panic into a failed op.
func runOp(cfg *config, in *input, o *opCtx) (res opResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if o.end.IsZero() {
			o.stop()
		}
		o.spans.add("bench.check", -1, o.id, o.end, time.Now())
	}()
	o.begin()
	return cfg.workload.run(in, cfg.scale, o)
}

// tally counts attempted and failed ops and keeps the first failures.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) record(op int, in *input, err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf("op %d (input %d, %s, seed %d): %v", op, in.index, in.path, in.seed, err))
	}
	return false
}

// warmUp runs every input once: it fills caches and lazy set-up and
// records the simulated results every later run of an input must repeat.
func warmUp(cfg *config, ins []*input, t *tally, nextID *int) []*simStats {
	ref := make([]*simStats, len(ins))
	for _, in := range ins {
		o := &opCtx{id: *nextID, deep: true}
		*nextID++
		r, err := runOp(cfg, in, o)
		if t.record(o.id, in, err) {
			ref[in.index] = &r.sim
		}
	}
	return ref
}

// reproduces checks an op's simulated results against its input's first run.
func reproduces(ref []*simStats, in *input, got simStats) error {
	want := ref[in.index]
	if want == nil {
		return fmt.Errorf("input has no reference run")
	}
	if got != *want {
		return fmt.Errorf("simulated results differ from the input's first run: %+v vs %+v", got, *want)
	}
	return nil
}

func measure(cfg config, stderr io.Writer) (result, map[string]any, error) {
	ins := cfg.workload.inputs(cfg.seed, cfg.scale)
	if len(ins) == 0 {
		return result{}, nil, fmt.Errorf("workload %s generated no inputs", cfg.workload.name)
	}
	var (
		res   result
		ops   int
		err   error
		t     tally
		spans *spanLog
	)
	if cfg.trace {
		res, ops, spans, err = measureLayers(&cfg, ins, &t)
	} else {
		res, ops = measureEndToEnd(&cfg, ins, &t)
	}
	if err != nil {
		return result{}, nil, err
	}
	for _, e := range t.errs {
		fmt.Fprintf(stderr, "perfbench: failed %s\n", e)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			res.Metrics[n] = metric{0, m.Unit}
			fmt.Fprintf(stderr, "perfbench: metric %s is not a number\n", n)
		}
	}
	meta := runMeta(&cfg, len(ins), ops)
	if spans != nil && cfg.spans != "" {
		if err := spans.write(cfg.spans, meta); err != nil {
			return result{}, nil, err
		}
	}
	return res, meta, nil
}

// measureEndToEnd is the untraced run: the warm-up pass, then the timed
// phase. It returns the end-to-end metrics and the timed op count.
func measureEndToEnd(cfg *config, ins []*input, t *tally) (result, int) {
	id := 0
	ref := warmUp(cfg, ins, t, &id)

	var setupS []float64
	ops := 0
	inputNs := make([][]float64, len(ins))
	inputTasks := make([]int, len(ins))
	tasks := 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	limit := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	// Run at least one full pass so every input has a timed sample.
	for i := 0; i < len(ins) || time.Since(t0) < limit; i++ {
		in := ins[i%len(ins)]
		o := &opCtx{id: id}
		id++
		r, err := runOp(cfg, in, o)
		if err == nil {
			err = reproduces(ref, in, r.sim)
		}
		if !t.record(o.id, in, err) {
			continue
		}
		ns := float64(o.opNs())
		ops++
		setupS = append(setupS, float64(o.setupNs())/1e9)
		inputNs[in.index] = append(inputNs[in.index], ns)
		inputTasks[in.index] = r.tasks
		tasks += r.tasks
	}
	runtime.ReadMemStats(&m1)

	// Throughput and op percentiles rest on each input's median host time
	// in the timed phase. On a shared host the same op's time spreads about
	// 2x within a run, in bursts that no input escapes; an input's median
	// is its typical cost, while its fastest op or the tail of all ops
	// follows the bursts and moved by a third between runs of the same code
	// on a 2-CPU host. tasks_per_host_s is one pass over the pool at those
	// medians; the percentiles are over the pool's inputs, so p90 is the
	// cost of the heavy inputs of the op mix.
	var passTasks int
	var passNs float64
	inputMs := make([]float64, 0, len(ins))
	sims := make([]simStats, 0, len(ref))
	for i, s := range ref {
		if s != nil {
			sims = append(sims, *s)
		}
		if len(inputNs[i]) > 0 {
			med := quantile(inputNs[i], 0.5)
			passTasks += inputTasks[i]
			passNs += med
			inputMs = append(inputMs, med/1e6)
		}
	}
	perTask := func(v uint64) float64 { return float64(v) / float64(max(tasks, 1)) }
	m := map[string]metric{
		"tasks_per_host_s":     {float64(passTasks) / (max(passNs, 1) / 1e9), "1/s"},
		"op_host_ms_p50":       {quantile(inputMs, 0.5), "ms"},
		"op_host_ms_p90":       {quantile(inputMs, 0.9), "ms"},
		"setup_s":              {quantile(setupS, 0.5), "s"},
		"alloc_bytes_per_task": {perTask(m1.TotalAlloc - m0.TotalAlloc), "B"},
		"allocs_per_task":      {perTask(m1.Mallocs - m0.Mallocs), "count"},
		"max_rss_mb":           {maxRSSMB(), "MB"},
		"sim_tasks_per_s":      {meanOf(sims, func(s simStats) float64 { return s.TasksPerS }), "1/s"},
		"sim_makespan_s":       {meanOf(sims, func(s simStats) float64 { return s.MakespanS }), "s"},
		"ok_op_pct":            {100 * float64(t.attempted-t.failed) / float64(max(t.attempted, 1)), "%"},
	}
	return result{Metrics: m}, ops
}

// pathLayer maps a launch path to the layer its per-task cost is charged to.
var pathLayer = map[string]string{
	"srun": "slurm", "flux": "flux", "flux_n": "flux",
	"dragon": "dragon", "flux_dragon": "flux_dragon", "prrte": "prrte",
}

// highWaterKeys are counts reported as their maximum over the pool, not
// their sum.
var highWaterKeys = map[string]bool{
	"sim.heap_highwater": true, "launch.queue_highwater": true, "slurm.srun_highwater": true,
}

// measureLayers is the traced run. Every input runs untraced and traced
// in pairs (alternating which goes first); the two must agree on every
// simulated result and exact layer count. It returns the per-layer
// metrics, the number of traced ops in the timed phase and the spans.
func measureLayers(cfg *config, ins []*input, t *tally) (result, int, *spanLog, error) {
	spans := newSpanLog()
	id := 0
	refSim := make([]*simStats, len(ins))
	refCounts := make([]map[string]float64, len(ins))
	pool := map[string]float64{}
	var lookahead []float64

	// pair runs one input untraced and traced and compares the two. It
	// returns the traced op's context and result, and both host times.
	pair := func(in *input, tracedFirst, first bool) (*opCtx, opResult, int64, int64, bool) {
		u := &opCtx{id: id, counts: true, deep: first}
		tr := &opCtx{id: id + 1, counts: true, deep: first, prof: obs.NewSelfProfiler(), spans: spans}
		id += 2
		var ru, rt opResult
		var eu, et error
		if tracedFirst {
			rt, et = runOp(cfg, in, tr)
			ru, eu = runOp(cfg, in, u)
		} else {
			ru, eu = runOp(cfg, in, u)
			rt, et = runOp(cfg, in, tr)
		}
		if first && eu == nil {
			refSim[in.index], refCounts[in.index] = &ru.sim, ru.counts
		}
		if eu == nil {
			eu = reproduces(refSim, in, ru.sim)
		}
		if eu == nil {
			eu = sameCounts(ru.counts, refCounts[in.index])
		}
		if et == nil {
			et = reproduces(refSim, in, rt.sim)
		}
		if et == nil {
			if err := sameCounts(rt.counts, refCounts[in.index]); err != nil {
				et = fmt.Errorf("tracing changed the run: %w", err)
			}
		}
		okU, okT := t.record(u.id, in, eu), t.record(tr.id, in, et)
		return tr, rt, u.opNs(), tr.opNs(), okU && okT
	}

	for _, in := range ins {
		_, rt, _, _, ok := pair(in, false, true)
		if !ok {
			continue
		}
		for k, v := range rt.counts {
			if highWaterKeys[k] {
				pool[k] = max(pool[k], v)
			} else if k != "sharded.lookahead_eff" {
				pool[k] += v
			}
		}
		lookahead = append(lookahead, rt.counts["sharded.lookahead_eff"])
	}

	type traced struct {
		o *opCtx
		r opResult
	}
	var ops []traced
	var untracedNs, tracedNs int64
	gc0 := readGC()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; i < len(ins) || time.Since(t0) < limit; i++ {
		in := ins[i%len(ins)]
		o, r, un, tn, ok := pair(in, i%2 == 1, false)
		if !ok {
			continue
		}
		untracedNs += un
		tracedNs += tn
		ops = append(ops, traced{o, r})
	}
	gc1 := readGC()
	if len(ops) == 0 {
		return result{}, 0, nil, fmt.Errorf("no traced op completed")
	}

	self := spans.selfNs()
	selfMs := func(name string) float64 {
		var v []float64
		for _, x := range ops {
			v = append(v, float64(self[name][x.o.id])/1e6)
		}
		return quantile(v, 0.5)
	}
	medianMs := func(get func(opResult) int64) float64 {
		v := make([]float64, len(ops))
		for i, x := range ops {
			v[i] = float64(get(x.r)) / 1e6
		}
		return quantile(v, 0.5)
	}
	var waitNs, events, placeNs, dispatchNs float64
	layerWait := map[string]float64{}
	layerTasks := map[string]float64{}
	skews := make([]float64, len(ops))
	for i, x := range ops {
		waitNs += float64(x.o.ns[phWait])
		events += x.r.counts["sim.events"]
		placeNs += float64(x.r.placementNs)
		dispatchNs += float64(x.r.dispatchNs)
		l := pathLayer[x.r.path]
		layerWait[l] += float64(x.o.ns[phWait])
		layerTasks[l] += float64(x.r.tasks)
		skews[i] = x.r.busySkew
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := float64(len(ops))
	cnt := func(k string) metric { return metric{pool[k], "count"} }
	var sims []simStats
	for _, s := range refSim {
		if s != nil {
			sims = append(sims, *s)
		}
	}
	m := map[string]metric{
		"core.setup_ms":            {selfMs("core.setup"), "ms"},
		"core.submit_ms":           {selfMs("core.submit"), "ms"},
		"core.wait_ms":             {selfMs("core.wait"), "ms"},
		"metrics.post_ms":          {selfMs("metrics.post"), "ms"},
		"analytics.blame_ms":       {selfMs("analytics.blame"), "ms"},
		"op.self_ms":               {selfMs("op"), "ms"},
		"sim.events":               cnt("sim.events"),
		"sim.ns_per_event":         {ratio(waitNs, events), "ns"},
		"sim.dispatch_ms":          {medianMs(func(r opResult) int64 { return r.dispatchNs }), "ms"},
		"sim.heap_highwater":       cnt("sim.heap_highwater"),
		"sim.cpu_util_pct":         {meanOf(sims, func(s simStats) float64 { return s.CPUUtilPct }), "%"},
		"sim.timer_cancellations":  cnt("sim.timer_cancellations"),
		"sharded.windows":          cnt("sharded.windows"),
		"sharded.cross_events":     cnt("sharded.cross_events"),
		"sharded.lookahead_eff":    {mean(lookahead), "ratio"},
		"sharded.barrier_stall_ms": {medianMs(func(r opResult) int64 { return r.barrierNs }), "ms"},
		"sharded.exchange_ms":      {medianMs(func(r opResult) int64 { return r.exchangeNs }), "ms"},
		"sharded.busy_skew":        {quantile(skews, 0.5), "ratio"},
		"launch.attempts":          cnt("launch.attempts"),
		"launch.placed":            cnt("launch.placed"),
		"launch.place_yield":       {ratio(pool["launch.placed"], pool["launch.attempts"]), "ratio"},
		"launch.scan_failures":     cnt("launch.scan_failures"),
		"launch.watermark_skips":   cnt("launch.watermark_skips"),
		"launch.queue_highwater":   cnt("launch.queue_highwater"),
		"launch.placement_ms":      {medianMs(func(r opResult) int64 { return r.placementNs }), "ms"},
		"launch.placement_share":   {ratio(placeNs, dispatchNs), "ratio"},
		"slurm.srun_highwater":     cnt("slurm.srun_highwater"),
		"agent.dispatches":         cnt("agent.dispatches"),
		"agent.retries":            cnt("agent.retries"),
		"data.transfers":           cnt("data.transfers"),
		"data.bytes_total":         {pool["data.bytes_total"], "B"},
		"data.locality_hits":       cnt("data.locality_hits"),
		"data.locality_misses":     cnt("data.locality_misses"),
		"data.hit_ratio":           {ratio(pool["data.locality_hits"], pool["data.locality_hits"]+pool["data.locality_misses"]), "ratio"},
		"fault.node_failures":      cnt("fault.node_failures"),
		"fault.victims":            cnt("fault.victims"),
		"fault.node_restores":      cnt("fault.node_restores"),
		"obs.sinkfold_ms":          {medianMs(func(r opResult) int64 { return r.sinkFoldNs }), "ms"},
		"obs.tracing_overhead_pct": {100 * (ratio(float64(tracedNs), float64(untracedNs)) - 1), "%"},
		"profiler.retained_traces": cnt("profiler.retained_traces"),
		"campaign.iterations":      cnt("campaign.iterations"),
		"campaign.submitted":       cnt("campaign.submitted"),
		"runtime.gc_cycles":        {(gc1.cycles - gc0.cycles) / (2 * n), "count"},
		"runtime.gc_cpu_frac":      {ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU), "ratio"},
		"runtime.gc_pause_ms":      {(gc1.pauseNs - gc0.pauseNs) / 1e6 / (2 * n), "ms"},
	}
	for _, l := range []string{"slurm", "flux", "dragon", "prrte", "flux_dragon"} {
		m[l+".ns_per_task"] = metric{ratio(layerWait[l], layerTasks[l]), "ns"}
	}
	return result{Metrics: m}, len(ops), spans, nil
}

// gcReading is a point-in-time reading of the Go runtime's GC counters.
type gcReading struct {
	cycles, gcCPU, totalCPU, pauseNs float64
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcReading{
		cycles:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		pauseNs:  float64(ms.PauseTotalNs),
	}
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runMeta is the like-for-like record of the configuration a result was
// taken on; results are only comparable when it matches.
func runMeta(cfg *config, pool, ops int) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	shards := 1
	if cfg.workload.name == "sharded_fig8" {
		shards = shardedShards
	}
	return map[string]any{
		"workload":   cfg.workload.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"smoke":      cfg.smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc,
		"go":         runtime.Version(),
		"commit":     cfg.commit,
		"shards":     shards,
		"pool":       pool,
		"ops":        ops,
	}
}
