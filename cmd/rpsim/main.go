// Command rpsim runs one of the paper's Table 1 experiments — a throughput
// cell or an IMPECCABLE campaign — and prints its metrics. It is the
// quickest way to explore the runtime models, and with -serve it is the
// monitoring front door for a live run.
//
// Usage:
//
//	rpsim -exp flux_1 -nodes 64 [-instances 4] [-workload null|dummy|mixed]
//	      [-duration 180] [-tasks N] [-reps 3] [-seed S]
//
//	rpsim -exp impeccable_flux -nodes 256 [-pilots 4] [-shards 4] [-iters N]
//	      [-seed S] [-serve :9464] [-trace run.jsonl]
//
// Experiments: srun, flux_1, flux_n, dragon, flux_dragon, impeccable_srun,
// impeccable_flux.
//
// The impeccable experiments run the paper's Fig 8 campaign with the srun
// or the Flux backend on a sharded session (-pilots pilots sharing -nodes
// nodes, -shards engine workers) and print the per-shard window-telemetry
// table; rpbench -only fig8 plots the Fig 8 series. -serve exposes /metrics
// (Prometheus text exposition), /healthz and /progress over HTTP while the
// campaign runs, and keeps serving after it completes — poll /progress for
// "percent":100, scrape /metrics, then interrupt the process. -trace spills
// every completed trace plus one shard record per engine worker as JSON
// lines; rptrace stats, top and blame break the run down per task.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"rpgo/internal/experiments"
	"rpgo/internal/obs"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

func main() {
	exp := flag.String("exp", "flux_1", "experiment: srun, flux_1, flux_n, dragon, flux_dragon, impeccable_srun, impeccable_flux")
	nodes := flag.Int("nodes", 4, "pilot size in nodes (impeccable_*: total over all pilots)")
	instances := flag.Int("instances", 1, "backend instances (flux_n, flux_dragon)")
	wl := flag.String("workload", "null", "workload: null, dummy, mixed")
	duration := flag.Float64("duration", 180, "dummy task duration [s]")
	tasks := flag.Int("tasks", 0, "task count override (0: nodes*56*4)")
	reps := flag.Int("reps", 3, "repetitions")
	seed := flag.Uint64("seed", 1, "RNG seed")
	pilots := flag.Int("pilots", 1, "pilot count (impeccable_*)")
	shards := flag.Int("shards", experiments.DefaultShards(), "sharded-engine worker count (impeccable_*)")
	iters := flag.Int("iters", 0, "cap campaign pipeline iterations, 0 = full (impeccable_*)")
	serve := flag.String("serve", "", "serve /metrics, /healthz and /progress on this address (impeccable_*)")
	traceOut := flag.String("trace", "", "write a JSONL trace spill, shard records included (impeccable_*)")
	flag.Parse()

	if err := checkSizes(*nodes, *pilots, *reps); err != nil {
		fmt.Fprintf(os.Stderr, "rpsim: %v\n", err)
		os.Exit(2)
	}
	switch *exp {
	case "impeccable_srun":
		runImpeccable(spec.BackendSrun, *nodes, *pilots, *shards, *iters, *seed, *serve, *traceOut)
		return
	case "impeccable_flux":
		runImpeccable(spec.BackendFlux, *nodes, *pilots, *shards, *iters, *seed, *serve, *traceOut)
		return
	}
	if *serve != "" || *traceOut != "" {
		fmt.Fprintln(os.Stderr, "rpsim: -serve and -trace require -exp impeccable_srun or impeccable_flux")
		os.Exit(2)
	}

	var kind experiments.WorkloadKind
	switch *wl {
	case "null":
		kind = experiments.Null
	case "dummy":
		kind = experiments.Dummy
	case "mixed":
		kind = experiments.MixedExecFunc
	default:
		fmt.Fprintf(os.Stderr, "rpsim: unknown workload %q\n", *wl)
		os.Exit(2)
	}

	var cfg experiments.ThroughputConfig
	switch *exp {
	case "srun":
		cfg = experiments.SrunCell(*nodes, kind, *seed, *reps)
	case "flux_1":
		cfg = experiments.Flux1Cell(*nodes, kind, *seed, *reps)
	case "flux_n":
		cfg = experiments.FluxNCell(*nodes, *instances, kind, *seed, *reps)
	case "dragon":
		cfg = experiments.DragonCell(*nodes, kind, *seed, *reps)
	case "flux_dragon":
		secs := 0.0
		if kind != experiments.Null {
			secs = *duration
		}
		cfg = experiments.HybridCell(*nodes, *instances, secs, *seed, *reps)
		cfg.Workload = experiments.MixedExecFunc
	default:
		fmt.Fprintf(os.Stderr, "rpsim: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if kind == experiments.Dummy {
		cfg.TaskSeconds = *duration
	}
	if *tasks > 0 {
		cfg.Tasks = *tasks
	}

	res := experiments.RunThroughput(cfg)
	fmt.Printf("experiment %s: %d nodes, %d tasks (%s), %d reps\n",
		*exp, *nodes, cfg.Tasks, cfg.Workload, *reps)
	fmt.Printf("  throughput: avg %.1f t/s, best-rep %.1f t/s, peak 1s-window %.0f t/s\n",
		res.AvgTput, res.MaxTput, res.PeakWindow)
	fmt.Printf("  utilization: %.1f%%   makespan: %.1fs\n", res.MeanUtil*100, res.MeanMakespan.Seconds())
	for i, rep := range res.Reps {
		fmt.Printf("  rep %d: avg %.1f t/s, peak %.0f, makespan %.1fs, failed %d\n",
			i, rep.Throughput.Avg, rep.Throughput.Peak, rep.Makespan.Seconds(), rep.Failed)
	}
}

// checkSizes rejects run sizes no experiment can run.
func checkSizes(nodes, pilots, reps int) error {
	switch {
	case nodes < 1:
		return errors.New("-nodes must be at least 1")
	case pilots < 1:
		return errors.New("-pilots must be at least 1")
	case nodes < pilots:
		return fmt.Errorf("-nodes %d cannot be split over -pilots %d", nodes, pilots)
	case reps < 1:
		return errors.New("-reps must be at least 1")
	}
	return nil
}

// runImpeccable executes one Fig 8 campaign with live monitoring.
func runImpeccable(backend spec.Backend, nodes, pilots, shards, iters int, seed uint64, serve, traceOut string) {
	var mon *obs.Monitor
	if serve != "" {
		mon = obs.NewMonitor(0)
		addr, err := mon.Serve(serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpsim: -serve %s: %v\n", serve, err)
			os.Exit(1)
		}
		fmt.Printf("rpsim: monitoring on http://%s/metrics\n", addr)
	}

	// With -trace, every domain tees into one shared spill (the JSONL sink
	// serializes concurrent writers) while the profilers still retain
	// traces so the summary below has data.
	var spill *obs.JSONL
	var sink func(domain int) profiler.TraceSink
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		spill = obs.NewJSONL(f)
		sink = func(int) profiler.TraceSink { return obs.NewTee(obs.NewMemory(), spill) }
	}

	// Self-profiling is always on here: the hooks cost nanoseconds and the
	// selfprof.* phase timers surface on /metrics and in the snapshot.
	prof := obs.NewSelfProfiler()
	res := experiments.RunImpeccable(experiments.ImpeccableConfig{
		Nodes:    nodes,
		Pilots:   pilots,
		Shards:   shards,
		Backend:  backend,
		Seed:     seed,
		MaxIters: iters,
		Sink:     sink,
		Profile:  prof,
		Monitor:  mon,
	})

	fmt.Printf("impeccable campaign: %s backend, %d nodes, %d pilots, seed %d\n", backend, nodes, pilots, seed)
	fmt.Printf("  tasks: %d done, %d failed   makespan: %.1fs   cpu: %.1f%%   gpu: %.1f%%\n",
		res.Tasks, res.Failed, res.Makespan.Seconds(), res.CPUUtil*100, res.GPUUtil*100)
	fmt.Printf("  peak conc: %.0f   mean start rate: %.2f tasks/s over 30s windows\n",
		res.PeakConcurrency, res.MeanStartRate)
	fmt.Printf("  engine: %d shards, %d windows, %d cross events, %.2f lookahead efficiency\n",
		res.Shards, res.Windows, res.CrossEvents, res.LookaheadEff)
	fmt.Print(obs.RenderShardTable(res.ShardStats))
	fmt.Printf("  self-profile:")
	for ph := 0; ph < sim.NumPhases; ph++ {
		if n := prof.Samples(ph); n > 0 {
			fmt.Printf(" %s=%.2fms/%d", sim.PhaseName(ph), float64(prof.TotalNs(ph))/1e6, n)
		}
	}
	fmt.Println()

	if spill != nil {
		for _, rec := range res.ShardStats {
			spill.WriteShard(rec)
		}
		if err := spill.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "rpsim: trace spill: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace spill: %d records -> %s\n", spill.Records(), traceOut)
	}

	if mon != nil {
		fmt.Println("rpsim: campaign complete; serving until interrupted")
		select {}
	}
}
