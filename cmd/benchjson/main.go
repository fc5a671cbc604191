// benchjson converts `go test -bench` text output (read on stdin) into a
// stable JSON document, so CI can archive one benchmark artifact per PR
// and the performance trajectory of the repository stays diffable.
//
// Usage:
//
//	go test -bench . -benchtime 1x -benchmem -run '^$' . | go run ./cmd/benchjson -out BENCH.json
//	go run ./cmd/benchjson run [-bench REGEX] [-benchtime 1x] [-cpu LIST] [-out BENCH.json] [PKG]
//	go run ./cmd/benchjson diff [-max-regress 15] [-allocs-only] [-gate Name1,Name2] OLD.json NEW.json
//
// The run subcommand invokes `go test -bench` itself and archives the
// parsed output, capturing the per-benchmark -cpu/GOMAXPROCS suffix that
// the stdin path also records — with a parallel (sharded) engine, a
// benchmark number is meaningless without the core count it ran on.
//
// The diff subcommand prints per-benchmark % deltas of ns/op and
// allocs/op (negative = improvement). With -gate it exits non-zero when
// any gated benchmark regressed by more than -max-regress percent on
// either metric — the CI performance ratchet. With -allocs-only the table
// and the gate use allocs/op and B/op instead: neither depends on the
// host's speed, so that gate means the same on any runner. Gate failures
// print each
// side's cpu count and shard count (the `shards` metric, when reported)
// so cross-environment noise is recognizable at a glance. When both
// archives report sharded-engine telemetry (windows, barrier_stall_ms,
// lookahead_eff) the diff prints those deltas as an indented sub-line —
// informational only, never gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Cpu is that stripped suffix — the GOMAXPROCS the benchmark ran
	// with (1 when the line carried none).
	Cpu int `json:"cpu,omitempty"`
	// Iterations is b.N for the run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every reported metric (ns/op, B/op,
	// allocs/op, and every b.ReportMetric custom unit).
	Metrics map[string]float64 `json:"metrics"`
}

// Meta records the environment a report was produced in, so a diff that
// trips the gate can show whether the baselines are even comparable.
type Meta struct {
	GoVersion  string `json:"go_version,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// Commit is the repository HEAD at archive time, when git is
	// available.
	Commit string `json:"commit,omitempty"`
}

// collectMeta captures the current environment.
func collectMeta() Meta {
	m := Meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// describe renders the meta as one line for diff diagnostics.
func (m Meta) describe() string {
	commit := m.Commit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	if commit == "" {
		commit = "?"
	}
	return fmt.Sprintf("%s %s/%s gomaxprocs=%d commit=%s",
		m.GoVersion, m.GOOS, m.GOARCH, m.GOMAXPROCS, commit)
}

// Report is the document benchjson emits.
type Report struct {
	Meta       Meta        `json:"meta,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		diffMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "run" {
		runMain(os.Args[2:])
		return
	}
	out := flag.String("out", "", "output path (default stdout)")
	flag.Parse()

	report := Report{Meta: collectMeta(), Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	writeReport(report, *out)
}

// writeReport marshals the report to the output path (stdout when empty).
func writeReport(report Report, out string) {
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runMain implements `benchjson run`: it drives `go test -bench` itself,
// echoes the raw lines to stderr for the CI log, and archives the parsed
// report — including the per-benchmark cpu suffix the -cpu flag produces.
func runMain(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	out := fs.String("out", "", "output path (default stdout)")
	bench := fs.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := fs.String("benchtime", "1x", "go test -benchtime value")
	cpu := fs.String("cpu", "", "go test -cpu list (empty = current GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	pkg := "."
	if fs.NArg() > 0 {
		pkg = fs.Arg(0)
	}
	goArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-benchmem"}
	if *cpu != "" {
		goArgs = append(goArgs, "-cpu", *cpu)
	}
	goArgs = append(goArgs, pkg)
	cmd := exec.Command("go", goArgs...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	report := Report{Meta: collectMeta(), Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if b, ok := parseLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := cmd.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: go test:", err)
		os.Exit(1)
	}
	writeReport(report, *out)
}

// diffMetrics are the metrics the diff table and the gate look at;
// allocMetrics replace them under -allocs-only.
var (
	diffMetrics  = []string{"ns/op", "allocs/op"}
	allocMetrics = []string{"allocs/op", "B/op"}
)

// metricLabel is a metric's column label in the diff table.
var metricLabel = map[string]string{"ns/op": "ns/op", "allocs/op": "allocs", "B/op": "B"}

// diffRow renders one benchmark pair's deltas over metrics and reports
// whether any delta exceeds maxRegress percent.
func diffRow(ob, nb Benchmark, metrics []string, maxRegress float64) (string, bool) {
	row := fmt.Sprintf("%-34s", nb.Name)
	regressed := false
	for i, m := range metrics {
		ov, nv := ob.Metrics[m], nb.Metrics[m]
		var delta float64
		switch {
		case ov > 0:
			delta = (nv - ov) / ov * 100
		case nv > 0:
			// A zero baseline that grew is an unbounded regression
			// (0 allocs/op → any allocs/op must trip the gate).
			delta = math.Inf(1)
		}
		row += fmt.Sprintf(" %14.0f %14.0f %+8.1f%%", ov, nv, delta)
		if i < len(metrics)-1 {
			row += "  "
		}
		if delta > maxRegress {
			regressed = true
		}
	}
	return row, regressed
}

// shardMetrics are the sharded-engine telemetry metrics shown as an
// informational sub-line when both archives carry them. They never gate:
// window counts move with lookahead tuning and stall is wall-clock noise,
// but their drift explains ns/op drift, so the diff surfaces it.
var shardMetrics = []string{"windows", "barrier_stall_ms", "lookahead_eff"}

// shardDeltaLine renders the indented telemetry sub-line for one benchmark
// pair, or "" when neither metric is present on both sides.
func shardDeltaLine(ob, nb Benchmark) string {
	var parts []string
	for _, m := range shardMetrics {
		ov, ook := ob.Metrics[m]
		nv, nok := nb.Metrics[m]
		if !ook || !nok {
			continue
		}
		var delta float64
		switch {
		case ov != 0:
			delta = (nv - ov) / ov * 100
		case nv != 0:
			delta = math.Inf(1)
		}
		parts = append(parts, fmt.Sprintf("%s %.1f -> %.1f (%+.1f%%)", m, ov, nv, delta))
	}
	if len(parts) == 0 {
		return ""
	}
	return "      " + strings.Join(parts, "   ")
}

// diffMain implements `benchjson diff old.json new.json`.
func diffMain(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	maxRegress := fs.Float64("max-regress", 15, "max allowed % regression on gated benchmarks")
	gate := fs.String("gate", "", "comma-separated benchmark names to gate (empty = report only)")
	allocsOnly := fs.Bool("allocs-only", false, "compare and gate allocs/op and B/op instead of ns/op and allocs/op")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson diff [-max-regress PCT] [-allocs-only] [-gate Name1,Name2] OLD.json NEW.json")
		os.Exit(2)
	}
	metrics := diffMetrics
	if *allocsOnly {
		metrics = allocMetrics
	}
	old := loadReport(fs.Arg(0))
	new_ := loadReport(fs.Arg(1))

	gated := map[string]bool{}
	for _, g := range strings.Split(*gate, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gated[g] = true
		}
	}

	oldBy := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	names := make([]string, 0, len(new_.Benchmarks))
	newBy := map[string]Benchmark{}
	for _, b := range new_.Benchmarks {
		newBy[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)

	header := fmt.Sprintf("%-34s", "benchmark")
	for i, m := range metrics {
		header += fmt.Sprintf(" %14s %14s %9s", metricLabel[m]+" old", metricLabel[m]+" new", "Δ%")
		if i < len(metrics)-1 {
			header += "  "
		}
	}
	fmt.Println(header)
	failed := []string{}
	for _, name := range names {
		nb := newBy[name]
		ob, ok := oldBy[name]
		if !ok {
			fmt.Printf("%-34s %s\n", name, "(new benchmark)")
			if gated[name] {
				fmt.Fprintf(os.Stderr, "benchjson: gated benchmark %q missing from %s\n", name, fs.Arg(0))
				failed = append(failed, name)
			}
			continue
		}
		row, regressed := diffRow(ob, nb, metrics, *maxRegress)
		marker := ""
		if gated[name] {
			marker = "  [gate]"
			if regressed {
				marker = "  [gate FAILED]"
				failed = append(failed, name)
			}
		}
		fmt.Println(row + marker)
		if sub := shardDeltaLine(ob, nb); sub != "" {
			fmt.Println(sub)
		}
	}
	for g := range gated {
		if _, ok := newBy[g]; !ok {
			fmt.Fprintf(os.Stderr, "benchjson: gated benchmark %q missing from %s\n", g, fs.Arg(1))
			failed = append(failed, g)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d gated benchmark(s) regressed >%.0f%%: %s\n",
			len(failed), *maxRegress, strings.Join(failed, ", "))
		// Mismatched environments are the usual benign explanation — show
		// both, plus each failure's cpu and shard counts (parallel-engine
		// numbers are meaningless without them), before failing.
		fmt.Fprintf(os.Stderr, "benchjson: old: %s\n", old.Meta.describe())
		fmt.Fprintf(os.Stderr, "benchjson: new: %s\n", new_.Meta.describe())
		for _, name := range failed {
			fmt.Fprintf(os.Stderr, "benchjson: %s: old %s, new %s\n",
				name, describeParallel(oldBy[name]), describeParallel(newBy[name]))
		}
		os.Exit(1)
	}
}

// describeParallel renders a benchmark's parallelism context: the cpu
// suffix it ran under and, for sharded-engine benchmarks, the reported
// shard count.
func describeParallel(b Benchmark) string {
	if b.Name == "" {
		return "(missing)"
	}
	cpu := b.Cpu
	if cpu == 0 {
		cpu = 1
	}
	s := fmt.Sprintf("cpu=%d", cpu)
	if shards, ok := b.Metrics["shards"]; ok {
		s += fmt.Sprintf(" shards=%.0f", shards)
	}
	return s
}

func loadReport(path string) Report {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	return r
}

// parseLine parses one `Benchmark<Name>-P  N  v1 u1  v2 u2 ...` line.
func parseLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	cpu := 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
			cpu = p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Cpu: cpu, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
