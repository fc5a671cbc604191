// Command rptrace post-processes JSONL trace spills written by the JSONL
// sink (rp.NewJSONLSink / obs.NewJSONL).
//
// Usage:
//
//	rptrace export [-o trace.json] [run.jsonl]   Perfetto/Chrome trace-event export
//	rptrace stats [run.jsonl]                    streaming summary (Fold replay)
//	rptrace top [-n 10] [run.jsonl]              longest task executions
//	rptrace blame [run.jsonl]                    makespan blame decomposition
//	rptrace critpath [-n 25] [run.jsonl]         causal critical chain
//	rptrace shards [run.jsonl]                   per-shard window telemetry table
//	rptrace validate [trace.json]                check a trace-event export
//	rptrace promcheck [-require a,b] [scrape]    parse a Prometheus exposition
//
// Input defaults to stdin so spills pipe straight through:
//
//	rptrace export -o trace.json run.jsonl
//	# open trace.json in ui.perfetto.dev or chrome://tracing
//
// All subcommands stream: memory stays O(1) in the record count (top keeps
// only its N-element heap).
package main

import (
	"container/heap"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rpgo/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "export":
		err = cmdExport(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "blame":
		err = cmdBlame(os.Args[2:])
	case "critpath":
		err = cmdCritpath(os.Args[2:])
	case "shards":
		err = cmdShards(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "promcheck":
		err = cmdPromcheck(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rptrace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rptrace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  rptrace export [-o trace.json] [run.jsonl]   Perfetto trace-event export
  rptrace stats [run.jsonl]                    streaming summary
  rptrace top [-n 10] [run.jsonl]              longest task executions
  rptrace blame [run.jsonl]                    makespan blame decomposition
  rptrace critpath [-n 25] [run.jsonl]         causal critical chain
  rptrace shards [run.jsonl]                   per-shard window telemetry table
  rptrace validate [trace.json]                check a trace-event export
  rptrace promcheck [-require a,b] [scrape]    parse a Prometheus exposition
`)
}

// openInput returns the first positional arg as a reader, or stdin.
func openInput(args []string) (io.ReadCloser, error) {
	if len(args) == 0 || args[0] == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(args[0])
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	pw := obs.NewPerfettoWriter(w)
	records := 0
	if err := obs.ReadRecords(in, func(rec *obs.Record) error {
		records++
		pw.Record(rec)
		return nil
	}); err != nil {
		return err
	}
	if err := pw.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rptrace: %d records -> %d trace events\n", records, pw.Events())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	f := obs.NewFold()
	records := 0
	if err := obs.ReadRecords(in, func(rec *obs.Record) error {
		records++
		switch {
		case rec.Task != nil:
			f.OnTask(rec.Task.Trace())
		case rec.Transfer != nil:
			f.OnTransfer(rec.Transfer.Trace())
		case rec.Request != nil:
			f.OnRequest(rec.Request.Trace())
		}
		return nil
	}); err != nil {
		return err
	}
	if records == 0 {
		return fmt.Errorf("empty spill: no records (wrong file, or a run that never flushed its sink?)")
	}

	tp := f.Throughput()
	fmt.Printf("tasks      %d (failed %d, ran %d, retries %d)\n", f.Tasks(), f.Failed(), f.Ran(), f.Retries())
	fmt.Printf("makespan   %.1fs\n", f.Makespan().Seconds())
	fmt.Printf("throughput avg %.1f t/s, peak(1s) %.0f t/s over %.1fs\n", tp.Avg, tp.Peak, tp.Span.Seconds())
	fmt.Printf("exec dur   mean %.3fs, p50 %.3fs, p99 %.3fs\n",
		f.MeanDuration(), f.DurationQuantile(0.50), f.DurationQuantile(0.99))
	if f.Transfers() > 0 {
		in, out := f.BytesStaged()
		hits, misses := f.DataLocality()
		fmt.Printf("transfers  %d, %.1f MB moved (staged in %.1f MB, out %.1f MB)\n",
			f.Transfers(), mb(f.TransferBytes()), mb(in), mb(out))
		fmt.Printf("locality   %d hits / %d misses\n", hits, misses)
	}
	if f.Requests() > 0 {
		fmt.Printf("requests   %d (failed %d), latency p50 %.3fs p99 %.3fs, wait p50 %.3fs, mean batch %.1f\n",
			f.Requests(), f.RequestsFailed(), f.LatencyQuantile(0.50), f.LatencyQuantile(0.99),
			f.QueueWaitQuantile(0.50), f.MeanBatch())
	}
	return nil
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// durHeap is a min-heap of the N longest task executions seen so far.
type durHeap []topEntry

type topEntry struct {
	uid     string
	backend string
	dur     int64
	start   int64
}

func (h durHeap) Len() int           { return len(h) }
func (h durHeap) Less(i, j int) bool { return h[i].dur < h[j].dur }
func (h durHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *durHeap) Push(x any)        { *h = append(*h, x.(topEntry)) }
func (h *durHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 10, "how many tasks to list")
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	var h durHeap
	if err := obs.ReadRecords(in, func(rec *obs.Record) error {
		t := rec.Task
		if t == nil || t.Start < 0 || t.End < t.Start {
			return nil
		}
		e := topEntry{uid: t.UID, backend: t.Backend, dur: t.End - t.Start, start: t.Start}
		if len(h) < *n {
			heap.Push(&h, e)
		} else if *n > 0 && e.dur > h[0].dur {
			h[0] = e
			heap.Fix(&h, 0)
		}
		return nil
	}); err != nil {
		return err
	}

	sort.Slice(h, func(i, j int) bool { return h[i].dur > h[j].dur })
	fmt.Printf("%-14s %-10s %12s %12s\n", "uid", "backend", "start [s]", "exec [s]")
	for _, e := range h {
		fmt.Printf("%-14s %-10s %12.3f %12.3f\n",
			e.uid, e.backend, float64(e.start)/1e6, float64(e.dur)/1e6)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	n, err := obs.ValidateTraceEvents(in)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("empty trace: no events (truncated export?)")
	}
	fmt.Printf("rptrace: %d trace events valid\n", n)
	return nil
}

func cmdShards(args []string) error {
	fs := flag.NewFlagSet("shards", flag.ExitOnError)
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	var recs []obs.ShardRecord
	records := 0
	if err := obs.ReadRecords(in, func(rec *obs.Record) error {
		records++
		if rec.Shard != nil {
			recs = append(recs, *rec.Shard)
		}
		return nil
	}); err != nil {
		return err
	}
	if records == 0 {
		return fmt.Errorf("empty spill: no records (wrong file, or a run that never flushed its sink?)")
	}
	if len(recs) == 0 {
		return fmt.Errorf("spill has %d records but no shard records — run on a sharded session (rpsim -exp impeccable_flux -trace)", records)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Shard < recs[j].Shard })
	fmt.Print(obs.RenderShardTable(recs))
	return nil
}

func cmdPromcheck(args []string) error {
	fs := flag.NewFlagSet("promcheck", flag.ExitOnError)
	require := fs.String("require", "", "comma-separated sample names that must be present with a nonzero value")
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	samples, err := obs.ParseExposition(in)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("empty exposition: no samples (did the run publish a snapshot?)")
	}
	byName := make(map[string]float64)
	for _, s := range samples {
		// Any labeled variant satisfies a bare-name requirement; keep the
		// largest value so zero-valued variants don't mask a live one.
		if v, ok := byName[s.Name]; !ok || s.Value > v {
			byName[s.Name] = s.Value
		}
	}
	var missing, zero []string
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			v, ok := byName[name]
			switch {
			case !ok:
				missing = append(missing, name)
			case v == 0:
				zero = append(zero, name)
			}
		}
	}
	if len(missing) > 0 || len(zero) > 0 {
		return fmt.Errorf("exposition has %d samples but missing %v, zero-valued %v", len(samples), missing, zero)
	}
	fmt.Printf("rptrace: %d samples across %d metric names parse cleanly\n", len(samples), len(byName))
	return nil
}

// readBlame streams a spill's task records through the blame sink.
func readBlame(in io.Reader) (*obs.Blame, error) {
	b := obs.NewBlame()
	records := 0
	if err := obs.ReadRecords(in, func(rec *obs.Record) error {
		records++
		if rec.Task != nil {
			b.OnTask(rec.Task.Trace())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if records == 0 {
		return nil, fmt.Errorf("empty spill: no records (wrong file, or a run that never flushed its sink?)")
	}
	if b.Tasks() == 0 {
		return nil, fmt.Errorf("spill has %d records but no task records — blame needs tasks", records)
	}
	return b, nil
}

func cmdBlame(args []string) error {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	b, err := readBlame(in)
	if err != nil {
		return err
	}
	rep := b.Report()
	rep.WriteText(os.Stdout)
	return nil
}

func cmdCritpath(args []string) error {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	n := fs.Int("n", 25, "how many chain links to list")
	fs.Parse(args)
	in, err := openInput(fs.Args())
	if err != nil {
		return err
	}
	defer in.Close()

	b, err := readBlame(in)
	if err != nil {
		return err
	}
	rep := b.Report()
	fmt.Printf("makespan %.6fs across %d tasks; chain of %d links (latest first)\n",
		rep.Makespan.Seconds(), rep.Tasks, len(rep.Chain))
	fmt.Printf("%-24s %14s %14s %12s\n", "uid", "submit [s]", "final [s]", "gap [s]")
	for i, l := range rep.Chain {
		if i >= *n {
			fmt.Printf("… %d more\n", len(rep.Chain)-*n)
			break
		}
		fmt.Printf("%-24s %14.6f %14.6f %12.6f\n",
			l.UID, l.From.Seconds(), l.To.Seconds(), l.Gap.Seconds())
	}
	return nil
}
