// Command benchmark is the pContainer benchmark of record: five workloads,
// seven bounded end-to-end metrics and a per-layer budget measured from
// outside the program.  See README.md in this directory.
//
// The driver's contract (BENCHMARK.json at the repository root):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a report and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, every per-layer metric with --trace 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	probes   bool
	aa       int
	outDir   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(specNames(), ", ")+"); default: all of them")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured wall time per workload")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run + probes, reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.probes, "probes", false, "run only the isolated layer probes and print them with their residuals")
	fs.IntVar(&o.aa, "aa", 0, "run N complete sets back to back and check every spread against its bound")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory the Chrome trace files are written to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && findSpec(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(specNames(), ", "))
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.aa < 0 {
		return o, fmt.Errorf("need -seconds > 0, -trace 0|1, -aa >= 0")
	}
	return o, nil
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	singleThread()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	ok := run(w, o)
	w.Flush()
	if !ok {
		os.Exit(1)
	}
}

// singleThread makes the simulated machine's locations share one OS thread.
// The host is a few virtual CPUs of a shared machine: with locations on two
// of them a blocking read or a barrier waits for the host to run both at
// once, and an idle one costs a wake-up through the hypervisor, so the
// numbers followed the host's scheduler, not the containers (the same sweep
// ran at 93 M elements/s on two threads and 151 M on one; ten-run spreads of
// 90 % on the host that checks this benchmark).  On one thread a hand-over
// between locations is a goroutine switch, every run interleaves them the
// same way, and what is timed is the work the program does per operation,
// summed over the locations it touches.  What this gives up: speed-up from
// running locations in parallel, and contention between them, are not
// measured.
func singleThread() { goruntime.GOMAXPROCS(1) }

func printHeader(w *bufio.Writer, o options) {
	commit := "unknown"
	if bi, found := debug.ReadBuildInfo(); found {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	fmt.Fprintf(w, "pContainer benchmark  commit=%s  %s  nproc=%d  GOMAXPROCS=%d  GOGC=%s  seed=%d  seconds=%g\n",
		commit, goruntime.Version(), goruntime.NumCPU(), goruntime.GOMAXPROCS(0), gogc, o.seed, o.seconds)
}

// run dispatches the modes and reports whether every result was correct.
func run(w *bufio.Writer, o options) bool {
	printHeader(w, o)
	switch {
	case o.probes:
		printProbes(w, runProbes(o.seed))
		return true
	case o.aa > 0:
		return runAA(w, o)
	}
	list := specs
	if o.workload != "" {
		list = []*spec{findSpec(o.workload)}
	}
	ok := true
	var last map[string]float64
	var lastDefs []metricDef
	var attempted, failed int64
	for _, s := range list {
		if o.trace == 0 {
			res := runWorkload(s, runOpts{seed: o.seed, seconds: o.seconds, setups: setupRuns})
			printResult(w, res)
			last, lastDefs = endToEndValues(res), endToEnd
			attempted, failed = res.attempted, res.failed
		} else {
			plain, values := runTraced(w, s, o)
			last, lastDefs = values, perLayer
			attempted, failed = plain.attempted, plain.failed
		}
		ok = ok && failed == 0
		w.Flush()
	}
	if o.workload != "" {
		printResultLine(w, lastDefs, last, attempted, failed)
	}
	return ok
}

// tracePairs is how many untraced/traced pairs of runs a traced measurement
// alternates.  The host's speed drifts by tens of per cent over seconds to
// minutes; a pair shares its moment, so the share of each pair is a
// measurement of tracing and their median is reported.
const tracePairs = 3

// runTraced produces the per-layer metrics of one workload: alternating
// untraced runs (counters, and the base of trace.overhead_share) and traced
// runs of the same length, then the probes.  A discarded run comes first: the
// first run of a process is slower than the second whether it traces or not.
func runTraced(w *bufio.Writer, s *spec, o options) (*result, map[string]float64) {
	slice := runOpts{seed: o.seed, seconds: o.seconds * 0.1, setups: 1}
	runWorkload(s, slice)
	var plain, traced *result
	var attempted, failed int64
	firstFailure := ""
	shares := make([]float64, tracePairs)
	for i := range shares {
		plain = runWorkload(s, slice)
		tracedSlice := slice
		tracedSlice.trace = true
		traced = runWorkload(s, tracedSlice)
		shares[i] = 1 - traced.ops/plain.ops
		for _, r := range []*result{plain, traced} {
			attempted += r.attempted
			failed += r.failed
			if firstFailure == "" {
				firstFailure = r.firstFailure
			}
		}
	}
	plain.attempted, plain.failed, plain.firstFailure = attempted, failed, firstFailure
	fold := foldSpans(traced.recs)
	probes := runProbes(o.seed)
	values := perLayerValues(plain, traced, fold, probes)
	values["trace.overhead_share"] = median(shares)

	fmt.Fprintf(w, "\n== %s (traced) ==\n", s.name)
	fmt.Fprintf(w, "  trace.overhead_share = %.3f, the median of %.3f over alternating untraced/traced pairs (last pair: %.0f and %.0f ops/s)\n",
		median(shares), shares, plain.ops, traced.ops)
	printLayerTable(w, s.name, fold)
	if path, err := writeChromeTrace(o.outDir, s.name, traced.recs); err != nil {
		fmt.Fprintf(w, "  trace file not written: %v\n", err)
	} else {
		fmt.Fprintf(w, "  Chrome trace: %s\n", path)
	}
	fmt.Fprintf(w, "  per-layer metrics:\n")
	for _, d := range perLayer {
		fmt.Fprintf(w, "    %-48s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	printResiduals(w, probes)
	if plain.failed > 0 {
		fmt.Fprintf(w, "  FAILED: %d of %d oracle comparisons; first: %s\n", plain.failed, plain.attempted, plain.firstFailure)
	}
	return plain, values
}

func printResult(w *bufio.Writer, r *result) {
	s := r.spec
	transportName := "inproc"
	if s.tcp {
		transportName = "tcp (loopback 127.0.0.1)"
	}
	fmt.Fprintf(w, "\n== %s ==  P=%d, %d driving, transport=%s\n", s.name, s.p, s.drivers, transportName)
	fmt.Fprintf(w, "  why: %s\n", s.why)
	fmt.Fprintf(w, "  op = %s; latency unit = %s\n", s.opUnit, s.latUnit)
	fmt.Fprintf(w, "  %d rounds (%d per cycle of %d ops), measured %.2f s; the time metrics are over the %d fastest rounds (1 in %d of each kind) and their %d latency samples (dropped %d)\n",
		r.rounds, s.cycle, s.ops, r.measuredS, r.quietRounds, quietShare, r.samples, r.samplesDropped)
	fmt.Fprintf(w, "  over every round, host and all: ops/s q1 %.0f median %.0f q3 %.0f; p99 %.2f us\n", r.opsQ1, r.opsMedian, r.opsQ3, r.p99usAll)
	if s.cycle > 1 {
		fmt.Fprintf(w, "  mean quiet round of each kind, in cycle order: %.1f us\n", r.kindUs)
	}
	q1, med, q3 := quartiles(r.setupS)
	v := endToEndValues(r)
	for _, d := range endToEnd {
		extra := ""
		switch d.name {
		case "setup_s":
			extra = fmt.Sprintf("   (fastest of %d set-ups; all: q1 %.4f median %.4f q3 %.4f)", len(r.setupS), q1, med, q3)
		}
		fmt.Fprintf(w, "  %-16s %16.4f %-6s%s\n", d.name, v[d.name], d.unit, extra)
	}
	ops := r.totalOps()
	fmt.Fprintf(w, "  %-16s %16.4f %-6s   (exact for a seed on the single-driver workloads)\n", "msgs_per_kop", float64(r.stats.MessagesSent)*1000/ops, "msgs")
	fmt.Fprintf(w, "  %-16s %16.4f %-6s\n", "bytes_per_op", float64(r.stats.BytesSimulated)/ops, "B")
	fmt.Fprintf(w, "  %-16s %16.6f %-6s   (%d of %d oracle comparisons)\n", "failed_ops_share", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.failed, r.attempted)
	if r.failed > 0 {
		fmt.Fprintf(w, "  FAILED: %s\n", r.firstFailure)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResultLine writes the contract's last line.
func printResultLine(w *bufio.Writer, defs []metricDef, values map[string]float64, attempted, failed int64) {
	line := resultLine{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a map of floats and strings always marshals, unless a value is NaN: a harness bug
	}
	fmt.Fprintf(w, "\n%s\n", b)
}
