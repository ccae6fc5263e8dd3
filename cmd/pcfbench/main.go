// Command pcfbench runs the experiment harness that regenerates the tables
// and figures of the paper's evaluation and prints their series as report
// rows.
//
// Usage:
//
//	pcfbench -list
//	pcfbench -experiment fig30 -locations 1,2,4,8 -elements 20000
//	pcfbench -all
//
// Machine-readable output; the benchmark-regression gate is a byte comparison
// of the counter rows with the checked-in file:
//
//	pcfbench -experiment bulk,directory,redist,views -json            # one JSON record per row
//	pcfbench -experiment ... -json -counters > BENCH_baseline.json    # deterministic counter rows only
//	pcfbench -experiment ... -json -counters | cmp - BENCH_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// jsonRow is the machine-readable form of one report row.
type jsonRow struct {
	Experiment string  `json:"experiment"`
	Series     string  `json:"series"`
	Param      string  `json:"param"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
}

// counterUnits are the units whose values count requests, not time: they
// are deterministic for a fixed configuration, which is what lets the CI
// regression gate compare them byte for byte.  Timing rows ("ms") and
// timing-derived ratios ("x") are excluded.
var counterUnits = map[string]bool{
	"msgs": true, "rmis": true, "RMIs": true, "bytes": true, "ops": true,
}

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		all        = flag.Bool("all", false, "run every experiment")
		experiment = flag.String("experiment", "", "comma-separated experiment ids to run (e.g. fig30,fig51)")
		locations  = flag.String("locations", "1,2,4,8", "comma-separated machine sizes to sweep")
		elements   = flag.Int64("elements", 20000, "elements per location (weak-scaling unit)")
		graphScale = flag.Int("graphscale", 10, "log2 of the SSCA2 graph vertex count")
		transportF = flag.String("transport", "", "interconnect for the experiment machines: inproc, wire, tcp, proc, chaos or chaos-tcp (default: PCF_TRANSPORT, else inproc); proc re-executes pcfbench one OS process per location")
		chaosSeed  = flag.Int64("chaos-seed", -1, "reseed the chaos wire's fault schedule (chaos transports only; -1 keeps PCF_CHAOS_SEED / the default)")
		jsonOut    = flag.Bool("json", false, "emit one JSON record per row instead of the report table (includes wire-level fault counters)")
		counters   = flag.Bool("counters", false, "with -json: emit only deterministic counter rows (msgs/rmis/bytes/ops)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Description)
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.ElementsPerLocation = *elements
	cfg.GraphScale = *graphScale
	if *chaosSeed >= 0 {
		// The chaos schedule is resolved from the environment when the
		// transport factory is built, so the flag must land first.
		os.Setenv("PCF_CHAOS_SEED", strconv.FormatInt(*chaosSeed, 10))
	}
	cfg.Locations = nil
	for _, tok := range strings.Split(*locations, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || p <= 0 {
			fmt.Fprintf(os.Stderr, "pcfbench: invalid location count %q\n", tok)
			os.Exit(2)
		}
		cfg.Locations = append(cfg.Locations, p)
	}

	transportName := *transportF
	if transportName == "" {
		transportName = os.Getenv("PCF_TRANSPORT")
	}
	// The wire tap reports the wire-level traffic and fault counters the runs
	// accumulated; it stays nil in multi-process mode, where the transport
	// factory must be the proc one unwrapped (the runtime recognises it by
	// identity) and the counters surface through Machine.WireStats instead.
	var tap *wireTap
	if transportName == "proc" {
		// Multi-process mode.  The parent re-executes itself, one process per
		// location, under the launcher; the children run the experiments over
		// the proc transport and only rank 0 reports.
		rank, nprocs, child := runtime.ProcRank()
		if !child {
			if len(cfg.Locations) != 1 {
				fmt.Fprintf(os.Stderr, "pcfbench: -transport=proc needs a single -locations value (one process per location), got %q\n", *locations)
				os.Exit(2)
			}
			if err := runtime.LaunchSelf(cfg.Locations[0], "PCF_TRANSPORT=proc"); err != nil {
				fmt.Fprintf(os.Stderr, "pcfbench: %v\n", err)
				os.Exit(1)
			}
			return
		}
		runtime.ChildMain()
		defer runtime.ChildDone()
		if len(cfg.Locations) != 1 || cfg.Locations[0] != nprocs {
			fmt.Fprintf(os.Stderr, "pcfbench: proc child of %d processes got -locations %q (must match)\n", nprocs, *locations)
			os.Exit(2)
		}
		cfg.Transport = runtime.ProcTransport
		if rank != 0 {
			// Every rank runs the same experiments (SPMD discipline) and folds
			// the same machine-wide statistics; one report is enough.
			devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pcfbench: %v\n", err)
				os.Exit(2)
			}
			os.Stdout = devnull
		}
	} else {
		if *transportF != "" {
			factory, err := resolveTransport(*transportF)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pcfbench: %v\n", err)
				os.Exit(2)
			}
			cfg.Transport = factory
		} else {
			cfg.Transport = runtime.TransportFromEnv()
		}
		tap = &wireTap{inner: cfg.Transport}
		cfg.Transport = tap.factory
	}

	var selected []bench.Experiment
	switch {
	case *all:
		selected = bench.All()
	case *experiment != "":
		for _, id := range strings.Split(*experiment, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "pcfbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	default:
		fmt.Fprintln(os.Stderr, "pcfbench: pass -all, -experiment <id>, or -list")
		os.Exit(2)
	}

	enc := json.NewEncoder(os.Stdout)
	for _, e := range selected {
		if !*jsonOut {
			fmt.Printf("# %s — %s\n", e.ID, e.Description)
			bench.PrintRows(e.Run(cfg))
			fmt.Println()
			continue
		}
		for _, r := range bench.SortRows(e.Run(cfg)) {
			if *counters && !counterUnits[r.Unit] {
				continue
			}
			if err := enc.Encode(jsonRow{Experiment: r.Experiment, Series: r.Series, Param: r.Param, Value: r.Value, Unit: r.Unit}); err != nil {
				fmt.Fprintf(os.Stderr, "pcfbench: %v\n", err)
				os.Exit(2)
			}
		}
	}
	if *jsonOut && !*counters && tap != nil {
		// Wire-level counters are transport-DEPENDENT by design (they
		// describe the wire, not the workload), so they carry their own
		// "wire" unit: -counters leaves them out, so the baseline's counter
		// rows are byte-identical over every transport.
		for _, r := range tap.rows() {
			if err := enc.Encode(r); err != nil {
				fmt.Fprintf(os.Stderr, "pcfbench: %v\n", err)
				os.Exit(2)
			}
		}
	}
}

// wireTap wraps the selected transport factory so the final WireStats of
// every machine run are accumulated for the harness report.
type wireTap struct {
	inner runtime.TransportFactory

	mu    sync.Mutex
	name  string
	total transport.WireStats
}

func (w *wireTap) factory(m *runtime.Machine) runtime.Transport {
	return tapTransport{Transport: w.inner(m), tap: w}
}

// add folds one run's counters into the tap.
func (w *wireTap) add(name string, s transport.WireStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.name = name
	w.total.Add(s)
}

// rows renders the accumulated wire counters as JSON rows: the protocol and
// fault-injection counters that tell whether (and how hard) the wire was
// exercised, keyed by the wire stack's name.
func (w *wireTap) rows() []jsonRow {
	w.mu.Lock()
	defer w.mu.Unlock()
	series := []struct {
		label string
		value int64
	}{
		{"frames-sent", w.total.FramesSent},
		{"data-frames", w.total.DataFrames},
		{"acks", w.total.Acks},
		{"retransmits", w.total.Retransmits},
		{"duplicates-dropped", w.total.DuplicatesDropped},
		{"out-of-order", w.total.OutOfOrder},
		{"rendezvous-fallbacks", w.total.RendezvousFallbacks},
		{"delayed", w.total.Delayed},
		{"duplicated", w.total.Duplicated},
		{"dropped", w.total.Dropped},
		{"reconnects", w.total.Reconnects},
		{"dial-retries", w.total.DialRetries},
	}
	rows := make([]jsonRow, 0, len(series))
	for _, s := range series {
		rows = append(rows, jsonRow{Experiment: "wirestats", Series: s.label, Param: w.name, Value: float64(s.value), Unit: "wire"})
	}
	return rows
}

// tapTransport forwards everything to the run's real transport and reports
// the final counters when the run tears it down.
type tapTransport struct {
	runtime.Transport
	tap *wireTap
}

func (t tapTransport) Close() error {
	t.tap.add(t.Transport.Name(), t.Transport.WireStats())
	return t.Transport.Close()
}

// resolveTransport maps the -transport flag to a factory by reusing the
// PCF_TRANSPORT resolution table (which panics on unknown names — here that
// becomes a flag error instead of a crash).
func resolveTransport(name string) (factory runtime.TransportFactory, err error) {
	defer func() {
		if r := recover(); r != nil {
			factory, err = nil, fmt.Errorf("invalid -transport %q (want inproc, wire, tcp, proc, chaos or chaos-tcp)", name)
		}
	}()
	os.Setenv("PCF_TRANSPORT", name)
	return runtime.TransportFromEnv(), nil
}
