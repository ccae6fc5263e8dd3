// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (Chapters VIII–XIII) on the
// simulated machine.  Each experiment is a function that runs the paper's
// workload at a configurable scale and returns the series of rows the paper
// plots; cmd/pcfbench prints them and the root-level Go benchmarks wrap them
// for `go test -bench`.
//
// Absolute times differ from the paper's Cray XT4 / IBM P5 numbers — the
// substrate here is a single-process simulation — but the relations the
// paper reports (local ≪ remote, async < split-phase < sync, native view <
// balanced view, pList constant-time updates vs. pVector shifts, forwarding
// vs. closed-form translation, pMatrix vs. composed containers) are
// reproduced; EXPERIMENTS.md records the comparison.
package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/runtime"
)

// Row is one measurement of an experiment: one point of one series of one
// figure.
type Row struct {
	Experiment string  // e.g. "fig30"
	Series     string  // e.g. "get_element (sync)"
	Param      string  // x-axis label, e.g. "P=4 N=100000" or "remote=25%"
	Value      float64 // measured value
	Unit       string  // "ms", "ops/s", "bytes", ...
}

// String formats the row as a report line.
func (r Row) String() string {
	return fmt.Sprintf("%-8s %-38s %-28s %12.3f %s", r.Experiment, r.Series, r.Param, r.Value, r.Unit)
}

// Config scales every experiment.  The defaults keep the full suite in the
// order of a minute on a laptop; increase ElementsPerLocation / Locations to
// stress the machine harder.
type Config struct {
	// Locations is the list of machine sizes (processor counts) swept by
	// the scaling experiments.
	Locations []int
	// ElementsPerLocation is the weak-scaling unit: containers hold
	// ElementsPerLocation × P elements.
	ElementsPerLocation int64
	// GraphScale is the log2 number of vertices of the SSCA2 graphs.
	GraphScale int
	// Transport builds the interconnect every experiment machine uses.  Nil
	// keeps the runtime default (the PCF_TRANSPORT environment variable, or
	// in-process delivery).  Because the machine statistics are counted at
	// logical send time, a deterministic experiment must report identical
	// counter rows over every transport — the cross-transport equivalence
	// suite in bench_transport_test.go asserts exactly that.
	Transport runtime.TransportFactory
}

// DefaultConfig returns the scale used by the committed bench outputs.
func DefaultConfig() Config {
	return Config{
		Locations:           []int{1, 2, 4, 8},
		ElementsPerLocation: 20000,
		GraphScale:          10,
	}
}

// SmallConfig returns a reduced scale suitable for quick runs and unit
// benches.
func SmallConfig() Config {
	return Config{
		Locations:           []int{2, 4},
		ElementsPerLocation: 4000,
		GraphScale:          8,
	}
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID          string
	Description string
	Run         func(cfg Config) []Row
}

// All returns every experiment of the per-experiment index in DESIGN.md, in
// paper order.
func All() []Experiment {
	return []Experiment{
		{"fig27", "pArray constructor time vs input size", Fig27ArrayConstructor},
		{"fig28", "pArray local method invocations vs container size", Fig28ArrayLocalMethods},
		{"fig29", "pArray methods for various input sizes", Fig29ArrayMethodsSizes},
		{"fig30", "pArray set/get/split-phase-get element methods", Fig30ArraySyncAsyncSplit},
		{"fig31", "pArray methods vs percentage of remote invocations", Fig31ArrayRemoteFraction},
		{"fig32", "pArray local and remote invocations vs container size", Fig32ArrayLocalRemote},
		{"fig33", "generic algorithms on pArray (weak scaling)", Fig33ArrayAlgorithms},
		{"fig34", "pArray memory consumption (data vs metadata, Tables XXII/XXIII)", Fig34ArrayMemory},
		{"fig39", "pList methods", Fig39ListMethods},
		{"fig40", "p_for_each/p_generate/p_accumulate on pArray vs pList", Fig40ListVsArrayAlgos},
		{"fig41", "p_for_each weak scaling, packed vs spread placement", Fig41PlacementWeakScaling},
		{"fig42", "pList vs pVector under a dynamic operation mix", Fig42ListVsVectorMix},
		{"fig43", "Euler tour weak scaling", Fig43EulerTourWeakScaling},
		{"fig44", "Euler tour applications", Fig44EulerTourApps},
		{"fig49", "pGraph methods (static vs dynamic) with SSCA2 inputs", Fig49GraphMethods},
		{"fig51", "find-sources across address-translation strategies", Fig51FindSources},
		{"fig52", "pGraph partition address-translation comparison", Fig52GraphPartitions},
		{"fig53", "pGraph algorithms (BFS, components, find-sources)", Fig53GraphAlgorithms},
		{"fig56", "page rank on square vs elongated meshes", Fig56PageRank},
		{"fig59", "MapReduce word count on a Zipf corpus", Fig59MapReduceWordCount},
		{"fig60", "generic algorithms on associative pContainers", Fig60AssociativeAlgos},
		{"fig62", "composition: pArray<pArray>, pList<pArray>, pMatrix row-min", Fig62Composition},
		{"bulk", "bulk element operations vs per-element RMIs", BulkVsElementwise},
		{"matrix", "pMatrix 2-D kernels: coarsened matvec/matmul vs element-wise, 2-D jacobi, relayout", MatrixKernels},
		{"views", "composable pView algebra: coarsened vs elementwise, zip, overlap halo, segmented", ViewsComposition},
		{"redist", "redistribution and load balancing: skew, rebalance, traffic", RedistributeRebalance},
		{"sparse", "storage representations: dense vs compressed resident and migration bytes by density", SparseStorage},
		{"directory", "distributed-directory resolution: cached vs uncached repeat remote access", DirectoryCachedAccess},
		{"ablation-aggregation", "RMI aggregation on/off (design-choice ablation)", AblationAggregation},
		{"ablation-locking", "thread-safety manager policies (design-choice ablation)", AblationLocking},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// SortRows returns the rows ordered by experiment then series (the report
// order); the input is not modified.
func SortRows(rows []Row) []Row {
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Experiment != sorted[j].Experiment {
			return sorted[i].Experiment < sorted[j].Experiment
		}
		return sorted[i].Series < sorted[j].Series
	})
	return sorted
}

// PrintRows writes rows grouped by experiment and series.
func PrintRows(rows []Row) {
	for _, r := range SortRows(rows) {
		fmt.Println(r)
	}
}

// maxElapsed returns the maximum elapsed time across all locations since
// each location's start instant (the paper reports the maximum over
// processors).  Collective.
func maxElapsed(loc *runtime.Location, start time.Time) time.Duration {
	us := time.Since(start).Microseconds()
	return time.Duration(runtime.AllReduceMax(loc, us)) * time.Microsecond
}

// ms converts a duration to milliseconds for report rows.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// machine builds a machine with the default RTS configuration over the
// experiment configuration's transport.
func machine(cfg Config, p int) *runtime.Machine {
	rcfg := runtime.DefaultConfig()
	rcfg.Transport = cfg.Transport
	return runtime.NewMachine(p, rcfg)
}
