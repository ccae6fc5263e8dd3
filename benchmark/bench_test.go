package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The tests run the workloads the way the command does: on one thread.
func TestMain(m *testing.M) {
	singleThread()
	os.Exit(m.Run())
}

// quick runs a workload the way the tests need it: one set-up, a fifth of a
// second of measurement (the issue's 200 ms).  The transport is set explicitly by machineFor, so
// PCF_TRANSPORT in the environment changes nothing here.
func quick(t *testing.T, s *spec, trace bool) *result {
	t.Helper()
	return runWorkload(s, runOpts{seed: 1, seconds: 0.2, setups: 1, trace: trace})
}

// Every workload runs twice on one seed.  Each run must be correct, and the
// traffic per operation must repeat: it is a property of the inputs, not of
// the run, however many rounds each run fitted in.  Messages and bytes are
// held to that on the single-driver workloads only: on the collective ones a
// location's fence may flush a peer's half-filled aggregation buffer, so the
// message count there depends on timing.  The RMI count does not.
func TestWorkloadsAreCorrectAndRepeat(t *testing.T) {
	for _, s := range specs {
		a, b := quick(t, s, false), quick(t, s, false)
		for _, res := range []*result{a, b} {
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s: %d of %d oracle comparisons failed: %s", s.name, res.failed, res.attempted, res.firstFailure)
			}
			for name, v := range endToEndValues(res) {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive finite number", s.name, name, v)
				}
			}
		}
		if s.name == "elem-local" && (a.stats.MessagesSent != 0 || a.stats.RMIsSent != 0) {
			t.Errorf("elem-local sent %d RMIs in %d messages, want none", a.stats.RMIsSent, a.stats.MessagesSent)
		}
		perOp := func(r *result, n int64) float64 { return float64(n) / r.totalOps() }
		if x, y := perOp(a, a.stats.RMIsSent), perOp(b, b.stats.RMIsSent); x != y {
			t.Errorf("%s: RMIs per op %v then %v", s.name, x, y)
		}
		if s.drivers > 1 {
			continue
		}
		if x, y := perOp(a, a.stats.MessagesSent), perOp(b, b.stats.MessagesSent); x != y {
			t.Errorf("%s: messages per op %v then %v", s.name, x, y)
		}
		if x, y := perOp(a, a.stats.BytesSimulated), perOp(b, b.stats.BytesSimulated); x != y {
			t.Errorf("%s: bytes per op %v then %v", s.name, x, y)
		}
	}
}

func TestTracedRunFeedsItsMetrics(t *testing.T) {
	s := findSpec("elem-async")
	res := quick(t, s, true)
	fold := foldSpans(res.recs)
	if fold.spanCount == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, k := range []kind{kArrSet, kArrGetSplit, kHashInsert, kVecInsert, kAddEdge} {
		if fold.perKind[k] <= 0 {
			t.Errorf("no self time for %s", kinds[k].name)
		}
	}
	var layers float64
	for _, ns := range fold.perLayer {
		layers += ns
	}
	if math.Abs(layers-fold.totalNs) > 1e-6*fold.totalNs {
		t.Errorf("layer self times sum to %v ns, the top-level spans to %v ns", layers, fold.totalNs)
	}
}

// The probes drive two locations at once (the collectives); running them here
// puts them under the race detector.  Every listed metric that no span kind
// and no counter feeds must come from a probe.
func TestProbesFeedTheirMetrics(t *testing.T) {
	probes := runProbes(1)
	for _, name := range []string{
		"partition.balanced_find_ns", "core.resolve_bulk_ns_per_elem", "core.lock_bracket_ns",
		"core.directory.cached_resolve_ns", "bcontainer.array_get_ns", "bcontainer.csr_row_ns_per_nnz",
		"runtime.sync_rmi_ns", "runtime.async_rmi_ns", "runtime.split_rmi_ns", "runtime.bulk_rmi_ns",
		"runtime.future_wait_ns", "runtime.fence_us", "runtime.onesided_fence_us", "runtime.barrier_us",
		"runtime.allreduce_us", "runtime.broadcast_us", "runtime.execute_us.inproc", "runtime.execute_us.tcp",
		"transport.codec_encode_ns", "transport.frame_decode_ns", "transport.reliable_send_ns",
		"transport.tcp_rtt_us", "transport.tcp_stream_ns_per_frame", "probe.urgent_roundtrip_ns",
	} {
		if v, ok := probes[name]; !ok || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("probe %s = %v, want a positive finite number", name, v)
		}
	}
	for _, name := range []string{
		"core.invoke_local_overhead_ns", "core.invoke_remote_overhead_ns",
		"transport.protocol_overhead_us", "transport.socket_overhead_us",
	} {
		if v, ok := probes[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("residual %s = %v, want a finite number", name, v)
		}
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	r := newRecorder(true, 8, 0)
	r.spans = append(r.spans,
		span{kind: kRound, n: 1, parent: -1, start: 100, end: 1100},
		span{kind: kArrSet, n: 4, parent: 0, start: 200, end: 600},
		span{kind: kOSF, n: 1, parent: 0, start: 700, end: 1000},
		span{kind: kArrSet, n: 1, parent: 0, start: 1050}, // still open: ignored
	)
	f := foldSpans([]*recorder{r, nil})
	if got := f.perKind[kRound]; got != 300 {
		t.Errorf("round self = %v, want 1000-400-300", got)
	}
	if got := f.perKind[kArrSet]; got != 100 {
		t.Errorf("per-call self of a 4-call span = %v, want 400/4", got)
	}
	if f.perLayer["runtime"] != 300 || f.totalNs != 1000 || f.spanCount != 3 {
		t.Errorf("fold = %+v", f)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	// statistics.quantiles([40, 10, 30, 20], n=4) == [12.5, 25.0, 37.5]
	if q1, med, q3 := quartiles(xs); q1 != 12.5 || med != 25 || q3 != 37.5 {
		t.Errorf("quartiles = %v %v %v, want 12.5 25 37.5", q1, med, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, med, q3 := quartiles(ten); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if xs[0] != 40 {
		t.Error("quartiles sorted its argument")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
	sorted := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for q, want := range map[float64]float64{0: 1, 0.5: 6, 0.99: 10.9, 1: 11} {
		if got := quantileSorted(sorted, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile %v = %v, want %v", q, got, want)
		}
	}
}

func TestBalanceMixReturnsToStart(t *testing.T) {
	// insert, delete, delete(no element), insert(never deleted), read
	ops := []listOp{{kind: 2}, {kind: 3}, {kind: 3}, {kind: 2}, {kind: 0}}
	balanceMix(ops)
	want := []int{2, 3, 0, 0, 0}
	for i, op := range ops {
		if int(op.kind) != want[i] {
			t.Errorf("op %d = %d, want %d", i, op.kind, want[i])
		}
	}
}

// benchmarkJSON mirrors the schema of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	for i, s := range specs {
		if b.Workloads[i].Name != s.name || b.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their why differs)", i, b.Workloads[i].Name, s.name)
		}
		if !name.MatchString(s.name) || len(s.why) > 200 {
			t.Errorf("workload %q: bad name, or why longer than 200 characters (%d)", s.name, len(s.why))
		}
	}
	check := func(what string, defs []metricDef, listed []jsonMetric, bounded bool) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", what, len(listed), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", what, i, l, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", what, d.name, d.unit)
			}
			seen[d.name] = true
			if bounded && (l.Bound == nil || *l.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the benchmark (must be in (0, 0.25])", what, d.name, l.Bound, d.bound)
			}
			if !bounded && l.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", what, d.name)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd, true)
	check("per_layer", perLayer, b.PerLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}

	// Every per-layer metric a span kind feeds must be a listed one.
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.name] = true
	}
	for _, k := range kinds {
		if k.metric != "" && !listed[k.metric] {
			t.Errorf("span kind %q feeds %q, which is not a per-layer metric", k.name, k.metric)
		}
	}
}
