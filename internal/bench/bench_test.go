package bench

import (
	"strings"
	"testing"

	"repro/internal/containers/parray"
	"repro/internal/runtime"
)

// tinyConfig keeps the smoke test of the experiment harness fast.
func tinyConfig() Config {
	return Config{Locations: []int{2}, ElementsPerLocation: 300, GraphScale: 6}
}

func TestAllExperimentsProduceRows(t *testing.T) {
	cfg := tinyConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rows := e.Run(cfg)
			if len(rows) == 0 {
				t.Fatalf("experiment %s produced no rows", e.ID)
			}
			for _, r := range rows {
				if r.Experiment != e.ID {
					t.Errorf("row tagged %q, want %q", r.Experiment, e.ID)
				}
				if r.Series == "" || r.Param == "" || r.Unit == "" {
					t.Errorf("incomplete row: %+v", r)
				}
				if r.Value < 0 {
					t.Errorf("negative measurement: %+v", r)
				}
				if r.String() == "" {
					t.Error("empty row formatting")
				}
			}
		})
	}
}

func TestFindAndDescriptions(t *testing.T) {
	if _, ok := Find("fig30"); !ok {
		t.Fatal("fig30 not registered")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("unknown experiment found")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
		if !strings.HasPrefix(e.ID, "fig") && !strings.HasPrefix(e.ID, "ablation") &&
			e.ID != "redist" && e.ID != "bulk" && e.ID != "directory" && e.ID != "views" && e.ID != "matrix" &&
			e.ID != "sparse" {
			t.Errorf("unexpected experiment id %s", e.ID)
		}
	}
	// Every figure of the paper's evaluation chapters is covered.
	for _, id := range []string{"fig27", "fig28", "fig29", "fig30", "fig31", "fig32", "fig33", "fig34",
		"fig39", "fig40", "fig41", "fig42", "fig43", "fig44", "fig49", "fig51", "fig52", "fig53",
		"fig56", "fig59", "fig60", "fig62"} {
		if !seen[id] {
			t.Errorf("figure %s has no experiment", id)
		}
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	s := SmallConfig()
	if len(d.Locations) == 0 || len(s.Locations) == 0 {
		t.Fatal("configs must sweep at least one machine size")
	}
	if d.ElementsPerLocation <= s.ElementsPerLocation {
		t.Fatal("default config should be larger than the small config")
	}
}

func TestFig30ShowsLocalRemoteShape(t *testing.T) {
	// The paper's qualitative result is that asynchronous remote writes are
	// cheaper than synchronous remote reads.  Which of two elapsed times is
	// the smaller depends on the host's load; the cause does not: writes to
	// one neighbour leave in aggregated batches, every blocking read is a
	// request and a reply of its own.
	const p, ops = 4, 2000
	rcfg := runtime.DefaultConfig()
	rcfg.Transport = runtime.InprocTransport
	m := runtime.NewMachine(p, rcfg)
	var sets, gets runtime.Stats
	m.Execute(func(loc *runtime.Location) {
		a := parray.New[int64](loc, p*ops)
		base := int64((loc.ID()+1)%p) * ops // the next location's block
		loc.Fence()
		section := func(delta *runtime.Stats, body func(k int64)) {
			before := m.Stats()
			loc.Barrier()
			for k := int64(0); k < ops; k++ {
				body(k)
			}
			loc.Fence()
			if loc.ID() == 0 {
				*delta = m.Stats().Sub(before)
			}
			loc.Barrier()
		}
		section(&sets, func(k int64) { a.Set(base+k, k) })
		section(&gets, func(k int64) {
			if got := a.Get(base + k); got != k {
				t.Errorf("element %d reads %d after the fence, want %d", base+k, got, k)
			}
		})
	})
	batches := int64((ops+rcfg.Aggregation-1)/rcfg.Aggregation + 1)
	if sets.RMIsSent != p*ops || sets.MessagesSent > p*batches {
		t.Errorf("%d asynchronous writes per location left as %d RMIs in %d messages, want at most %d messages per location (aggregation %d)",
			ops, sets.RMIsSent, sets.MessagesSent, batches, rcfg.Aggregation)
	}
	if gets.RMIsSent != p*ops || gets.MessagesSent != 2*p*ops {
		t.Errorf("%d blocking reads per location left as %d RMIs in %d messages, want a request and a reply each", ops, gets.RMIsSent, gets.MessagesSent)
	}
}

func TestRedistRebalancesBelowThreshold(t *testing.T) {
	// Acceptance shape of the redistribution subsystem: every family
	// starts from a measurable skew and the advisor's proposal brings the
	// imbalance factor to at most 1.1x.
	cfg := Config{Locations: []int{4}, ElementsPerLocation: 2000, GraphScale: 6}
	rows := RedistributeRebalance(cfg)
	var checkedBefore, checkedAfter int
	for _, r := range rows {
		switch {
		case strings.Contains(r.Series, "imbalance (before)"):
			checkedBefore++
			if r.Value < 1.5 {
				t.Errorf("%s %s: expected a skewed start, got %.3fx", r.Series, r.Param, r.Value)
			}
		case strings.Contains(r.Series, "imbalance (after)"):
			checkedAfter++
			if r.Value > 1.1 {
				t.Errorf("%s %s: rebalance left imbalance %.3fx > 1.1x", r.Series, r.Param, r.Value)
			}
		}
	}
	if checkedBefore != 5 || checkedAfter != 5 {
		t.Fatalf("expected 5 before and 5 after measurements, got %d/%d", checkedBefore, checkedAfter)
	}
}

func TestViewCoarseningMessageReduction(t *testing.T) {
	// Acceptance floor of the pView algebra: pAlgorithm kernels over
	// coarsened composed views must issue at least 5x fewer messages than
	// element-wise traversal of the same views at the default aggregation
	// factor (16).  The element-wise path pays one request per element
	// (amortised 16x by aggregation, plus two messages per synchronous
	// read); the coarsened path walks native chunks in place and ships the
	// remote remainder as one grouped request per (chunk, owner) pair.
	cfg := Config{Locations: []int{4}, ElementsPerLocation: 2000, GraphScale: 6}
	rows := ViewsComposition(cfg)
	vals := map[string]float64{}
	for _, r := range rows {
		vals[r.Series] = r.Value
	}
	for _, kernel := range []struct{ elem, coar string }{
		{"p_for_each messages (elementwise)", "p_for_each messages (coarsened)"},
		{"axpy messages (elementwise)", "axpy messages (zip coarsened)"},
	} {
		elem, okE := vals[kernel.elem]
		coar, okC := vals[kernel.coar]
		if !okE || !okC {
			t.Fatalf("missing series %q/%q in %+v", kernel.elem, kernel.coar, rows)
		}
		if coar <= 0 {
			t.Fatalf("%s = %v, expected remote traffic", kernel.coar, coar)
		}
		if elem < 5*coar {
			t.Errorf("%s=%v vs %s=%v: want >= 5x fewer messages", kernel.elem, elem, kernel.coar, coar)
		}
	}
	// The native path of the composed views stays message-free.
	if v := vals["segmented zip reduce messages"]; v != 0 {
		t.Errorf("segmented zip reduce sent %v messages, want 0", v)
	}
	if v := vals["dot messages (zip native)"]; v != 0 {
		t.Errorf("zip-native dot sent %v messages, want 0", v)
	}
}

func TestMatrixMessageReduction(t *testing.T) {
	// Acceptance floor of the pMatrix promotion: the coarsened 2-D kernels
	// must issue at least 5x fewer messages than element-wise traversal of
	// the same matrices at the default aggregation factor.  The element-wise
	// paths pay one request per remote x / B element (two messages per
	// synchronous read); the blocked paths move x strips / B panels as one
	// grouped request per owner and flush partials as one bulk RMI per
	// destination per panel.
	cfg := Config{Locations: []int{4}, ElementsPerLocation: 2000, GraphScale: 6}
	rows := MatrixKernels(cfg)
	vals := map[string]float64{}
	for _, r := range rows {
		vals[r.Series] = r.Value
	}
	for _, kernel := range []struct{ elem, coar string }{
		{"matvec messages (elementwise)", "matvec messages (coarsened)"},
		{"matmul messages (elementwise)", "matmul messages (blocked)"},
	} {
		elem, okE := vals[kernel.elem]
		coar, okC := vals[kernel.coar]
		if !okE || !okC {
			t.Fatalf("missing series %q/%q in %+v", kernel.elem, kernel.coar, rows)
		}
		if coar <= 0 {
			t.Fatalf("%s = %v, expected remote traffic", kernel.coar, coar)
		}
		if elem < 5*coar {
			t.Errorf("%s=%v vs %s=%v: want >= 5x fewer messages", kernel.elem, elem, kernel.coar, coar)
		}
	}
	// The Jacobi row-halo exchange stays bounded: a handful of grouped
	// requests per sweep, not one per boundary element.
	if v, ok := vals["jacobi2d messages/sweep"]; !ok || v <= 0 {
		t.Errorf("jacobi2d messages/sweep = %v, expected halo traffic", v)
	}
}

func TestDirectoryRMIReduction(t *testing.T) {
	// Acceptance shape of the directory resolution cache: on the repeat
	// remote reads of the method-forwarding triangle the cached mode must
	// issue measurably fewer RMIs and messages than the pure forwarding
	// path.  The analytic expectation with 8 rounds is 1.6x for RMIs and
	// ~1.26x for messages (response accounting dilutes the message ratio);
	// the floors (1.4x RMIs, 1.15x messages) leave room for aggregation
	// noise while staying far above break-even.
	cfg := Config{Locations: []int{4}, ElementsPerLocation: 2000, GraphScale: 6}
	rows := DirectoryCachedAccess(cfg)
	want := map[string]float64{}
	for _, r := range rows {
		want[r.Series] = r.Value
	}
	rmiRed, ok := want["rmi reduction"]
	if !ok {
		t.Fatalf("missing rmi reduction row: %+v", rows)
	}
	if rmiRed < 1.4 {
		t.Errorf("cached repeat remote reads should cut RMIs by at least 1.4x, got %.2fx", rmiRed)
	}
	msgRed, ok := want["message reduction"]
	if !ok {
		t.Fatalf("missing message reduction row: %+v", rows)
	}
	if msgRed < 1.15 {
		t.Errorf("cached repeat remote reads should cut messages by at least 1.15x, got %.2fx", msgRed)
	}
	if want["rmis (cached)"] >= want["rmis (uncached)"] {
		t.Errorf("cached path issued %v RMIs, uncached %v — cache bought nothing",
			want["rmis (cached)"], want["rmis (uncached)"])
	}
}
