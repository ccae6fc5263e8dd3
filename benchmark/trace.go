package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// The span recorder measures each layer FROM OUTSIDE: the harness wraps every
// call it makes into an exported function of the program in a span, and a
// layer's time is the self time of its spans (duration minus the part its
// child spans cover).  Spans inside the program are a later issue; until
// then a container span contains the core/runtime/transport work below it,
// and the isolated probes (probes.go) are what split that further.

// epoch anchors every timestamp of a process to one monotonic origin.
var epoch = time.Now()

// now returns monotonic nanoseconds since the process epoch.
func now() int64 { return int64(time.Since(epoch)) }

// kind identifies what a span wraps.  Kinds are declared once, at package
// initialisation, next to the workload that uses them.
type kind uint16

type kindInfo struct {
	name  string // the call wrapped, e.g. "parray.Get/remote"
	layer string // module name, or "harness" for the harness's own structure
	// metric is the per-layer metric the span feeds ("" for none): the median
	// over spans of self time ÷ calls covered, in nanoseconds ÷ scale.
	metric string
	scale  float64
}

var kinds []kindInfo

func newKind(name, layer, metric string, scale float64) kind {
	kinds = append(kinds, kindInfo{name: name, layer: layer, metric: metric, scale: scale})
	return kind(len(kinds) - 1)
}

// Structural kinds every workload shares.
var (
	kRound = newKind("round", "harness", "", 0)
	kFence = newKind("Location.Fence", "runtime", "", 0)
	kOSF   = newKind("Location.OneSidedFence", "runtime", "", 0)
)

// span is one recorded interval.  n is the number of calls it covers: 1 for
// a call that lasts about a microsecond or more, the batch size where the
// harness times a run of nanosecond-scale local calls as one interval (two
// clock reads per 20 ns call would measure the clock).
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span on this location, -1 at top level
	round      int32
	n          int32
	kind       kind
}

// maxSpans bounds one location's span buffer (32 B each).  A traced run ends
// early when a buffer fills: by then every kind has thousands of samples.
const maxSpans = 1 << 19

// maxSamples bounds one location's latency-sample buffer.
const maxSamples = 1 << 22

// recorder is one location's measurement state.  It is owned by that
// location's SPMD goroutine; nothing in it is shared.  Both buffers are
// allocated before the first round, so recording never allocates.
type recorder struct {
	tracing bool
	spans   []span
	open    int32 // innermost open span, -1 when none
	round   int32
	full    bool

	lat        []int32 // latency samples in nanoseconds
	latDropped int64
}

func newRecorder(tracing bool, spanCap, sampleCap int) *recorder {
	r := &recorder{tracing: tracing, open: -1, lat: make([]int32, 0, sampleCap)}
	if tracing {
		r.spans = make([]span, 0, spanCap)
	}
	return r
}

// begin opens a span covering n calls of kind k and returns its index (-1
// when tracing is off, which is all the untraced run pays: one branch).
func (r *recorder) begin(k kind, n int) int32 {
	if !r.tracing {
		return -1
	}
	return r.beginSlow(k, n)
}

func (r *recorder) beginSlow(k kind, n int) int32 {
	if len(r.spans) == cap(r.spans) {
		r.full = true
		return -1
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{parent: r.open, round: r.round, n: int32(n), kind: k, start: now()})
	r.open = i
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if i >= 0 {
		s := &r.spans[i]
		s.end = now()
		r.open = s.parent
	}
}

// sample records one latency observation.
func (r *recorder) sample(ns int64) {
	if len(r.lat) == cap(r.lat) {
		r.latDropped++
		return
	}
	r.lat = append(r.lat, int32(min(ns, 1<<31-1)))
}

// traceFold is what a traced run's spans reduce to.
type traceFold struct {
	perKind   map[kind]float64   // median self ns per call
	perLayer  map[string]float64 // summed self ns
	totalNs   float64            // summed top-level span time (all locations)
	spanCount int
}

// foldSpans computes self times.  Spans nest strictly per location (begin/end
// are a stack), so a span's children are exactly the spans naming it parent.
func foldSpans(recs []*recorder) traceFold {
	f := traceFold{perKind: map[kind]float64{}, perLayer: map[string]float64{}}
	perCall := map[kind][]float64{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.end == 0 {
				continue // left open by an early stop
			}
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			if s.end == 0 {
				continue
			}
			self := float64(s.end - s.start - child[i])
			f.perLayer[kinds[s.kind].layer] += self
			if s.parent < 0 {
				f.totalNs += float64(s.end - s.start)
			}
			perCall[s.kind] = append(perCall[s.kind], self/float64(s.n))
			f.spanCount++
		}
	}
	for k, xs := range perCall {
		f.perKind[k] = median(xs)
	}
	return f
}

// printLayerTable prints the per-layer self-time table of a traced run.
func printLayerTable(w *bufio.Writer, name string, f traceFold) {
	fmt.Fprintf(w, "\n  per-layer self time, %s (traced run, %d spans):\n", name, f.spanCount)
	layers := make([]string, 0, len(f.perLayer))
	for l := range f.perLayer {
		layers = append(layers, l)
	}
	slices.SortFunc(layers, func(a, b string) int { return cmp.Compare(f.perLayer[b], f.perLayer[a]) })
	for _, l := range layers {
		fmt.Fprintf(w, "    %-12s %10.3f ms  %5.1f %%\n", l, f.perLayer[l]/1e6, 100*f.perLayer[l]/f.totalNs)
	}
	ks := make([]kind, 0, len(f.perKind))
	for k := range f.perKind {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	fmt.Fprintf(w, "  per-call self time (median):\n")
	for _, k := range ks {
		fmt.Fprintf(w, "    %-12s %-34s %12.1f ns\n", kinds[k].layer, kinds[k].name, f.perKind[k])
	}
}

// chromeSpanLimit bounds the spans written per location, so a trace file
// stays a few megabytes; the first rounds are as good as any.
const chromeSpanLimit = 20000

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X" complete
// events, one thread per location), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(dir, workload string, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for loc, r := range recs {
		if r == nil {
			continue
		}
		for i, s := range r.spans {
			if i >= chromeSpanLimit {
				break
			}
			if s.end == 0 {
				continue
			}
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			k := kinds[s.kind]
			fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"round\":%d,\"calls\":%d,\"parent\":%d}}",
				k.name, k.layer, float64(s.start)/1e3, float64(s.end-s.start)/1e3, loc, s.round, s.n, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace file: %w", err)
	}
	return path, nil
}
