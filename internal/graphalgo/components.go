package graphalgo

import (
	"maps"
	"sync"

	"repro/internal/containers/pgraph"
	"repro/internal/runtime"
)

// ccEngine holds per-location connected-component labels.
type ccEngine struct {
	mu      sync.Mutex
	label   map[int64]int64
	changed bool
}

func (e *ccEngine) propose(vd, label int64) {
	e.mu.Lock()
	if cur, ok := e.label[vd]; ok && label < cur {
		e.label[vd] = label
		e.changed = true
	}
	e.mu.Unlock()
}

// endRound reports (as 0 or 1, ready to be summed) whether a proposal lowered
// a local label since the last call, clears the flag and copies the labels —
// one critical section, so the verdict on a round and the labels the next
// round pushes are the same cut.
func (e *ccEngine) endRound() (changed int64, snapshot map[int64]int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.changed {
		changed, e.changed = 1, false
	}
	return changed, maps.Clone(e.label)
}

// ConnectedComponents labels every vertex with the smallest vertex
// descriptor in its (weakly) connected component using iterative label
// propagation, and returns each location's labels for its local vertices.
// For directed graphs the propagation follows out-edges only, so it computes
// reachability-based components; build the graph undirected to get the
// standard weakly connected components.  Collective.
//
// Every round pushes a snapshot taken while no proposal can be in flight —
// before the first fence, then between a round's fence and its reduction —
// so a label travels exactly one edge per round and the number of rounds
// depends on the graph alone, not on which location runs ahead.
func ConnectedComponents[VP any, EP any](loc *runtime.Location, g *pgraph.Graph[VP, EP]) map[int64]int64 {
	eng := &ccEngine{label: make(map[int64]int64)}
	h := loc.RegisterObject(eng)
	loc.Barrier()

	// Initialise every local vertex's label with its own descriptor.
	for _, vd := range g.LocalVertices() {
		eng.label[vd] = vd
	}
	_, snapshot := eng.endRound()
	loc.Fence()

	for {
		// Push every local vertex's label to its neighbours.
		for vd, lbl := range snapshot {
			lbl := lbl
			g.Visit(vd, func(og *pgraph.Graph[VP, EP], v *pgraph.Vertex[VP, EP]) {
				for _, e := range v.Edges {
					tgt := e.Target
					og.Visit(tgt, func(tg *pgraph.Graph[VP, EP], tv *pgraph.Vertex[VP, EP]) {
						tg.Location().Object(h).(*ccEngine).propose(tv.Descriptor, lbl)
					})
				}
			})
		}
		loc.Fence()

		var changed int64
		changed, snapshot = eng.endRound()
		if runtime.AllReduceSum(loc, changed) == 0 {
			break
		}
	}

	// Nothing changed anywhere in the last round: its snapshot is the result.
	loc.UnregisterObject(h)
	loc.Barrier()
	return snapshot
}

// NumComponents counts the distinct component labels across the machine.
// It is a collective helper over the result of ConnectedComponents.
func NumComponents(loc *runtime.Location, labels map[int64]int64) int64 {
	// A component is counted by the location owning the vertex whose
	// descriptor equals the label (each component has exactly one such
	// representative vertex).
	var local int64
	for vd, lbl := range labels {
		if vd == lbl {
			local++
		}
	}
	return runtime.AllReduceSum(loc, local)
}
