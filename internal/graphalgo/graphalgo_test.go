package graphalgo

import (
	"math"
	"testing"

	"repro/internal/containers/pgraph"
	"repro/internal/runtime"
	"repro/internal/workload"
)

func run(p int, fn func(loc *runtime.Location)) {
	runtime.NewMachine(p, runtime.DefaultConfig()).Execute(fn)
}

// buildChain creates a directed chain 0 -> 1 -> ... -> n-1.
func buildChain(loc *runtime.Location, n int64) *pgraph.Graph[int64, int8] {
	g := pgraph.New[int64, int8](loc, n)
	if loc.ID() == 0 {
		for v := int64(0); v < n-1; v++ {
			g.AddEdgeAsync(v, v+1, 0)
		}
	}
	loc.Fence()
	return g
}

func TestBFSOnChain(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		g := buildChain(loc, 64)
		res := BFS(loc, g, 0)
		// Every local vertex is reached with level == descriptor.
		for vd, lvl := range res.LocalLevels() {
			if lvl != vd {
				t.Errorf("level(%d) = %d", vd, lvl)
			}
		}
		if n := ReachedCount(loc, res); n != 64 {
			t.Errorf("reached = %d", n)
		}
		if m := MaxLevel(loc, res); m != 63 {
			t.Errorf("max level = %d", m)
		}
		loc.Fence()
	})
}

func TestBFSOnSSCA2ReachesWholeComponent(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		p := workload.DefaultSSCA2(8)
		g := pgraph.New[int64, int8](loc, p.NumVertices())
		workload.BuildSSCA2Static(loc, g, p)
		res := BFS(loc, g, 0)
		reached := ReachedCount(loc, res)
		if reached < 2 {
			t.Errorf("BFS from 0 reached only %d vertices", reached)
		}
		// Level of the root is 0 wherever it is stored.
		if g.IsLocal(0) && res.Level(0) != 0 {
			t.Errorf("root level = %d", res.Level(0))
		}
		loc.Fence()
	})
}

func TestBFSUnreachableVertices(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		// Two disjoint chains: 0..9 and 10..19 (no edge between them).
		g := pgraph.New[int64, int8](loc, 20)
		if loc.ID() == 0 {
			for v := int64(0); v < 9; v++ {
				g.AddEdgeAsync(v, v+1, 0)
			}
			for v := int64(10); v < 19; v++ {
				g.AddEdgeAsync(v, v+1, 0)
			}
		}
		loc.Fence()
		res := BFS(loc, g, 0)
		if n := ReachedCount(loc, res); n != 10 {
			t.Errorf("reached = %d, want 10", n)
		}
		for vd := range res.LocalLevels() {
			if vd >= 10 {
				t.Errorf("unreachable vertex %d was assigned a level", vd)
			}
		}
		loc.Fence()
	})
}

func TestConnectedComponents(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		// Undirected graph with three components: a ring of 8, a path of 4,
		// and 4 isolated vertices.
		g := pgraph.New[int64, int8](loc, 16, pgraph.WithDirected(false))
		if loc.ID() == 0 {
			for v := int64(0); v < 8; v++ {
				g.AddEdgeAsync(v, (v+1)%8, 0)
			}
			for v := int64(8); v < 11; v++ {
				g.AddEdgeAsync(v, v+1, 0)
			}
		}
		loc.Fence()
		labels := ConnectedComponents(loc, g)
		// Local labels must equal the component minimum.
		for vd, lbl := range labels {
			switch {
			case vd < 8 && lbl != 0:
				t.Errorf("vertex %d label %d, want 0", vd, lbl)
			case vd >= 8 && vd < 12 && lbl != 8:
				t.Errorf("vertex %d label %d, want 8", vd, lbl)
			case vd >= 12 && lbl != vd:
				t.Errorf("isolated vertex %d label %d", vd, lbl)
			}
		}
		if n := NumComponents(loc, labels); n != 6 {
			t.Errorf("components = %d, want 6", n)
		}
		loc.Fence()
	})
}

// TestConnectedComponentsRoundCount pins the round count on an undirected
// path of n vertices: the smallest label travels exactly one edge per round,
// so rounds 1..n-1 each lower the far end's label and round n finds nothing
// left to change — whichever location runs ahead, on shared memory and over
// sockets alike.  Each round is one fence, so the location's fence counter
// measures it.
func TestConnectedComponentsRoundCount(t *testing.T) {
	const n = 12
	for _, tr := range []struct {
		name    string
		factory runtime.TransportFactory
	}{
		{"inproc", runtime.InprocTransport},
		{"tcp", runtime.TCPLoopbackTransport},
	} {
		t.Run(tr.name, func(t *testing.T) {
			cfg := runtime.DefaultConfig()
			cfg.Transport = tr.factory
			for rep := 0; rep < 20; rep++ {
				runtime.NewMachine(4, cfg).Execute(func(loc *runtime.Location) {
					g := pgraph.New[int64, int8](loc, n, pgraph.WithDirected(false))
					if loc.ID() == 0 {
						for v := int64(0); v < n-1; v++ {
							g.AddEdgeAsync(v, v+1, 0)
						}
					}
					loc.Fence()
					before := loc.Stats().Fences
					labels := ConnectedComponents(loc, g)
					// One fence publishes the initial labels, then one per round.
					if rounds := loc.Stats().Fences - before - 1; rounds != n {
						t.Errorf("run %d, location %d: %d rounds, want %d", rep, loc.ID(), rounds, n)
					}
					for vd, lbl := range labels {
						if lbl != 0 {
							t.Errorf("run %d: vertex %d label %d, want 0", rep, vd, lbl)
						}
					}
					loc.Fence()
				})
			}
		})
	}
}

func TestInDegreesAndFindSources(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		// A "fan" DAG: sources 0,1,2 all point to 3; 3 points to 4..7.
		g := pgraph.New[int64, int8](loc, 8)
		if loc.ID() == 0 {
			g.AddEdgeAsync(0, 3, 0)
			g.AddEdgeAsync(1, 3, 0)
			g.AddEdgeAsync(2, 3, 0)
			for v := int64(4); v < 8; v++ {
				g.AddEdgeAsync(3, v, 0)
			}
		}
		loc.Fence()
		deg := InDegrees(loc, g)
		for vd, d := range deg {
			want := int64(0)
			if vd == 3 {
				want = 3
			} else if vd >= 4 {
				want = 1
			}
			if d != want {
				t.Errorf("in-degree(%d) = %d, want %d", vd, d, want)
			}
		}
		locals, total := FindSources(loc, g)
		if total != 3 {
			t.Errorf("sources = %d, want 3", total)
		}
		for _, vd := range locals {
			if vd > 2 {
				t.Errorf("vertex %d reported as source", vd)
			}
		}
		loc.Fence()
	})
}

func TestFindSourcesAcrossStrategies(t *testing.T) {
	// The Fig. 51 experiment: the same computation over the three address
	// translation strategies must produce the same answer.
	for _, strat := range []pgraph.Strategy{pgraph.Static, pgraph.DynamicEncoded, pgraph.DynamicDirectory} {
		strat := strat
		run(2, func(loc *runtime.Location) {
			var g *pgraph.Graph[int64, int8]
			var ids []int64
			if strat == pgraph.Static {
				g = pgraph.New[int64, int8](loc, 12)
				for i := int64(0); i < 12; i++ {
					ids = append(ids, i)
				}
			} else {
				g = pgraph.New[int64, int8](loc, 0, pgraph.WithStrategy(strat))
				// Each location creates 6 vertices; descriptors shared.
				var mine []int64
				for i := 0; i < 6; i++ {
					mine = append(mine, g.AddVertex(0))
				}
				loc.Fence()
				all := runtime.AllGatherT(loc, mine)
				for _, part := range all {
					ids = append(ids, part...)
				}
			}
			loc.Fence()
			// Chain over the first 10 ids: ids[0] is the only source among
			// the chained vertices; the remaining 2 are isolated sources.
			if loc.ID() == 0 {
				for i := 0; i < 9; i++ {
					g.AddEdgeAsync(ids[i], ids[i+1], 0)
				}
			}
			loc.Fence()
			_, total := FindSources(loc, g)
			if total != 3 {
				t.Errorf("strategy %v: sources = %d, want 3", strat, total)
			}
			loc.Fence()
		})
	}
}

func TestPageRankOnRing(t *testing.T) {
	run(4, func(loc *runtime.Location) {
		// A directed ring: perfectly symmetric, so all ranks are equal.
		const n = 32
		g := pgraph.New[float64, int8](loc, n)
		if loc.ID() == 0 {
			for v := int64(0); v < n; v++ {
				g.AddEdgeAsync(v, (v+1)%n, 0)
			}
		}
		loc.Fence()
		ranks := PageRank(loc, g, DefaultPageRank())
		for vd, r := range ranks {
			if math.Abs(r-1.0/n) > 1e-6 {
				t.Errorf("rank(%d) = %v, want %v", vd, r, 1.0/n)
			}
		}
		if s := RankSum(loc, ranks); math.Abs(s-1.0) > 1e-6 {
			t.Errorf("rank sum = %v", s)
		}
		loc.Fence()
	})
}

func TestPageRankCoarsenedMatchesVisitScatter(t *testing.T) {
	// The coarsened scatter plan (static graphs) and the per-edge Visit
	// fallback (dynamic graphs) must agree on the ranks of the same
	// topology: a ring with chords built under both strategies.
	const n = int64(48)
	collect := func(dynamic bool) map[int64]float64 {
		out := make(map[int64]float64)
		run(4, func(loc *runtime.Location) {
			var g *pgraph.Graph[float64, int8]
			if dynamic {
				g = pgraph.New[float64, int8](loc, 0, pgraph.WithStrategy(pgraph.DynamicEncoded))
				if loc.ID() == 0 {
					for v := int64(0); v < n; v++ {
						g.AddVertexWithDescriptor(v, 0)
					}
				}
				loc.Fence()
			} else {
				g = pgraph.New[float64, int8](loc, n)
			}
			if loc.ID() == 0 {
				for v := int64(0); v < n; v++ {
					g.AddEdgeAsync(v, (v+1)%n, 0)
					g.AddEdgeAsync(v, (v*5+3)%n, 0)
				}
			}
			loc.Fence()
			ranks := PageRank(loc, g, PageRankParams{Damping: 0.85, Iterations: 15})
			all := runtime.AllGatherT(loc, rankPairs(ranks))
			if loc.ID() == 0 {
				for _, part := range all {
					for _, rp := range part {
						out[rp.VD] = rp.Rank
					}
				}
			}
			loc.Fence()
		})
		return out
	}
	static := collect(false)
	dynamic := collect(true)
	if len(static) != int(n) || len(dynamic) != int(n) {
		t.Fatalf("rank maps incomplete: %d / %d of %d", len(static), len(dynamic), n)
	}
	for vd, r := range static {
		if math.Abs(r-dynamic[vd]) > 1e-9 {
			t.Errorf("rank(%d): coarsened %v vs visit %v", vd, r, dynamic[vd])
		}
	}
}

type rankPair struct {
	VD   int64
	Rank float64
}

func rankPairs(m map[int64]float64) []rankPair {
	out := make([]rankPair, 0, len(m))
	for vd, r := range m {
		out = append(out, rankPair{VD: vd, Rank: r})
	}
	return out
}

func TestPageRankCoarsenedScatterShipsBulk(t *testing.T) {
	// On a static graph the scatter phase must run over the coarsened
	// plan: bulk requests per destination instead of one Visit per edge.
	const n = int64(64)
	const iters = 5
	m := runtime.NewMachine(4, runtime.DefaultConfig())
	var stats runtime.Stats
	m.Execute(func(loc *runtime.Location) {
		g := pgraph.New[float64, int8](loc, n)
		if loc.ID() == 0 {
			for v := int64(0); v < n; v++ {
				g.AddEdgeAsync(v, (v+1)%n, 0)
			}
		}
		loc.Fence()
		PageRank(loc, g, PageRankParams{Damping: 0.85, Iterations: iters})
		loc.Fence()
	})
	stats = m.Stats()
	if stats.BulkRMIs == 0 {
		t.Error("coarsened page-rank scatter issued no bulk RMIs")
	}
	// Each location's targets span at most two remote destinations on the
	// ring (its own block plus the boundary neighbour), so the per-sweep
	// bulk request count stays O(P), far below one RMI per edge.
	if stats.BulkRMIs > int64(iters)*4*2 {
		t.Errorf("scatter issued %d bulk RMIs, want <= %d", stats.BulkRMIs, iters*4*2)
	}
}

func TestPageRankOnMeshPrefersCenter(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		m := workload.Mesh2DParams{Rows: 9, Cols: 9}
		g := pgraph.New[float64, int8](loc, m.NumVertices())
		workload.BuildMesh2D(loc, g, m)
		params := DefaultPageRank()
		params.Iterations = 30
		ranks := PageRank(loc, g, params)
		// Gather the center and corner ranks wherever they live.
		center := m.VertexID(4, 4)
		corner := m.VertexID(0, 0)
		localPair := [2]float64{-1, -1}
		if r, ok := ranks[center]; ok {
			localPair[0] = r
		}
		if r, ok := ranks[corner]; ok {
			localPair[1] = r
		}
		both := runtime.AllReduceT(loc, localPair, func(a, b [2]float64) [2]float64 {
			out := a
			if b[0] >= 0 {
				out[0] = b[0]
			}
			if b[1] >= 0 {
				out[1] = b[1]
			}
			return out
		})
		if both[0] <= both[1] {
			t.Errorf("center rank %v should exceed corner rank %v", both[0], both[1])
		}
		if s := RankSum(loc, ranks); math.Abs(s-1.0) > 1e-3 {
			t.Errorf("rank sum = %v", s)
		}
		loc.Fence()
	})
}

func TestPageRankToleranceStopsEarly(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		const n = 16
		g := pgraph.New[float64, int8](loc, n)
		if loc.ID() == 0 {
			for v := int64(0); v < n; v++ {
				g.AddEdgeAsync(v, (v+1)%n, 0)
			}
		}
		loc.Fence()
		params := PageRankParams{Damping: 0.85, Iterations: 1000, Tolerance: 1e-3}
		ranks := PageRank(loc, g, params)
		if s := RankSum(loc, ranks); math.Abs(s-1.0) > 1e-3 {
			t.Errorf("rank sum = %v", s)
		}
		loc.Fence()
	})
}

func TestPageRankEmptyGraph(t *testing.T) {
	run(2, func(loc *runtime.Location) {
		g := pgraph.New[float64, int8](loc, 0, pgraph.WithStrategy(pgraph.DynamicEncoded))
		ranks := PageRank(loc, g, DefaultPageRank())
		if len(ranks) != 0 {
			t.Errorf("ranks of empty graph = %v", ranks)
		}
		loc.Fence()
	})
}
