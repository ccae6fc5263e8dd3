package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// The element operation has one hop and one group walk; this file drives them
// exhaustively: every flavour (async, sync, split, bulk-async, bulk-sync) ×
// every placement (local, one hop, hint-forwarded two hops, metadata-local
// with the storage gone, a chain past the hop limit) × every instance (the
// closure API, a registered by-value operation, either under the Sequential
// trait), in process and over the wire protocol, where the by-value instance
// is rebuilt from bytes at every hop.  After EVERY mutation the WHOLE domain
// is re-read — by ground truth straight from the storage and through a read
// flavour from every location — rather than the element just written.

// testWrite and testRead are the registered by-value instance over testBC.
var (
	testWrite = RegisterWrite("core.test/set", "core.test/bulk-set", transport.Int64Codec, transport.Int64Codec, (*testBC).set)
	testRead  = RegisterRead("core.test/get", "core.test/bulk-get", transport.Int64Codec, transport.Int64Codec, (*testBC).get)
)

// hopInstance is one instance of the element operation, as its five flavours.
type hopInstance struct {
	name      string
	async     func(c *testContainer, gid, v int64)
	sync      func(c *testContainer, gid int64) int64
	split     func(c *testContainer, gid int64) *runtime.Future
	bulkAsync func(c *testContainer, gids, vals []int64)
	bulkSync  func(c *testContainer, gids []int64) []int64
}

var hopInstances = []hopInstance{
	{
		name: "closure",
		async: func(c *testContainer, gid, v int64) {
			c.InvokeSized(gid, Write, 8, func(_ *runtime.Location, bc *testBC) { bc.set(gid, v) })
		},
		sync: func(c *testContainer, gid int64) int64 {
			return c.InvokeRet(gid, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(gid) }).(int64)
		},
		split: func(c *testContainer, gid int64) *runtime.Future {
			return c.InvokeSplit(gid, Read, func(_ *runtime.Location, bc *testBC) any { return bc.get(gid) })
		},
		bulkAsync: func(c *testContainer, gids, vals []int64) {
			c.InvokeBulk(gids, Write, 16, func(_ *runtime.Location, bc *testBC, k int) { bc.set(gids[k], vals[k]) })
		},
		bulkSync: func(c *testContainer, gids []int64) []int64 {
			out := make([]int64, len(gids))
			c.InvokeBulkSync(gids, Read, 8, func(_ *runtime.Location, bc *testBC, k int) { out[k] = bc.get(gids[k]) })
			return out
		},
	},
	{
		name:  "registered",
		async: func(c *testContainer, gid, v int64) { testWrite.Async(&c.Container, gid, v, 8) },
		sync:  func(c *testContainer, gid int64) int64 { return testRead.Sync(&c.Container, gid, struct{}{}) },
		split: func(c *testContainer, gid int64) *runtime.Future {
			return testRead.Split(&c.Container, gid, struct{}{})
		},
		bulkAsync: func(c *testContainer, gids, vals []int64) {
			testWrite.BulkAsync(&c.Container, gids, vals, 16)
		},
		bulkSync: func(c *testContainer, gids []int64) []int64 {
			out := make([]int64, len(gids))
			testRead.BulkSync(&c.Container, gids, nil, out, 8)
			return out
		},
	},
}

const hopN = 24 // elements; owner of gid is fixed per resolver below

// hopResolver builds the two address translations the placements need: the
// closed-form indexed one (local / one hop) and the forwarding one, where only
// the owner and the last location can resolve a GID, so a request issued
// elsewhere travels hint -> directory -> owner (two hops).
func hopResolver(loc *runtime.Location, forwarding bool) Resolver[int64] {
	p := loc.NumLocations()
	if forwarding {
		return forwardingResolver{self: loc.ID(), dirLoc: p - 1, numLoc: p}
	}
	return IndexedResolver{
		Partition: partition.NewBlocked(domain.NewRange1D(0, hopN), int64(hopN/p)),
		Mapper:    partition.NewBlockedMapper(p, p),
	}
}

func newHopContainer(loc *runtime.Location, forwarding bool, traits Traits) *testContainer {
	c := &testContainer{}
	c.InitContainer(loc, hopResolver(loc, forwarding), traits)
	c.LocationManager().Add(newTestBC(partition.BCID(loc.ID())))
	loc.Barrier()
	return c
}

func hopTransports() map[string]runtime.TransportFactory {
	return map[string]runtime.TransportFactory{"inproc": runtime.InprocTransport, "wire": runtime.WireTransport}
}

func TestEveryFlavourEveryPlacement(t *testing.T) {
	const p = 4
	for trName, factory := range hopTransports() {
		for _, forwarding := range []bool{false, true} {
			for _, sequential := range []bool{false, true} {
				name := fmt.Sprintf("%s/forwarding=%v/sequential=%v", trName, forwarding, sequential)
				t.Run(name, func(t *testing.T) {
					traits := DefaultTraits()
					if sequential {
						traits.Consistency = Sequential
					}
					cfg := runtime.DefaultConfig()
					cfg.Transport = factory
					var reps [p]*testContainer // every representative, for ground truth
					fault := runtime.NewMachine(p, cfg).ExecuteErr(func(loc *runtime.Location) {
						c := newHopContainer(loc, forwarding, traits)
						reps[loc.ID()] = c
						loc.Barrier()
						driveHops(t, loc, c, reps[:], sequential)
					})
					if fault != nil {
						t.Fatalf("run faulted: %v", fault)
					}
				})
			}
		}
	}
}

// stored reads gid straight from the storage of whichever representative
// holds it: the ground truth no flavour is involved in.
func stored(reps []*testContainer, gid int64) int64 {
	for _, c := range reps {
		for _, b := range c.LocationManager().BCIDs() {
			bc := c.LocationManager().MustGet(b)
			bc.mu.Lock()
			v, ok := bc.data[gid]
			bc.mu.Unlock()
			if ok {
				return v
			}
		}
	}
	return 0
}

// driveHops is SPMD.  Location 0 writes every element in turn with each write
// flavour of each instance — its own elements, one-hop ones and, under the
// forwarding resolver, two-hop ones — and after every write all locations
// re-read the whole domain.
func driveHops(t *testing.T, loc *runtime.Location, c *testContainer, reps []*testContainer, sequential bool) {
	self := loc.ID()
	want := make([]int64, hopN) // the mirror every location keeps in step
	all := make([]int64, hopN)
	for i := range all {
		all[i] = int64(i)
	}
	step := 0
	for gid := int64(0); gid < hopN; gid++ {
		for wi, w := range hopInstances {
			for _, bulk := range []bool{false, true} {
				step++
				// A bulk write covers gid and its two successors, so a batch
				// spans several owners and several placements at once.
				gids := []int64{gid}
				if bulk {
					gids = []int64{gid, (gid + 1) % hopN, (gid + 2) % hopN}
				}
				vals := make([]int64, len(gids))
				for k, g := range gids {
					vals[k] = int64(step)*1000 + g
					want[g] = vals[k]
				}
				if self == 0 {
					if bulk {
						w.bulkAsync(c, gids, vals)
					} else {
						w.async(c, gids[0], vals[0])
					}
					for k, g := range gids {
						if sequential {
							// Sequential: complete when the call returns.
							if got := stored(reps, g); got != vals[k] {
								t.Errorf("step %d (%s, bulk=%v): element %d holds %d on return, want %d", step, w.name, bulk, g, got, vals[k])
							}
						}
						// Relaxed: complete by a later read of the same element
						// from the same location, whichever instance reads.
						if got := hopInstances[1-wi].sync(c, g); got != vals[k] {
							t.Errorf("step %d (%s, bulk=%v): read-after-write of %d = %d, want %d", step, w.name, bulk, g, got, vals[k])
						}
					}
				}
				loc.Fence()
				// The whole domain, from every location: ground truth, then one
				// read flavour of one instance, rotating so that every flavour
				// of both meets every placement many times over.
				r := hopInstances[(step+self)%2]
				var got []int64
				switch (step / 2) % 3 {
				case 0:
					got = make([]int64, hopN)
					for g := range got {
						got[g] = r.sync(c, int64(g))
					}
				case 1:
					futs := make([]*runtime.Future, hopN)
					for g := range futs {
						futs[g] = r.split(c, int64(g))
					}
					got = make([]int64, hopN)
					for g, f := range futs {
						got[g] = f.Get().(int64)
					}
				default:
					got = r.bulkSync(c, all)
				}
				for g := range want {
					if s := stored(reps, int64(g)); s != want[g] {
						t.Errorf("step %d: element %d stores %d, want %d", step, g, s, want[g])
					}
					if got[g] != want[g] {
						t.Errorf("step %d: loc %d reads element %d = %d through %s, want %d", step, self, g, got[g], r.name, want[g])
					}
				}
				loc.Fence()
			}
		}
	}
}

// hopCalls lists every flavour of every instance as a call on one GID, for the
// two placements that end in a fault.
func hopCalls() map[string]func(c *testContainer, gid int64) {
	calls := map[string]func(c *testContainer, gid int64){}
	for _, in := range hopInstances {
		in := in
		calls[in.name+"/async"] = func(c *testContainer, gid int64) { in.async(c, gid, 1) }
		calls[in.name+"/sync"] = func(c *testContainer, gid int64) { in.sync(c, gid) }
		calls[in.name+"/split"] = func(c *testContainer, gid int64) { in.split(c, gid).Get() }
		calls[in.name+"/bulk-async"] = func(c *testContainer, gid int64) { in.bulkAsync(c, []int64{gid}, []int64{1}) }
		calls[in.name+"/bulk-sync"] = func(c *testContainer, gid int64) { in.bulkSync(c, []int64{gid}) }
	}
	return calls
}

// TestStorageGoneEveryFlavour covers the transient window of a redistribution
// for every flavour: the metadata names this location while the registry no
// longer holds the base container.  The access must continue as a forward to
// this location — never run on a missing base container — give up at the hop
// limit naming the GID, and leave no bracket behind: the metadata write bracket
// that reinstalls the storage would deadlock on a leaked one.
func TestStorageGoneEveryFlavour(t *testing.T) {
	for name, call := range hopCalls() {
		for _, sequential := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sequential=%v", name, sequential), func(t *testing.T) {
				traits := DefaultTraits()
				if sequential {
					traits.Consistency = Sequential
				}
				run(2, func(loc *runtime.Location) {
					c := newTestContainer(loc, 20, traits)
					gid := int64(loc.ID())*10 + 3
					kept := c.LocationManager()
					c.ReplaceLocationManager(NewLocationManager[*testBC]())
					func() {
						defer func() {
							msg := fmt.Sprint(recover())
							if !strings.Contains(msg, "forwarded more than") || !strings.Contains(msg, fmt.Sprintf("GID %d ", gid)) {
								t.Errorf("loc %d: access to vanished storage ended with %q, want the hop limit naming GID %d", loc.ID(), msg, gid)
							}
						}()
						call(c, gid)
					}()
					c.ReplaceLocationManager(kept)
					call(c, gid)
					testWrite.Async(&c.Container, gid, 5, 8)
					if got := testRead.Sync(&c.Container, gid, struct{}{}); got != 5 {
						t.Errorf("loc %d: element after the storage returned = %d", loc.ID(), got)
					}
					loc.Fence()
				})
			})
		}
	}
}

// pingPongResolver cannot resolve the one bad GID anywhere: every location
// points at the next one, so a request for it travels until the hop limit.
// (inner is a field, not embedded: its ResolveBulk must not be promoted past
// this Find.)
type pingPongResolver struct {
	inner        Resolver[int64]
	self, numLoc int
	bad          int64
}

func (r pingPongResolver) Find(gid int64) partition.Info {
	if gid == r.bad {
		return partition.Forward((r.self + 1) % r.numLoc)
	}
	return r.inner.Find(gid)
}

func (r pingPongResolver) OwnerOf(b partition.BCID) int { return r.inner.OwnerOf(b) }

// TestHopLimitNamesTheGID: a chain that exceeds the hop limit dies in a
// handler far from the caller, so the machine fault must name the GID.
func TestHopLimitNamesTheGID(t *testing.T) {
	const bad = 7
	for name, call := range hopCalls() {
		t.Run(name, func(t *testing.T) {
			fault := runtime.NewMachine(2, runtime.DefaultConfig()).ExecuteErr(func(loc *runtime.Location) {
				c := &testContainer{}
				c.InitContainer(loc, pingPongResolver{
					inner: hopResolver(loc, false), self: loc.ID(), numLoc: loc.NumLocations(), bad: bad,
				}, DefaultTraits())
				c.LocationManager().Add(newTestBC(partition.BCID(loc.ID())))
				loc.Barrier()
				if loc.ID() == 0 {
					call(c, bad)
				}
				loc.Fence()
			})
			if fault == nil {
				t.Fatal("a chain past the hop limit did not fault")
			}
			if msg := fault.Error(); !strings.Contains(msg, "forwarded more than") || !strings.Contains(msg, fmt.Sprintf("GID %d ", bad)) {
				t.Errorf("fault %q does not name the hop limit and GID %d", msg, bad)
			}
		})
	}
}
