package main

import (
	"cmp"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/runtime"
	"repro/internal/transport"
)

// spec describes one workload.  Everything that sizes it is a constant in the
// source: counts per operation must repeat exactly from run to run.
type spec struct {
	name string
	why  string
	// p is the machine size; drivers is how many locations issue operations
	// (1: location 0 drives and the others only serve; p: collective SPMD).
	p, drivers int
	tcp        bool
	// cycle is how many rounds make one pass over the workload's operations:
	// 1 where every round runs the same mix, the number of kernels where each
	// round runs one kernel of a sweep (round r runs kernel r % cycle).
	cycle int
	// ops is the number of logical operations of one cycle, machine-wide.
	ops int64
	// opUnit and latUnit say what an operation and a latency sample are.
	opUnit, latUnit string
	// verifyEvery: collective workloads check their state against the
	// sequential reference after every warm-up cycle and every verifyEvery-th
	// measured cycle, outside the timed section.
	verifyEvery int
	// build is the collective set-up: every location calls it once and gets
	// its own instance back.
	build func(loc *runtime.Location, env *env) instance
}

// instance is one location's share of a built workload; it may also be a
// verifier and a finisher.
type instance interface {
	// round runs this location's share of round r (counted from 0, warm-up
	// included, so a write can carry a value that differs per round).
	round(loc *runtime.Location, r int, rec *recorder)
}

// env is what a run hands to build: the seed and the oracle's tallies.
type env struct {
	seed int64
	// attempted and failed count oracle comparisons, machine-wide.
	attempted, failed atomic.Int64
	// counters receives per-layer counts a workload reads off its containers
	// (directory cache statistics, the traffic of one redistribution, ...).
	counterMu sync.Mutex
	counters  map[string]float64
	// firstFailure keeps one diagnostic for the report.
	firstFailure atomic.Pointer[string]
}

// rng returns the deterministic input generator of one location: the same
// seed gives the same inputs.
func (e *env) rng(loc int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + int64(loc)*7919 + 17))
}

func (e *env) setCounter(name string, v float64) {
	e.counterMu.Lock()
	e.counters[name] = v
	e.counterMu.Unlock()
}

// addCounter adds v to a counter (0 before the first add).
func (e *env) addCounter(name string, v float64) {
	e.counterMu.Lock()
	e.counters[name] += v
	e.counterMu.Unlock()
}

// check tallies one oracle comparison.
func (e *env) check(ok bool, what string, args ...any) {
	e.attempted.Add(1)
	if !ok {
		e.fail(what, args...)
	}
}

// checkN tallies n comparisons of which bad disagreed (the hot loops count
// locally and report once per round).
func (e *env) checkN(n, bad int64, what string) {
	e.attempted.Add(n)
	if bad > 0 {
		e.failed.Add(bad - 1)
		e.fail("%s: %d mismatches", what, bad)
	}
}

func (e *env) fail(what string, args ...any) {
	e.failed.Add(1)
	msg := fmt.Sprintf(what, args...)
	e.firstFailure.CompareAndSwap(nil, &msg)
}

const (
	// warmupCycles is how many cycles are run and discarded before the first
	// measured round.  The workloads read their once-per-run counters in cycles
	// 0 and 2 (workload_*.go), so every counter read is outside the metrics.
	warmupCycles = 3
	// setupRuns is how many times a run sets up, spread over setupLegs legs;
	// setup_s is the fastest.
	setupRuns = 24
	setupLegs = 4
	// maxRounds bounds the per-round bookkeeping (allocated before the first
	// round); at 0.2 ms per round, the shortest here, it is 200 s.
	maxRounds = 1 << 20
	// quietShare selects the rounds the time metrics are computed on: the
	// fastest one in quietShare, by wall time, of the rounds of each kind.  The
	// host this runs on (a few virtual CPUs of a shared machine) flips between
	// a fast state and one 1.5-2x slower; a stay in the fast state lasts about
	// a millisecond (median 1.1 ms, nine in ten under 6 ms, over five minutes
	// of a timed loop), and the share of time spent there ran from 0.4 % to
	// 59 % over consecutive 20 s windows.  The host can only ever slow a round
	// down, never speed it up, so the fastest rounds are what the program
	// costs when the host leaves it alone, and a round a quarter of a
	// millisecond long fits inside a fast stay often enough for one in
	// quietShare of them to be clean in all but the worst windows (README).
	quietShare = 32
)

// runOpts selects how a workload is run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times set-up runs: setupRuns for a result of record,
	// 1 where setup_s is not reported (traced runs, tests).
	setups int
}

// result is everything one run of one workload measured.
type result struct {
	spec   *spec
	setupS []float64

	rounds, quietRounds int
	measuredS           float64
	// Over the quiet rounds (see quietShare):
	ops, p50us, p99us, cpuUsPerOp float64
	kindUs                        []float64 // mean quiet round of each kind (position in the cycle), wall time
	samples                       int
	// Over every round, printed beside them so a reader sees what the host did.
	opsQ1, opsMedian, opsQ3 float64
	p99usAll                float64
	samplesDropped          int64
	allocsPerOp             float64 // over every round: a count does not depend on the host
	residentMB              float64

	stats    runtime.Stats       // delta over the measured rounds
	wire     transport.WireStats // delta over the measured rounds
	counters map[string]float64

	attempted, failed int64
	firstFailure      string

	recs []*recorder // traced runs only
}

// totalOps is the number of operations of the measured rounds (whole cycles).
func (r *result) totalOps() float64 { return float64(r.rounds/r.spec.cycle) * float64(r.spec.ops) }

// snapshot is the process and machine state read around each timed round.
type snapshot struct {
	cpuNs  int64
	allocs uint64
	stats  runtime.Stats
	wire   transport.WireStats
}

type meter struct {
	m      *runtime.Machine // the measured machine of the current leg
	sample []metrics.Sample
	before snapshot
	// cpuByRound is the process CPU time of each measured round.
	cpuByRound []int64
	// Sums over the measured rounds.
	allocs uint64
	stats  runtime.Stats
	wire   transport.WireStats
}

func (mt *meter) read() snapshot {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("benchmark: getrusage: %v", err))
	}
	metrics.Read(mt.sample)
	return snapshot{
		cpuNs:  ru.Utime.Nano() + ru.Stime.Nano(),
		allocs: mt.sample[0].Value.Uint64(),
		stats:  mt.m.Stats(),
		wire:   mt.m.WireStats(),
	}
}

func (mt *meter) start() { mt.before = mt.read() }

func (mt *meter) stop() {
	after := mt.read()
	mt.cpuByRound = append(mt.cpuByRound, after.cpuNs-mt.before.cpuNs)
	mt.allocs += after.allocs - mt.before.allocs
	mt.stats = mt.stats.Add(after.stats.Sub(mt.before.stats))
	mt.wire.Add(wireSub(after.wire, mt.before.wire))
}

// wireSub returns a − b for the counters the benchmark reports.
func wireSub(a, b transport.WireStats) transport.WireStats {
	return transport.WireStats{
		FramesSent:          a.FramesSent - b.FramesSent,
		FramesReceived:      a.FramesReceived - b.FramesReceived,
		BytesSent:           a.BytesSent - b.BytesSent,
		BytesReceived:       a.BytesReceived - b.BytesReceived,
		DataFrames:          a.DataFrames - b.DataFrames,
		Acks:                a.Acks - b.Acks,
		Retransmits:         a.Retransmits - b.Retransmits,
		RendezvousFallbacks: a.RendezvousFallbacks - b.RendezvousFallbacks,
	}
}

// machineFor builds the machine of a workload.  The transport is always set
// explicitly, so PCF_TRANSPORT never changes what is measured; aggregation is
// the runtime default (16) with the adaptive policy off.
func machineFor(s *spec, seed int64) *runtime.Machine {
	cfg := runtime.DefaultConfig()
	cfg.Seed = seed
	cfg.Transport = runtime.InprocTransport
	if s.tcp {
		cfg.Transport = runtime.TCPLoopbackTransport
	}
	return runtime.NewMachine(s.p, cfg)
}

// setupOnly builds the workload, runs the warm-up rounds and throws it all
// away, returning how long that took: one more observation of setup_s.
func setupOnly(s *spec, o runOpts) float64 {
	t0 := now()
	e := &env{seed: o.seed, counters: map[string]float64{}}
	machineFor(s, o.seed).Execute(func(loc *runtime.Location) { buildAndWarm(s, loc, e) })
	return float64(now()-t0) / 1e9
}

// buildAndWarm is the collective set-up every run starts with: build, then
// the discarded warm-up cycles (each verified, on the workloads that verify).
func buildAndWarm(s *spec, loc *runtime.Location, e *env) instance {
	inst := s.build(loc, e)
	rec := newRecorder(false, 0, 0)
	for r := 0; r < warmupCycles*s.cycle; r++ {
		if s.drivers == 1 {
			if loc.ID() == 0 {
				inst.round(loc, r, rec)
				loc.OneSidedFence()
			}
			continue
		}
		loc.Barrier()
		inst.round(loc, r, rec)
		loc.Barrier()
		if r%s.cycle == s.cycle-1 {
			verify(inst, loc, r)
		}
	}
	loc.Barrier()
	return inst
}

// verifier is implemented by the collective workloads: verify compares
// container state with the sequential reference.  It is collective and runs
// outside the timed section, after the last round of a cycle.
type verifier interface {
	verify(loc *runtime.Location, r int)
}

func verify(inst instance, loc *runtime.Location, r int) {
	if v, ok := inst.(verifier); ok {
		v.verify(loc, r)
	}
}

// finisher is implemented by workloads that read something back once, after
// the last round: what the rounds wrote but never read, directory counters.
type finisher interface {
	finish(loc *runtime.Location)
}

// runWorkload runs one workload in legs.  A leg is: set-up on throw-away
// machines (o.setups/legs - 1 times), set-up of the measured machine, warm-up,
// then fixed-size rounds inside one Execute until the leg's share of
// o.seconds has passed (and the cycle then under way has ended).  The legs'
// rounds are pooled.  Legs exist so that the set-ups are spread over the
// run: the host stays slow for a second or more at a time, and 24 set-ups
// back to back (0.1-0.7 s) sat inside one such stretch in 4 of 11 simulated
// runs (fastest set-up 1.2-1.5x the quiet one), where six at each of four
// moments 5 s apart found a quiet moment in all 11 (1.01-1.06x).
func runWorkload(s *spec, o runOpts) *result {
	res := &result{spec: s}
	e := &env{seed: o.seed, counters: map[string]float64{}}
	mt := &meter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
	// Per measured round, written by location 0: its wall time and where its
	// latency samples end in location 0's sample buffer.  They and the sample
	// buffer (rec0) are allocated in the first leg, after the heap is read.
	var roundNs []int64
	var sampleEnd []int
	var rec0 *recorder
	var recs []*recorder
	legs := min(setupLegs, o.setups)
	for leg := 0; leg < legs; leg++ {
		for i := 1; i < o.setups/legs; i++ {
			res.setupS = append(res.setupS, setupOnly(s, o))
			goruntime.GC()
		}
		t0 := now()
		m := machineFor(s, o.seed)
		mt.m = m
		recs = make([]*recorder, s.p)
		m.Execute(func(loc *runtime.Location) {
			id := loc.ID()
			inst := buildAndWarm(s, loc, e)
			if id == 0 && leg == 0 {
				// Footprint of data + metadata: the heap after set-up and a
				// forced collection, before the harness allocates its buffers.
				// Twice, because a sync.Pool keeps its contents for one cycle.
				goruntime.GC()
				goruntime.GC()
				var ms goruntime.MemStats
				goruntime.ReadMemStats(&ms)
				res.residentMB = float64(ms.HeapAlloc) / (1 << 20)
				roundNs = make([]int64, 0, maxRounds)
				sampleEnd = make([]int, 0, maxRounds)
				mt.cpuByRound = make([]int64, 0, maxRounds)
				rec0 = newRecorder(o.trace, maxSpans, maxSamples)
			}
			// Nobody allocates a buffer before location 0 has read the heap.
			// Only location 0 takes latency samples, on every workload.
			loc.Barrier()
			switch {
			case id == 0:
				recs[id] = rec0
			case id < s.drivers:
				recs[id] = newRecorder(o.trace, maxSpans, 0)
			default:
				recs[id] = newRecorder(false, 0, 0)
			}
			rec := recs[id]
			loc.Barrier()

			var deadline int64
			if id == 0 {
				res.setupS = append(res.setupS, float64(now()-t0)/1e9)
				deadline = now() + int64(o.seconds/float64(legs)*1e9)
			}
			first := warmupCycles * s.cycle
			// closeRound is location 0's bookkeeping after round r; it reports
			// whether the leg is over, which it can only be at the end of a
			// cycle.
			closeRound := func(r int, start int64) bool {
				end := now()
				mt.stop()
				roundNs = append(roundNs, end-start)
				sampleEnd = append(sampleEnd, len(rec.lat))
				if r%s.cycle != s.cycle-1 {
					return false
				}
				return end >= deadline || rec.full || len(roundNs)+s.cycle > cap(roundNs)
			}
			if s.drivers == 1 {
				if id == 0 {
					for r, stop := first, false; !stop; r++ {
						rec.round = int32(r)
						mt.start()
						start := now()
						sp := rec.begin(kRound, 1)
						inst.round(loc, r, rec)
						f := rec.begin(kOSF, 1)
						loc.OneSidedFence()
						rec.end(f)
						rec.end(sp)
						stop = closeRound(r, start)
					}
				}
				loc.Barrier()
			} else {
				for r, stop := first, false; !stop; r++ {
					rec.round = int32(r)
					// Two barriers: the counters are read when every location
					// has left the previous round (and its verify) and none
					// has entered this one.
					loc.Barrier()
					if id == 0 {
						mt.start()
					}
					loc.Barrier()
					start := now()
					sp := rec.begin(kRound, 1)
					inst.round(loc, r, rec)
					loc.Barrier()
					rec.end(sp)
					if id == 0 {
						rec.sample(now() - start)
						stop = closeRound(r, start)
					}
					// Location 0 decides; the broadcast also keeps the others
					// out of verify until its counters are read.
					stop = runtime.BroadcastT(loc, 0, stop)
					if cyc := r/s.cycle - warmupCycles; r%s.cycle == s.cycle-1 && cyc%s.verifyEvery == 0 {
						verify(inst, loc, r)
					}
				}
			}
			if f, ok := inst.(finisher); ok {
				f.finish(loc)
			}
			loc.Barrier()
		})
	}

	res.rounds = len(roundNs)
	res.counters = e.counters
	res.attempted, res.failed = e.attempted.Load(), e.failed.Load()
	if msg := e.firstFailure.Load(); msg != nil {
		res.firstFailure = *msg
	}
	res.allocsPerOp = float64(mt.allocs) / res.totalOps()
	res.stats, res.wire = mt.stats, mt.wire
	if o.trace {
		res.recs = recs
	}
	for _, r := range recs {
		res.samplesDropped += r.latDropped
	}

	// Every round, for the reader: the quartiles of the throughput over whole
	// cycles and the 99th percentile over every sample, host and all.
	cycles := len(roundNs) / s.cycle
	perCycle := make([]float64, cycles)
	for c := range perCycle {
		var ns int64
		for _, d := range roundNs[c*s.cycle : (c+1)*s.cycle] {
			ns += d
		}
		perCycle[c] = float64(s.ops) / (float64(ns) / 1e9)
		res.measuredS += float64(ns) / 1e9
	}
	res.opsQ1, res.opsMedian, res.opsQ3 = quartiles(perCycle)
	all := slices.Clone(recs[0].lat)
	slices.Sort(all)
	res.p99usAll = quantileSorted(all, 0.99) / 1e3

	// The quiet rounds, for the metrics.  Each kind of round (position in the
	// cycle) contributes its own fastest share; a cycle costs the sum over
	// kinds of the mean quiet round, and the percentiles are taken over the
	// samples the quiet rounds recorded.
	var cycleWallNs, cycleCPUNs float64
	var lat []int32
	order := make([]int, 0, cycles)
	for k := 0; k < s.cycle; k++ {
		order = order[:0]
		for i := k; i < cycles*s.cycle; i += s.cycle {
			order = append(order, i)
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(roundNs[a], roundNs[b]) })
		quiet := order[:max(1, len(order)/quietShare)]
		var wallNs, cpuNs int64
		for _, i := range quiet {
			wallNs += roundNs[i]
			cpuNs += mt.cpuByRound[i]
			from := 0
			if i > 0 {
				from = sampleEnd[i-1]
			}
			lat = append(lat, recs[0].lat[from:sampleEnd[i]]...)
		}
		res.kindUs = append(res.kindUs, float64(wallNs)/float64(len(quiet))/1e3)
		cycleWallNs += float64(wallNs) / float64(len(quiet))
		cycleCPUNs += float64(cpuNs) / float64(len(quiet))
		res.quietRounds += len(quiet)
	}
	slices.Sort(lat)
	res.samples = len(lat)
	res.ops = float64(s.ops) / (cycleWallNs / 1e9)
	res.cpuUsPerOp = cycleCPUNs / 1e3 / float64(s.ops)
	res.p50us, res.p99us = quantileSorted(lat, 0.50)/1e3, quantileSorted(lat, 0.99)/1e3
	return res
}
