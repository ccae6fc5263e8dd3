package runtime

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// The multi-process tests re-execute this test binary as the launched SPMD
// program: Launch starts N copies of it constrained (via -test.run) to
// TestProcHelper, which branches on PCF_PROC_TEST_MODE.  Everything the
// children must report back travels through files under PCF_PROC_TEST_OUT —
// the children are real separate OS processes and share nothing else with
// the parent test.

const (
	procTestModeEnv = "PCF_PROC_TEST_MODE"
	procTestOutEnv  = "PCF_PROC_TEST_OUT"
)

// procEquivReport is rank 0's summary of a proc-mode run: the job-wide folded
// machine statistics and wire counters.
type procEquivReport struct {
	Stats Stats
	Wire  transport.WireStats
}

// procFaultReport is one survivor's record of the structured fault it
// observed when another rank died.
type procFaultReport struct {
	Rank     int
	Location int
	Kind     FaultKind
	Msg      string
}

func writeTestJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshalling %s: %v", path, err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}

// procEquivWorkload is the deterministic registered-ops workload the
// equivalence test runs both multi-process (children, proc transport) and
// in-process (parent, inproc transport).  Every cross-location interaction is
// a registered operation, so it is runnable across a process boundary; every
// statistic is counted at logical send/execute time, so the folded counters
// must come out identical in both modes.
func procEquivWorkload(t *testing.T, loc *Location) {
	const k = 30
	obj := &counterObj{}
	h := loc.RegisterObject(obj)
	loc.Barrier()
	p := loc.NumLocations()
	for d := 0; d < p; d++ {
		if d == loc.ID() {
			continue
		}
		for i := 0; i < k; i++ {
			loc.AsyncRMIOpSized(d, h, 16, rawAddOp, int64(1))
		}
		loc.AsyncRMIUrgentOp(d, h, rawAddOp, int64(10))
		loc.AsyncRMIBulkOp(d, h, 8, 64, rawAddOp, int64(100))
	}
	loc.Fence()
	want := int64((k + 10 + 100) * (p - 1))
	if got := obj.get(); got != want {
		t.Errorf("loc %d: counter = %d, want %d", loc.ID(), got, want)
	}
	// Value-returning round trip: registered get from the next rank,
	// completion routed home by token (the only completion channel that can
	// cross a process).
	next := (loc.ID() + 1) % p
	fut := loc.NewAbortableFuture()
	tok := loc.RegisterToken(func(v any) bool {
		fut.Complete(v)
		return true
	})
	loc.AsyncRMIUrgentOp(next, h, rawGetOp, rawGetArg{
		origin: loc.ID(), token: tok, handle: int64(h),
	})
	if got := fut.Get().(int64); got != want {
		t.Errorf("loc %d: registered get returned %d, want %d", loc.ID(), got, want)
	}
	loc.Fence()
}

// TestProcHelper is the child-side entry point of the multi-process tests.
// It runs only inside a process started by Launch (the parent tests skip it)
// and must be the sole test the children execute (-test.run pins it).
func TestProcHelper(t *testing.T) {
	mode := os.Getenv(procTestModeEnv)
	if mode == "" {
		t.Skip("not a launched helper child")
	}
	if !ChildMain() {
		t.Fatalf("%s set but the launcher environment is missing", procTestModeEnv)
	}
	defer ChildDone()
	rank, nprocs, _ := ProcRank()
	outDir := os.Getenv(procTestOutEnv)
	cfg := DefaultConfig()
	cfg.Transport = ProcTransport
	m := NewMachine(nprocs, cfg)

	switch mode {
	case "equivalence":
		if fault := m.ExecuteErr(func(loc *Location) { procEquivWorkload(t, loc) }); fault != nil {
			t.Fatalf("rank %d: run faulted: %v", rank, fault)
		}
		if rank == 0 {
			writeTestJSON(t, filepath.Join(outDir, "stats.json"), procEquivReport{
				Stats: m.Stats(), Wire: m.WireStats(),
			})
		}
	case "kill":
		fault := m.ExecuteErr(func(loc *Location) {
			loc.Barrier()
			if loc.ID() == 1 {
				os.Exit(3) // simulated crash mid-run, after everyone passed the barrier
			}
			loc.Fence() // stalls until the dead rank's fatal abort arrives, then unwinds
		})
		if fault == nil {
			t.Fatalf("rank %d: run completed despite a dead rank", rank)
		}
		writeTestJSON(t, filepath.Join(outDir, fmt.Sprintf("fault-%d.json", rank)), procFaultReport{
			Rank:     rank,
			Location: fault.Cause.Location,
			Kind:     fault.Cause.Kind,
			Msg:      fmt.Sprint(fault.Cause.Err),
		})
	case "byref":
		fault := m.ExecuteErr(func(loc *Location) {
			h := loc.RegisterObject(&benchSink{})
			loc.Barrier()
			if loc.ID() == 0 {
				loc.AsyncRMIUrgentOp(1, h, bumpRefOp, int64(1))
			}
			loc.Fence()
		})
		if fault == nil {
			t.Fatalf("rank %d: a by-reference operation crossed a process boundary", rank)
		}
		writeTestJSON(t, filepath.Join(outDir, fmt.Sprintf("fault-%d.json", rank)), procFaultReport{
			Rank:     rank,
			Location: fault.Cause.Location,
			Kind:     fault.Cause.Kind,
			Msg:      fmt.Sprint(fault.Cause.Err),
		})
	default:
		t.Fatalf("unknown helper mode %q", mode)
	}
}

// launchHelper re-executes the test binary as an n-process job in the given
// helper mode, bounding the whole launch so a supervision regression fails
// the test instead of hanging it.  Child output is captured to a log file and
// dumped on failure.
func launchHelper(t *testing.T, n int, mode, outDir string) error {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("test binary path: %v", err)
	}
	logPath := filepath.Join(outDir, "children.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("creating child log: %v", err)
	}
	defer logf.Close()
	errCh := make(chan error, 1)
	go func() {
		errCh <- Launch(LaunchSpec{
			NProcs: n,
			Prog:   exe,
			Args:   []string{"-test.run=^TestProcHelper$", "-test.count=1"},
			Env: []string{
				procTestModeEnv + "=" + mode,
				procTestOutEnv + "=" + outDir,
			},
			Stdout: logf,
			Stderr: logf,
		})
	}()
	select {
	case err := <-errCh:
		return err
	case <-time.After(120 * time.Second):
		if b, rerr := os.ReadFile(logPath); rerr == nil {
			t.Logf("child output:\n%s", b)
		}
		t.Fatalf("launch of %d %s helpers did not return within 120s", n, mode)
		return nil
	}
}

func dumpChildLog(t *testing.T, outDir string) {
	t.Helper()
	if b, err := os.ReadFile(filepath.Join(outDir, "children.log")); err == nil && len(b) > 0 {
		t.Logf("child output:\n%s", b)
	}
}

// TestProcLaunchStatsEquivalence is the multi-process acceptance test: the
// registered-ops workload runs across real OS processes under the launcher,
// and the job-wide folded statistics must be IDENTICAL to the same workload
// on an in-process machine — the counter-identity invariant extended over
// the process boundary.  It also pins that the proc data plane needed zero
// rendezvous fallbacks: every frame was reconstructed from bytes alone.
func TestProcLaunchStatsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const n = 2
	outDir := t.TempDir()
	if err := launchHelper(t, n, "equivalence", outDir); err != nil {
		dumpChildLog(t, outDir)
		t.Fatalf("launch failed: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(outDir, "stats.json"))
	if err != nil {
		dumpChildLog(t, outDir)
		t.Fatalf("rank 0 reported no stats: %v", err)
	}
	var got procEquivReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("parsing rank 0 stats: %v", err)
	}

	cfg := DefaultConfig()
	cfg.Transport = InprocTransport
	m := NewMachine(n, cfg)
	if fault := m.ExecuteErr(func(loc *Location) { procEquivWorkload(t, loc) }); fault != nil {
		t.Fatalf("inproc baseline faulted: %v", fault)
	}
	if want := m.Stats(); got.Stats != want {
		t.Errorf("multi-process stats diverge from inproc:\n  inproc: %+v\n  proc:   %+v", want, got.Stats)
	}
	if got.Wire.RendezvousFallbacks != 0 {
		t.Errorf("proc run took %d rendezvous fallbacks, want 0 (registered ops only)", got.Wire.RendezvousFallbacks)
	}
	if got.Wire.DataFrames == 0 {
		t.Error("proc run reported zero data frames; the workload never crossed the process boundary")
	}
}

// TestProcLaunchKilledChild pins the supervision contract: a child process
// dying mid-run surfaces as a STRUCTURED MachineFault on every surviving
// rank (transport fault naming the dead rank) and as an error from Launch —
// with no hang anywhere.
func TestProcLaunchKilledChild(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const n = 3
	outDir := t.TempDir()
	err := launchHelper(t, n, "kill", outDir)
	if err == nil {
		dumpChildLog(t, outDir)
		t.Fatal("launch reported success although rank 1 exited mid-run")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("launch error does not name the dead rank: %v", err)
	}
	for _, rank := range []int{0, 2} {
		raw, rerr := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("fault-%d.json", rank)))
		if rerr != nil {
			dumpChildLog(t, outDir)
			t.Fatalf("survivor rank %d wrote no fault report: %v", rank, rerr)
		}
		var rep procFaultReport
		if jerr := json.Unmarshal(raw, &rep); jerr != nil {
			t.Fatalf("parsing rank %d fault report: %v", rank, jerr)
		}
		if rep.Kind != FaultTransport {
			t.Errorf("rank %d observed fault kind %v, want FaultTransport", rank, rep.Kind)
		}
		if rep.Location != 1 {
			t.Errorf("rank %d fault names location %d, want 1", rank, rep.Location)
		}
		if !strings.Contains(rep.Msg, "rank 1") {
			t.Errorf("rank %d fault message does not name the dead rank: %q", rank, rep.Msg)
		}
	}
}

// TestProcLaunchRefusesByReferenceOp pins the proc transport's refusal of a
// request it cannot marshal: a by-reference operation issued across a
// process boundary is a structured transport fault at the issuing rank that
// NAMES the operation, and the job ends without a hang.
func TestProcLaunchRefusesByReferenceOp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	outDir := t.TempDir()
	// Whether the launcher reports the faulted job as an error is not what
	// is pinned here; that every rank returned (launchHelper's deadline) and
	// what rank 0 saw is.
	_ = launchHelper(t, 2, "byref", outDir)
	raw, err := os.ReadFile(filepath.Join(outDir, "fault-0.json"))
	if err != nil {
		dumpChildLog(t, outDir)
		t.Fatalf("rank 0 wrote no fault report: %v", err)
	}
	var rep procFaultReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parsing rank 0 fault report: %v", err)
	}
	if rep.Kind != FaultTransport || rep.Location != 0 {
		t.Errorf("rank 0 observed %v at location %d, want a transport fault at location 0", rep.Kind, rep.Location)
	}
	if !strings.Contains(rep.Msg, `"runtime-test/bump-ref"`) || !strings.Contains(rep.Msg, "cannot cross a process boundary") {
		t.Errorf("refusal does not name the operation: %q", rep.Msg)
	}
}
