package runtime

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Multi-process execution.
//
// A launched job consists of one HUB process (the launcher — cmd/pcflaunch,
// or a program re-executing itself via LaunchSelf) and NProcs CHILD
// processes, one per location.  Each child runs the same SPMD program; the
// runtime drives only the child's own location and ships every remote
// request over the reliable TCP mesh as a self-decoding frame (registered
// operations only — a Go closure cannot cross a process boundary, so an
// unregistered request in proc mode is a structured transport fault, not a
// rendezvous).
//
// The hub carries the CONTROL PLANE: a gob stream per child over which the
// children run numbered collective rounds (barrier, gather, quiescence
// votes, data-plane address exchange) and through which faults propagate.
// The hub is workload-agnostic — it only matches round numbers and relays
// opaque payloads — so the exact same launcher binary drives any program.
// The DATA PLANE (RMI frames) never touches the hub: children talk directly
// over the TCP mesh, one listener per process (see transport.NewTCPMesh).
//
// Environment contract between hub and child:
//
//	PCF_PROC_RANK     this child's location id (0-based)
//	PCF_PROC_NPROCS   number of processes (= locations)
//	PCF_PROC_CONTROL  host:port of the hub's control listener

const (
	procRankEnv = "PCF_PROC_RANK"
	procNEnv    = "PCF_PROC_NPROCS"
	procCtlEnv  = "PCF_PROC_CONTROL"
)

// Control-plane message kinds.
const (
	ctlHello     uint8 = iota // child -> hub: {Rank}
	ctlReady                  // hub -> child: all ranks connected
	ctlRound                  // child -> hub: contribution {Rank, Seq, Payload}
	ctlRoundDone              // hub -> child: gathered {Seq, Payloads}
	ctlFault                  // child -> hub: {Fault}
	ctlAbort                  // hub -> child: {Fault} broadcast
	ctlBye                    // child -> hub: clean shutdown
)

// ctlMsg is the single message type of the control plane.
type ctlMsg struct {
	Kind     uint8
	Rank     int
	Seq      uint64
	Payload  []byte
	Payloads [][]byte
	Fault    *ProcFault
}

// ProcFault is a fault crossing a process boundary: a flattened
// LocationFault (the panic value and stack travel as strings) plus the run
// epoch it belongs to, so a late broadcast cannot abort the wrong run.
// Fatal faults — a child process died — apply to every run, current and
// future: the job cannot continue without the dead rank.
type ProcFault struct {
	Location int
	Kind     FaultKind
	Msg      string
	Epoch    uint64
	Fatal    bool
}

// procEnv reads the child environment contract, returning ok=false outside a
// launched child.
func procEnv() (rank, n int, ctl string, ok bool) {
	rs := os.Getenv(procRankEnv)
	if rs == "" {
		return 0, 0, "", false
	}
	rank, err := strconv.Atoi(rs)
	if err != nil {
		panic(fmt.Sprintf("runtime: bad %s %q: %v", procRankEnv, rs, err))
	}
	n, err = strconv.Atoi(os.Getenv(procNEnv))
	if err != nil {
		panic(fmt.Sprintf("runtime: bad %s %q: %v", procNEnv, os.Getenv(procNEnv), err))
	}
	ctl = os.Getenv(procCtlEnv)
	if ctl == "" {
		panic(fmt.Sprintf("runtime: %s set but %s empty", procRankEnv, procCtlEnv))
	}
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("runtime: %s=%d outside [0,%d)", procRankEnv, rank, n))
	}
	return rank, n, ctl, true
}

// procRuntime is the child side of the control plane: one per launched child
// process, shared by every machine the process creates.
type procRuntime struct {
	rank int
	n    int

	conn  net.Conn
	encMu sync.Mutex
	enc   *gob.Encoder

	mu     sync.Mutex
	seq    uint64                   // next collective round number
	epoch  uint64                   // current run number (attach increments)
	rounds map[uint64]chan [][]byte // round waiters by sequence number
	m      *Machine                 // machine of the run in progress
	dead   error                    // control plane unusable (fatal abort, hub gone): no later run attaches
}

var (
	procOnce sync.Once
	procRT   *procRuntime
	procInit error
)

// ChildMain initialises the multi-process child runtime: it reads the
// launcher's environment contract, connects to the hub's control listener
// and waits until every rank of the job has checked in.  Call it early in
// main().  Outside a launched child (PCF_PROC_RANK unset) it does nothing
// and returns false.  It is idempotent; a failure to reach the hub panics —
// a launched child that cannot join its job has nothing sensible to do.
func ChildMain() bool {
	if _, _, _, ok := procEnv(); !ok {
		return false
	}
	if _, err := procConnect(); err != nil {
		panic(fmt.Sprintf("runtime: joining launched job: %v", err))
	}
	return true
}

// ProcRank returns this process's rank and the number of processes in the
// launched job, or ok=false when the process was not started by a launcher.
func ProcRank() (rank, nprocs int, ok bool) {
	rank, nprocs, _, ok = procEnv()
	return rank, nprocs, ok
}

// ChildDone signals a clean shutdown to the hub.  Call it when the program
// has finished its work, before exiting; a child that exits without it is
// treated as died and aborts the surviving ranks.  No-op outside a child.
func ChildDone() {
	p := currentProc()
	if p == nil {
		return
	}
	_ = p.send(&ctlMsg{Kind: ctlBye, Rank: p.rank})
}

// currentProc returns the child runtime if this process has one connected.
func currentProc() *procRuntime {
	if _, _, _, ok := procEnv(); !ok {
		return nil
	}
	p, err := procConnect()
	if err != nil {
		return nil
	}
	return p
}

// procConnect dials the hub once per process and starts the control reader.
func procConnect() (*procRuntime, error) {
	procOnce.Do(func() {
		rank, n, ctl, ok := procEnv()
		if !ok {
			procInit = fmt.Errorf("runtime: not a launched child (%s unset)", procRankEnv)
			return
		}
		conn, err := net.DialTimeout("tcp", ctl, 30*time.Second)
		if err != nil {
			procInit = fmt.Errorf("runtime: rank %d dialling control plane %s: %w", rank, ctl, err)
			return
		}
		p := &procRuntime{
			rank:   rank,
			n:      n,
			conn:   conn,
			enc:    gob.NewEncoder(conn),
			rounds: make(map[uint64]chan [][]byte),
		}
		if err := p.send(&ctlMsg{Kind: ctlHello, Rank: rank}); err != nil {
			procInit = fmt.Errorf("runtime: rank %d hello: %w", rank, err)
			return
		}
		// Wait for the hub's ready before returning: every rank is connected,
		// so collective rounds cannot race the job bring-up.
		dec := gob.NewDecoder(conn)
		var msg ctlMsg
		if err := dec.Decode(&msg); err != nil || msg.Kind != ctlReady {
			procInit = fmt.Errorf("runtime: rank %d waiting for job bring-up: %v (kind %d)", rank, err, msg.Kind)
			return
		}
		go p.readLoop(dec)
		procRT = p
	})
	return procRT, procInit
}

// send writes one control message (the gob encoder is not concurrency-safe).
func (p *procRuntime) send(msg *ctlMsg) error {
	p.encMu.Lock()
	defer p.encMu.Unlock()
	return p.enc.Encode(msg)
}

// readLoop dispatches hub messages: round results to their waiters, abort
// broadcasts to the attached machine.
func (p *procRuntime) readLoop(dec *gob.Decoder) {
	for {
		var msg ctlMsg
		if err := dec.Decode(&msg); err != nil {
			p.die(fmt.Errorf("runtime: rank %d lost the control plane: %w", p.rank, err))
			return
		}
		switch msg.Kind {
		case ctlRoundDone:
			p.mu.Lock()
			ch := p.rounds[msg.Seq]
			delete(p.rounds, msg.Seq)
			p.mu.Unlock()
			if ch != nil {
				ch <- msg.Payloads
			}
		case ctlAbort:
			p.onAbort(msg.Fault)
		}
	}
}

// onAbort applies a hub abort broadcast.  Epoch-scoped faults only abort the
// run they belong to; fatal faults (a dead process) kill the job: the
// current run aborts and every later round fails immediately.
func (p *procRuntime) onAbort(f *ProcFault) {
	if f == nil {
		return
	}
	p.mu.Lock()
	m := p.m
	apply := f.Fatal || (m != nil && f.Epoch == p.epoch)
	if f.Fatal {
		p.dead = fmt.Errorf("runtime: job aborted: %s", f.Msg)
		for seq, ch := range p.rounds {
			delete(p.rounds, seq)
			close(ch)
		}
	}
	p.mu.Unlock()
	if !apply || m == nil {
		return
	}
	if f.Location == p.rank && !f.Fatal {
		return // our own fault echoed back; already on file
	}
	m.recordFault(&LocationFault{
		Location: f.Location, Kind: f.Kind, Err: f.Msg, remote: true,
	})
}

// die marks the control plane unusable and unblocks every round waiter.
func (p *procRuntime) die(err error) {
	p.mu.Lock()
	if p.dead == nil {
		p.dead = err
	}
	m := p.m
	for seq, ch := range p.rounds {
		delete(p.rounds, seq)
		close(ch)
	}
	p.mu.Unlock()
	if m != nil {
		m.recordFault(&LocationFault{
			Location: -1, Kind: FaultTransport, Err: err.Error(), remote: true,
		})
	}
}

// attach binds the machine to the control plane for one Execute run and
// advances the run epoch.  Every rank executes the same sequence of runs
// (SPMD discipline), so epochs agree across the job without negotiation.
func (p *procRuntime) attach(m *Machine) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead != nil {
		return p.dead
	}
	if p.m != nil {
		return fmt.Errorf("runtime: rank %d already has a machine executing (one proc-mode Execute at a time)", p.rank)
	}
	p.m = m
	p.epoch++
	// Re-base the round numbering for this run.  Every rank increments the
	// epoch once per Execute (SPMD discipline), so all ranks agree on the
	// base — and a rank that aborted the previous run mid-round can no longer
	// be one round number askew of the others, because stale contributions
	// from run e live in a sequence range run e+1 never uses.
	p.seq = p.epoch << 32
	m.faultMu.Lock()
	m.onFault = p.forwardFault
	m.faultMu.Unlock()
	return nil
}

// detach unbinds the machine at the end of its run.
func (p *procRuntime) detach(m *Machine) {
	p.mu.Lock()
	if p.m == m {
		p.m = nil
	}
	p.mu.Unlock()
	m.faultMu.Lock()
	m.onFault = nil
	m.faultMu.Unlock()
}

// forwardFault ships a locally raised fault to the hub, which broadcasts it
// so every rank aborts the same run.  Remotely applied faults are not
// re-forwarded (the hub already broadcast them).
func (p *procRuntime) forwardFault(f *LocationFault) {
	p.mu.Lock()
	epoch := p.epoch
	dead := p.dead
	p.mu.Unlock()
	if dead != nil {
		return
	}
	loc := f.Location
	if loc < 0 {
		loc = p.rank // attribute machine-wide faults to the reporting rank
	}
	_ = p.send(&ctlMsg{Kind: ctlFault, Rank: p.rank, Fault: &ProcFault{
		Location: loc, Kind: f.Kind, Msg: fmt.Sprintf("%v", f.Err), Epoch: epoch,
	}})
}

// round runs one collective control round: every rank contributes payload,
// the hub gathers all n and broadcasts the result.  SPMD discipline makes
// round numbers line up across ranks without negotiation.  The wait is
// abort-aware: a machine abort (local or broadcast) unwinds the caller.
func (p *procRuntime) round(payload []byte) ([][]byte, error) {
	p.mu.Lock()
	if p.dead != nil {
		err := p.dead
		p.mu.Unlock()
		return nil, err
	}
	seq := p.seq
	p.seq++
	ch := make(chan [][]byte, 1)
	p.rounds[seq] = ch
	var abortCh chan struct{}
	if p.m != nil {
		abortCh = p.m.abortCh
	}
	p.mu.Unlock()

	if err := p.send(&ctlMsg{Kind: ctlRound, Rank: p.rank, Seq: seq, Payload: payload}); err != nil {
		p.die(fmt.Errorf("runtime: rank %d sending round %d: %w", p.rank, seq, err))
		return nil, err
	}
	if abortCh == nil {
		abortCh = make(chan struct{}) // no machine: block until the hub answers or dies
	}
	select {
	case got, ok := <-ch:
		if !ok {
			p.mu.Lock()
			err := p.dead
			p.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("runtime: rank %d round %d failed", p.rank, seq)
			}
			return nil, err
		}
		return got, nil
	case <-abortCh:
		p.mu.Lock()
		delete(p.rounds, seq)
		p.mu.Unlock()
		return nil, errProcAborted
	}
}

var errProcAborted = fmt.Errorf("runtime: run aborted during a collective round")

// collectiveRound is round() with SPMD-side error handling: a failed round
// means the run (or the job) is over, and the caller is an SPMD goroutine,
// so the failure unwinds as the abort sentinel after filing a fault.
func (p *procRuntime) collectiveRound(m *Machine, payload []byte) [][]byte {
	got, err := p.round(payload)
	if err != nil {
		m.roundFailed(err)
		panic(abortSignal{})
	}
	return got
}

// roundFailed makes sure a failed round leaves the machine aborted with a
// fault on file (the abort that failed it usually filed one already).
func (m *Machine) roundFailed(err error) {
	if err != errProcAborted && !m.aborted() {
		m.recordFault(&LocationFault{Location: -1, Kind: FaultTransport, Err: err.Error(), remote: true})
	}
}

// Collective value encoding.  Contributions travel as gob inside a
// single-field wrapper so interface values round-trip; workload types used
// in collectives must be registered (RegisterCollectiveType) in every
// process, exactly like gob itself requires.

type gobAny struct{ V any }

// RegisterCollectiveType registers a concrete type for multi-process
// collectives (AllReduce, AllGather, Broadcast payloads).  The common scalar
// and slice types are pre-registered, and gather-style collectives register
// contribution types automatically (every rank encodes its own contribution
// of the same type before decoding anyone else's, so the registration always
// precedes the decode).  Explicit registration remains necessary only for
// types a process must DECODE without ever encoding — a Broadcast payload on
// a non-root rank.  Safe to call multiple times with the same type.
func RegisterCollectiveType(v any) {
	gob.Register(v)
}

func init() {
	for _, v := range []any{
		int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), bool(false), string(""),
		[]byte(nil), []int(nil), []int64(nil), []uint64(nil),
		[]float64(nil), []string(nil), []bool(nil),
	} {
		gob.Register(v)
	}
}

func procEncodeAny(v any) ([]byte, error) {
	if v != nil {
		// Self-registration: the encoding rank will decode contributions of
		// this same type from its peers in the same round, and gob needs the
		// name→type mapping on the DECODING side.  Registering here (before
		// any decode of the round's results) makes gather-style collectives
		// work for arbitrary named workload types without a manual
		// RegisterCollectiveType at every call site.
		gob.Register(v)
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(&gobAny{V: v}); err != nil {
		return nil, fmt.Errorf("runtime: encoding collective contribution of type %T: %w (RegisterCollectiveType missing?)", v, err)
	}
	return b.Bytes(), nil
}

func procDecodeAny(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var w gobAny
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return nil, fmt.Errorf("runtime: decoding collective contribution: %w", err)
	}
	return w.V, nil
}

// procBarrier is the control-plane barrier: one empty round.
func (m *Machine) procBarrier() {
	m.checkAbort()
	m.proc.collectiveRound(m, nil)
}

// procGather is the control-plane gather behind the collectives: every rank
// contributes one value, every rank receives all n by rank.
func (m *Machine) procGather(v any) []any {
	m.checkAbort()
	payload, err := procEncodeAny(v)
	if err != nil {
		panic(err.Error())
	}
	got := m.proc.collectiveRound(m, payload)
	out := make([]any, m.proc.n)
	for i, b := range got {
		x, err := procDecodeAny(b)
		if err != nil {
			panic(err.Error())
		}
		out[i] = x
	}
	return out
}

// procBroadcast is Broadcast over the control plane.  Only the root encodes
// its value; the other ranks contribute an empty payload.
func (m *Machine) procBroadcast(root int, v any) any {
	m.checkAbort()
	var payload []byte
	if m.proc.rank == root {
		var err error
		if payload, err = procEncodeAny(v); err != nil {
			panic(err.Error())
		}
	}
	got := m.proc.collectiveRound(m, payload)
	out, err := procDecodeAny(got[root])
	if err != nil {
		panic(err.Error())
	}
	return out
}

// procVote is one rank's contribution to the distributed quiescence wave.
type procVote struct {
	Sent    int64 // requests handed to the data plane by this process
	Arrived int64 // requests received from the data plane by this process
}

// procQuiesce is waitQuiescent for a launched job: the machine is globally
// quiescent when every process's local pending count is zero AND the job-wide
// sent and arrived request totals are equal across two consecutive waves with
// no traffic in between (the classic double-wave termination detection — a
// single matching wave can be a coincidence of read skew while a request
// chain is still bouncing).  Every wave is a collective round, so no rank
// returns before quiescence was jointly observed, and a round completes only
// once every rank has drained locally: the round itself is the back-off
// between waves.  Like waitQuiescent it returns early when the run aborts.
func (m *Machine) procQuiesce() {
	pt, ok := m.transport.(*procTransport)
	if !ok {
		panic(fmt.Sprintf("runtime: proc machine is running transport %q; proc mode requires the proc transport", m.transport.Name()))
	}
	prev := int64(-1)
	for {
		// Drain local work — arrivals in execution, plus anything a handler
		// buffered — on the same event an in-process fence waits for.
		m.waitZero(&m.pending)
		if m.aborted() {
			return
		}
		vote := procVote{Sent: pt.sent.Load(), Arrived: pt.arrived.Load()}
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&vote); err != nil {
			panic(fmt.Sprintf("runtime: encoding quiescence vote: %v", err))
		}
		got, err := m.proc.round(b.Bytes())
		if err != nil {
			m.roundFailed(err)
			return
		}
		var sent, arrived int64
		for _, pb := range got {
			var v procVote
			if err := gob.NewDecoder(bytes.NewReader(pb)).Decode(&v); err != nil {
				panic(fmt.Sprintf("runtime: decoding quiescence vote: %v", err))
			}
			sent += v.Sent
			arrived += v.Arrived
		}
		if sent == arrived && sent == prev {
			return // two matching waves, no traffic in between
		}
		if sent == arrived {
			prev = sent
		} else {
			prev = -1
		}
	}
}

// procStatsMsg is one rank's contribution to the end-of-run statistics fold.
type procStatsMsg struct {
	Stats Stats
	Wire  transport.WireStats
}

// procFoldStats gathers every rank's statistic shard and wire counters and
// stores the job-wide sums, so Machine.Stats() after a proc-mode run reports
// the same machine-wide totals an in-process run would.
func (m *Machine) procFoldStats() {
	msg := procStatsMsg{Stats: m.foldShards(), Wire: m.transport.WireStats()}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(&msg); err != nil {
		panic(fmt.Sprintf("runtime: encoding stats fold: %v", err))
	}
	got, err := m.proc.round(b.Bytes())
	if err != nil {
		return // aborted or dead control plane: local stats remain
	}
	var folded Stats
	var wire transport.WireStats
	for _, pb := range got {
		var v procStatsMsg
		if err := gob.NewDecoder(bytes.NewReader(pb)).Decode(&v); err != nil {
			return
		}
		folded = folded.Add(v.Stats)
		wire.Add(v.Wire)
	}
	m.foldedStats = &folded
	m.foldedWire = &wire
}

// isProcFactory reports whether f is the ProcTransport factory (the proc
// machine switch: NewMachine attaches the child runtime when its transport
// will be the multi-process one).
func isProcFactory(f TransportFactory) bool {
	return f != nil && reflect.ValueOf(f).Pointer() == reflect.ValueOf(ProcTransport).Pointer()
}

// ProcTransport is the multi-process transport factory: the reliable wire
// protocol over a TCP mesh with one listener per process, with every frame
// self-decoding (an unregistered closure request is a structured transport
// fault — there is no rendezvous table across processes).  It requires the
// process to be a launched child (see ChildMain / cmd/pcflaunch) and the
// machine to have exactly one location per process.
func ProcTransport(m *Machine) Transport {
	p := m.proc
	if p == nil {
		panic("runtime: proc transport outside a launched child (run under cmd/pcflaunch, or NewMachine without the ProcTransport factory)")
	}
	mesh := transport.NewTCPMesh(p.n, p.rank)
	inner := transport.NewReliable(mesh, p.n)
	wt := newWireTransport(m, inner)
	t := &procTransport{wireTransport: wt, p: p}
	wt.arrived = func(src, n int) {
		t.arrived.Add(int64(n))
		m.addPending(src, int64(n))
	}
	// Exchange data-plane addresses: every rank has bound its listener by
	// Start above, so after this round every rank can dial every other.
	addrs, err := p.round([]byte(mesh.Addr()))
	if err != nil {
		wt.Close()
		panic(fmt.Sprintf("runtime: rank %d exchanging data-plane addresses: %v", p.rank, err))
	}
	table := make([]string, len(addrs))
	for i, a := range addrs {
		table[i] = string(a)
	}
	mesh.SetPeerAddrs(table)
	return t
}

// procTransport wraps the wire transport with the cross-process pending
// accounting: a request handed to the wire stops being this process's
// responsibility (the local pending count drops) and becomes the receiving
// process's at arrival (the hook in ProcTransport).  The sent/arrived
// counters feed the quiescence waves that account for frames in flight
// between the two.
type procTransport struct {
	*wireTransport
	p       *procRuntime
	sent    atomic.Int64
	arrived atomic.Int64
}

func (t *procTransport) Deliver(src, dst int, batch []*rmiRequest) {
	for _, req := range batch {
		if !req.byValue() {
			// Only bytes cross a process boundary; fail the run with a
			// diagnosable fault instead of stranding a rendezvous entry the
			// receiving process can never match.
			t.m.recordFault(&LocationFault{
				Location: src, Kind: FaultTransport,
				Err: req.describe() + " cannot cross a process boundary; register the operation with codecs (see runtime.RegisterOp)",
			})
			t.m.unpendSent(src, int64(len(batch)))
			return
		}
	}
	t.wireTransport.Deliver(src, dst, batch)
	t.sent.Add(int64(len(batch)))
	t.m.unpendSent(src, int64(len(batch)))
}

func (t *procTransport) DeliverOne(src, dst int, req *rmiRequest) {
	t.Deliver(src, dst, []*rmiRequest{req})
}

func (t *procTransport) Name() string { return "proc" }
