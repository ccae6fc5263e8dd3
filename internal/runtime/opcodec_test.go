package runtime_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/containers/parray"
	"repro/internal/containers/passoc"
	"repro/internal/containers/pgraph"
	"repro/internal/containers/plist"
	"repro/internal/containers/pmatrix"
	"repro/internal/containers/pvector"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// opSample is one argument (or reply) a container put on the wire: which
// operation's codec wrote it, and the bytes.
type opSample struct {
	op    uint64
	reply bool
}

// familyTraffic runs every family's remote element methods on location 0 of a
// two-location machine — per element, in groups of one, in groups of about a
// thousand; asynchronous writes, blocking reads, and writes that wait for a
// reply (the Sequential model) — and returns every distinct argument and reply
// the wire adapter framed, by operation.
func familyTraffic(t *testing.T) map[opSample][][]byte {
	const n = 2048 // elements per indexed container; half of them location 1's
	var mu sync.Mutex
	samples := map[opSample][][]byte{}
	seen := map[string]bool{}
	cfg := runtime.DefaultConfig()
	cfg.Transport = runtime.TappedWireTransport(func(frame []byte) {
		_, descs, err := transport.DecodeBatch(frame)
		if err != nil {
			t.Errorf("the adapter framed a batch that does not decode: %v", err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, d := range descs {
			key := opSample{d.Op, d.Kind == transport.KindReply}
			if id := fmt.Sprint(key, string(d.Arg)); d.Op != 0 && !seen[id] {
				seen[id] = true
				samples[key] = append(samples[key], append([]byte(nil), d.Arg...))
			}
		}
	})
	fault := runtime.NewMachine(2, cfg).ExecuteErr(func(loc *runtime.Location) {
		arr := parray.New[int64](loc, n)
		seq := parray.New[int64](loc, n, parray.WithTraits(core.Traits{Consistency: core.Sequential}))
		vec := pvector.New[int64](loc, n)
		mat := pmatrix.New[int64](loc, 64, 64)
		sp := pmatrix.NewSparse[int64](loc, 64, 64)
		lst := plist.New[int64](loc)
		hm := passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
		words := passoc.NewHashMap[string, string](loc, partition.StringHash)
		set := passoc.NewCompressedSet(loc, n)
		g := pgraph.New[int64, int64](loc, n)
		mine := make([]plist.GID, n/2)
		for i := range mine {
			mine[i] = lst.PushAnywhere(int64(i))
		}
		nodes := runtime.AllGatherT(loc, mine)[1]
		loc.Fence()
		if loc.ID() == 0 {
			// Every container is asked for all of its elements, so about half of
			// each group is location 1's wherever the partition drew the line.
			idxs, vals := make([]int64, n), make([]int64, n)
			cells := make([]domain.Index2D, n)
			strs, strVals := make([]string, 256), make([]string, 256)
			edges := make([]pgraph.EdgeSpec[int64], n)
			for i := range idxs {
				idxs[i], vals[i] = int64(i), int64(i*i)<<uint(i%40)-int64(i)
				cells[i] = domain.Index2D{Row: int64(i / 32), Col: int64(i % 32)}
				edges[i] = pgraph.EdgeSpec[int64]{Src: int64(i), Tgt: int64(n - 1 - i), Prop: vals[i]}
			}
			for i := range strs {
				strs[i], strVals[i] = fmt.Sprint("key-", i), strings.Repeat("v", i%5)
			}
			last := n - 1 // location 1's under every partition used here
			one, oneCell := idxs[last:], cells[last:]

			indexed := func(set func(int64, int64), get func(int64) int64, setBulk func([]int64, []int64), getBulk func([]int64) []int64) {
				set(int64(last), 7)
				get(int64(last))
				setBulk(one, vals[last:])
				getBulk(one)
				setBulk(idxs, vals)
				getBulk(idxs)
			}
			indexed(arr.Set, arr.Get, arr.SetBulk, arr.GetBulk)
			indexed(seq.Set, seq.Get, seq.SetBulk, seq.GetBulk)
			indexed(vec.Set, vec.Get, vec.SetBulk, vec.GetBulk)
			for _, m := range []interface {
				Set(r, c int64, v int64)
				Get(r, c int64) int64
				SetBulk([]domain.Index2D, []int64)
				GetBulk([]domain.Index2D) []int64
			}{mat, sp} {
				m.Set(63, 31, 7)
				m.Get(63, 31)
				m.SetBulk(oneCell, vals[last:])
				m.GetBulk(oneCell)
				m.SetBulk(cells, vals)
				m.GetBulk(cells)
			}
			lst.Set(nodes[0], 7)
			lst.Get(nodes[0])
			lst.SetBulk(nodes[:1], vals[:1])
			lst.GetBulk(nodes[:1])
			lst.SetBulk(nodes, vals[:len(nodes)])
			lst.GetBulk(nodes)
			for _, k := range idxs[:64] { // some of these are location 1's, whatever the hash
				hm.Insert(k, 7)
				hm.Find(k)
				hm.InsertBulk([]int64{k}, []int64{7})
				hm.FindBulk([]int64{k})
			}
			hm.InsertBulk(idxs, vals)
			hm.FindBulk(idxs)
			for i, k := range strs[:16] {
				words.Insert(k, strVals[i])
				words.Find(k)
			}
			words.InsertBulk(strs, strVals)
			words.FindBulk(append(strs, "absent"))
			set.Insert(int64(last))
			set.Contains(int64(last))
			set.InsertBulk(one)
			set.ContainsBulk(one)
			set.InsertBulk(idxs)
			set.ContainsBulk(idxs)
			g.AddEdgeAsync(int64(last), 0, 7)
			g.AddEdgesBulk(edges[last:])
			g.AddEdgesBulk(edges)
			g.VertexProperty(int64(last))
		}
		loc.Fence()
	})
	if fault != nil {
		t.Fatalf("the sampling run faulted: %v", fault)
	}
	return samples
}

// TestEveryRegisteredOpCodec takes what the families' element operations put
// on a wire and holds every registered operation's codec to the three things
// decoding in place and sizing from a decoded count lean on:
//
//   - encode → decode → re-encode is byte-identical and consumes the input;
//   - EVERY strict prefix of a valid encoding — every cut, not a sample of them
//     — ends in a sticky error: never a panic, never a record;
//   - a count rewritten to 2^40 is a decode error, and no prefix and no forged
//     count makes a decoder allocate more than a constant times its input.
//
// The registry is the list of what must be covered: a by-value element
// operation (…/set, …/get, …/bulk-set, …/bulk-get) this run did not sample
// fails the test, so a family that registers a new one has to drive it here.
func TestEveryRegisteredOpCodec(t *testing.T) {
	samples := familyTraffic(t)
	codecOf := func(s opSample) (string, transport.Codec[any]) {
		name, arg, reply := runtime.OpWireCodecs(s.op)
		if s.reply {
			return name + " reply", reply
		}
		return name, arg
	}
	// decode runs one decode to its end and reports the sticky error, turning a
	// panic into a failure that names the input.
	decode := func(what string, c transport.Codec[any], in []byte) (v any, b *transport.Buffer) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: decoding %d bytes panicked: %v", what, len(in), r)
			}
		}()
		b = transport.NewReader(in)
		return c.Decode(b), b
	}
	allocated := func(f func()) uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		f()
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	largest := map[opSample]int{}
	for s, args := range samples {
		what, codec := codecOf(s)
		grouped := strings.Contains(what, "/bulk-")
		for _, arg := range args {
			largest[s] = max(largest[s], len(arg))
			v, b := decode(what, codec, arg)
			if b.Err() != nil || b.Remaining() != 0 {
				t.Errorf("%s: a framed argument of %d bytes decodes with err=%v, %d bytes left", what, len(arg), b.Err(), b.Remaining())
				continue
			}
			again := transport.NewBuffer()
			codec.Encode(again, v)
			if !bytes.Equal(again.Bytes(), arg) {
				t.Errorf("%s: re-encoding a decoded %d-byte argument gives %d different bytes", what, len(arg), again.Len())
			}

			// Every cut.  A decoder may allocate what the bytes it was given can
			// honestly describe: a few words per input byte, plus its record.
			budget := uint64(len(arg))*uint64(len(arg))*64/2 + uint64(len(arg))*4096
			if got := allocated(func() {
				for cut := 0; cut < len(arg); cut++ {
					if _, b := decode(what, codec, arg[:cut]); b.Err() == nil {
						t.Errorf("%s: the first %d of %d bytes decode without an error", what, cut, len(arg))
						return
					}
				}
			}); got > budget {
				t.Errorf("%s: decoding every prefix of %d bytes allocated %d bytes, budget %d", what, len(arg), got, budget)
			}

			if grouped {
				// A group and its reply open with their element count.
				_, width := binary.Uvarint(arg)
				forged := append(binary.AppendUvarint(nil, 1<<40), arg[width:]...)
				if got := allocated(func() {
					if _, b := decode(what, codec, forged); b.Err() == nil {
						t.Errorf("%s: a count of 2^40 over %d bytes decodes without an error", what, len(forged))
					}
				}); got > uint64(len(forged))*64+4096 {
					t.Errorf("%s: a count of 2^40 over %d bytes made the decoder allocate %d bytes", what, len(forged), got)
				}
			}
		}
	}

	for _, name := range runtime.RegisteredOps() {
		id, _ := runtime.OpIDOf(name)
		_, arg, reply := runtime.OpWireCodecs(uint64(id))
		element := strings.HasSuffix(name, "/set") || strings.HasSuffix(name, "/bulk-set")
		read := strings.HasSuffix(name, "/get") || strings.HasSuffix(name, "/bulk-get")
		if !arg.ByValue() || !(element || read) || strings.HasPrefix(name, "core.test/") {
			continue
		}
		if len(samples[opSample{uint64(id), false}]) == 0 {
			t.Errorf("no argument of by-value element operation %q was sampled: drive it in familyTraffic", name)
		}
		if read && reply.ByValue() && len(samples[opSample{uint64(id), true}]) == 0 {
			t.Errorf("no reply of by-value element operation %q was sampled: drive it in familyTraffic", name)
		}
		if strings.Contains(name, "/bulk-") && largest[opSample{uint64(id), false}] < 1000 {
			t.Errorf("the largest sampled group of %q is %d bytes: no group of about a thousand elements was driven", name, largest[opSample{uint64(id), false}])
		}
	}
}
