package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/domain"
	"repro/internal/transport"
)

// The three records an element operation marshals — element record, group,
// group reply — are generic over the element codecs, so their layout is
// checked here once per shape of codec (the tight-loop integer columns, the
// per-element default with copied values, a two-field GID) on records built
// field by field: every size × with and without arguments × with and without
// a reply token.  What the families actually put on a wire is probed, operation
// by operation, in runtime's TestEveryRegisteredOpCodec.

// sameValue is reflect.DeepEqual, but an empty byte slice decodes to nil.
func sameValue(a, b any) bool {
	if x, ok := a.([]byte); ok {
		return bytes.Equal(x, b.([]byte))
	}
	return reflect.DeepEqual(a, b)
}

func sameElems[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// recordCodecsRoundTrip drives one instantiation; gen draws a random (GID,
// argument, result) triple.
func recordCodecsRoundTrip[G, A, R any](t *testing.T, name string, gidC transport.Codec[G], argC transport.Codec[A], retC transport.Codec[R], gen func(r *rand.Rand) (G, A, R)) {
	o := newElemOp[G, *testBC, A, R]("", "", Write, gidC, argC, retC, nil) // unregistered: only its codecs are used
	groups, rets, elems := o.groupCodec(name, gidC, argC), o.groupRetCodec(name, retC), o.elemCodec(name, gidC, argC)
	r := rand.New(rand.NewSource(20))
	byteExact := func(what string, first, second []byte, err error) {
		t.Helper()
		if err != nil || !bytes.Equal(first, second) {
			t.Errorf("%s %s: err=%v, re-encoding identical: %v", name, what, err, bytes.Equal(first, second))
		}
	}
	for _, n := range []int{0, 1, 1024} {
		for _, token := range []uint64{0, 1<<40 + 7} {
			for _, withArgs := range []bool{false, true} {
				what := fmt.Sprintf("group of %d, args %v, token %d", n, withArgs, token)
				g := &group[G, A, R]{bytesPerOp: r.Intn(100), hops: 1 + r.Intn(3), token: token}
				if token != 0 {
					g.origin = r.Intn(8)
				}
				for i := 0; i < n; i++ {
					gid, arg, _ := gen(r)
					g.gids, g.poss = append(g.gids, gid), append(g.poss, r.Intn(1<<20))
					if withArgs {
						g.args = append(g.args, arg)
					}
				}
				first, second, err := groups.RoundTrip(g)
				byteExact(what, first, second, err)
				got := groups.Decode(transport.NewReader(first))
				wantPoss := g.poss
				if token == 0 {
					wantPoss = nil // positions travel only when a reply will need them
				}
				if !sameElems(got.gids, g.gids) || !sameElems(got.args, g.args) || !sameElems(got.poss, wantPoss) ||
					got.bytesPerOp != g.bytesPerOp || got.hops != g.hops || got.token != g.token || got.origin != g.origin || got.mode != Write {
					t.Errorf("%s %s: decoded record differs from the one encoded", name, what)
				}
			}

			_, arg, _ := gen(r)
			gid, _, _ := gen(r)
			a := &elemRec[G, A, R]{gid: gid, arg: arg, bytes: r.Intn(100), hops: 1 + r.Intn(3), token: token}
			if token != 0 {
				a.origin = r.Intn(8)
			}
			first, second, err := elems.RoundTrip(a)
			byteExact(fmt.Sprintf("element record, token %d", token), first, second, err)
			if got := elems.Decode(transport.NewReader(first)); !sameValue(got.gid, a.gid) || !sameValue(got.arg, a.arg) ||
				got.bytes != a.bytes || got.hops != a.hops || got.token != a.token || got.origin != a.origin || got.mode != Write {
				t.Errorf("%s element record, token %d: decoded %+v, encoded %+v", name, token, got, a)
			}
		}

		ret := &groupRet[R]{}
		for i := 0; i < n; i++ {
			_, _, v := gen(r)
			ret.poss, ret.vals = append(ret.poss, r.Intn(1<<20)), append(ret.vals, v)
		}
		first, second, err := rets.RoundTrip(ret)
		byteExact(fmt.Sprintf("reply of %d", n), first, second, err)
		if got := rets.Decode(transport.NewReader(first)); !sameElems(got.poss, ret.poss) || !sameElems(got.vals, ret.vals) {
			t.Errorf("%s reply of %d: decoded record differs from the one encoded", name, n)
		}
	}
}

func TestRecordCodecsRoundTrip(t *testing.T) {
	recordCodecsRoundTrip(t, "int64", transport.Int64Codec, transport.Int64Codec, transport.Float64Codec,
		func(r *rand.Rand) (int64, int64, float64) {
			return r.Int63() >> uint(r.Intn(64)), -(r.Int63() >> uint(r.Intn(64))), r.NormFloat64()
		})
	recordCodecsRoundTrip(t, "copied", transport.StringCodec, transport.BytesCodec, transport.StringCodec,
		func(r *rand.Rand) (string, []byte, string) {
			return fmt.Sprint("key", r.Intn(1000)), bytes.Repeat([]byte{byte(r.Intn(256))}, r.Intn(4)), fmt.Sprint(r.Int63())
		})
	recordCodecsRoundTrip(t, "cell-read", transport.Index2DCodec, unitCodec, transport.BoolCodec,
		func(r *rand.Rand) (domain.Index2D, struct{}, bool) {
			return domain.Index2D{Row: r.Int63n(1 << 30), Col: r.Int63n(1 << 10)}, struct{}{}, r.Intn(2) == 0
		})
}
