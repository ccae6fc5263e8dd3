package runtime

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the payload-size resolution for RMI byte accounting.
// Three tiers, all reflection-free:
//
//  1. a built-in fast path for the 8-byte scalars the element paths move
//     (identical to the historical flat default, so counters do not move);
//  2. the Sizer interface, for payloads that carry their own size;
//  3. a registry of generics-instantiated sizers (RegisterSizer), each a
//     plain type assertion — no reflect on the hot path.
//
// A value that matches none of the tiers falls back to the flat default and
// is counted in the SizerMisses statistic: the fallback is a guess, and the
// stat makes the guessing visible instead of silent.
//
// Which tier sizes a value depends on its dynamic type alone (sizerOfType), so
// code that ships values of one static type resolves the tier once (SizerFor)
// and PayloadBytes resolves it per value: one definition of "how big is a T".

// Sizer is implemented by argument payloads that want their (simulated)
// marshalled size accounted in the machine statistics.  It mirrors the
// paper's define_type marshalling hooks: we do not serialise bytes over a
// wire, but we do track how many bytes would have moved.
type Sizer interface {
	ByteSize() int
}

// defaultPayloadBytes is the flat per-value fallback used when no sizer
// matches (the historical behaviour for every non-Sizer payload).
const defaultPayloadBytes = 8

// sizerEntry is one registered sizer: the size function if v is of its type,
// nil otherwise.
type sizerEntry func(v any) func(any) int

// sizerRegistry is an immutable snapshot slice of registered sizers; lookup
// is an atomic load plus a handful of type assertions.  Registration is rare
// (init time) and publishes a copy under sizerMu, which also guards
// sizerGuessed: a zero value of every type SizerFor found no tier for.
var (
	sizerMu       sync.Mutex
	sizerRegistry atomic.Pointer[[]sizerEntry]
	sizerGuessed  []any
)

func init() { sizerRegistry.Store(new([]sizerEntry)) }

// RegisterSizer registers a marshalled-size function for payloads of type T.
// It is consulted by PayloadBytes after the built-in fast path and the Sizer
// interface; the lookup is a type assertion per registered entry, so keep
// the registry to the handful of types a workload actually ships.  Sizers
// registered for a type that already matches an earlier tier are never
// consulted.  Safe for concurrent use; intended for init time: it panics if
// SizerFor has already settled on the flat default for a T, whose replies
// would silently keep it.
func RegisterSizer[T any](size func(T) int) {
	sizerMu.Lock()
	defer sizerMu.Unlock()
	for _, z := range sizerGuessed {
		if _, late := z.(T); late {
			panic(fmt.Sprintf("runtime: RegisterSizer[%T] after SizerFor resolved that type to the flat default; register before the operations shipping it are built", z))
		}
	}
	sized := func(v any) int { return size(v.(T)) }
	next := append(slices.Clone(*sizerRegistry.Load()), func(v any) func(any) int {
		if _, ok := v.(T); ok {
			return sized
		}
		return nil
	})
	sizerRegistry.Store(&next)
}

func byteSize(v any) int { return v.(Sizer).ByteSize() }

// sizerOfType resolves the tier that sizes values of v's dynamic type, without
// asking v itself for anything: size is nil where every such value takes the
// flat default, and ok is false where that default is a guess.
func sizerOfType(v any) (size func(v any) int, ok bool) {
	switch v.(type) {
	case nil:
		// A nil result marshals as a presence marker; keep the historical
		// flat default so reply accounting does not move.
		return nil, true
	case int64, uint64, int, uint, float64:
		// The 8-byte scalars every element path ships; equals the historical
		// flat default by construction.
		return nil, true
	case Sizer:
		return byteSize, true
	}
	for _, e := range *sizerRegistry.Load() {
		if size := e(v); size != nil {
			return size, true
		}
	}
	return nil, false
}

// sizeOf resolves v through the three tiers; ok reports whether any tier
// matched (false means the caller is about to guess the flat default).
func sizeOf(v any) (int, bool) {
	size, ok := sizerOfType(v)
	if size == nil {
		return defaultPayloadBytes, ok
	}
	return size(v), ok
}

// SizerFor resolves PayloadBytes for values of static type T once, so a path
// that ships a T per message — an operation's replies — does not walk the
// tiers per message, and boxes the value only to ask a Sizer that is not
// pointer-shaped.  For the scalar tier and for a type nothing sizes it is a
// constant; for an interface type every value has a type of its own and is
// resolved as it comes.
func SizerFor[T any]() func(T) int {
	var zero T
	if any(zero) == nil {
		return func(v T) int { return PayloadBytes(v) }
	}
	sizerMu.Lock()
	defer sizerMu.Unlock()
	size, ok := sizerOfType(zero)
	if !ok {
		sizerGuessed = append(sizerGuessed, zero)
	}
	if size == nil {
		return func(T) int { return defaultPayloadBytes }
	}
	return func(v T) int { return size(v) }
}

// PayloadBytes returns the simulated marshalled size of v: the built-in
// scalar fast path, its ByteSize if it implements Sizer, a registered sizer
// (RegisterSizer), or a flat default per value.  Framework code holding a
// Location should prefer Location.PayloadBytes, which additionally counts
// fallback guesses in the SizerMisses statistic.
func PayloadBytes(v any) int {
	n, _ := sizeOf(v)
	return n
}

// PayloadBytes is the accounted flavour of the package-level PayloadBytes:
// when every sizer tier misses and the flat default is guessed, the miss is
// counted in this location's SizerMisses shard, so hot paths that silently
// fall back to the guess show up in Machine.Stats instead of hiding.
func (l *Location) PayloadBytes(v any) int {
	n, ok := sizeOf(v)
	if !ok {
		l.stats.sizerMisses.Add(1)
	}
	return n
}
