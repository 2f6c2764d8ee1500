package obs

// Flight recorder: an always-on, allocation-free crash-forensics ring.
//
// The observability counters answer "how much"; the flight recorder
// answers "what happened, in what order" when a run goes wrong. It is
// a lock-free, sharded ring buffer of fixed-size binary events —
// barrier arrivals, block leases, scenario phase edges, oracle
// violations — kept small enough (a few thousand events) that the
// tail is always the interesting part: when the cross-process oracle
// fails, every worker dumps its last ~4k events instead of asking for
// a re-run with a seed.
//
// The design contract matches the rest of the obs layer: a disabled
// recorder is a nil pointer and Record costs exactly one nil-check;
// an enabled Record is two fetch-and-adds (global sequence, shard
// slot claim) plus six plain atomic stores into a pre-allocated slot —
// no locks, no allocation, proven by AllocsPerRun tests and the
// escape prover (`make vet-escape`). Shards approximate per-P
// isolation by hashing the caller's stack address, so concurrent
// recorders write distinct cache lines; only the sequence word is
// shared, which is what makes Dump's ordering exact.
//
// Dump reads slots through a per-slot seqlock (the sequence is
// invalidated, the payload stored, the sequence republished), so a
// reader either sees a complete event or skips a slot that was being
// overwritten mid-read. Dumps are best-effort under concurrent wrap —
// exactly the post-mortem contract: the recorder must never perturb
// the run it is describing.

import (
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// FlightKind identifies one event type in the flight ring.
type FlightKind uint8

const (
	// FlightBarrierArrive is one barrier arrival: A = phase index (or
	// -1 outside a phase), B = the generation/ticket observed.
	FlightBarrierArrive FlightKind = iota + 1
	// FlightBlockLease is one leased value block: A = first value of
	// the block, B = block length.
	FlightBlockLease
	// FlightPhaseStart / FlightPhaseEnd are scenario phase edges:
	// A = phase index, B = kind-specific (parties, ops completed).
	FlightPhaseStart
	FlightPhaseEnd
	// FlightOracleViolation marks a failed invariant check: A/B are
	// checker-specific (e.g. the missing value and the issue bound).
	FlightOracleViolation

	flightKindCount
)

// flightKindNames maps kinds to their wire names (MarshalText). Keep
// in sync with the constants above.
var flightKindNames = [flightKindCount]string{
	FlightBarrierArrive:   "barrier-arrive",
	FlightBlockLease:      "block-lease",
	FlightPhaseStart:      "phase-start",
	FlightPhaseEnd:        "phase-end",
	FlightOracleViolation: "oracle-violation",
}

// String returns the kind's wire name ("kind(N)" for unknown values).
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) && flightKindNames[k] != "" {
		return flightKindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// MarshalText renders the kind by name, so JSON flight dumps read as
// post-mortems rather than opcode tables.
func (k FlightKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a wire name (or "kind(N)") back to the kind.
func (k *FlightKind) UnmarshalText(text []byte) error {
	s := string(text)
	for i, n := range flightKindNames {
		if n != "" && n == s {
			*k = FlightKind(i)
			return nil
		}
	}
	if rest, ok := cutAffix(s, "kind(", ")"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return err
		}
		*k = FlightKind(n)
		return nil
	}
	return &strconv.NumError{Func: "FlightKind", Num: s, Err: strconv.ErrSyntax}
}

// cutAffix trims prefix and suffix; ok reports both were present.
func cutAffix(s, prefix, suffix string) (string, bool) {
	if len(s) < len(prefix)+len(suffix) || s[:len(prefix)] != prefix || s[len(s)-len(suffix):] != suffix {
		return "", false
	}
	return s[len(prefix) : len(s)-len(suffix)], true
}

// FlightEvent is one recorded event. Seq is the global record order
// (gap-free at the recorder, gapped in a dump once the ring wrapped),
// TS the obs.Now timestamp, A/B the kind-specific payload.
type FlightEvent struct {
	Seq  uint64     `json:"seq"`
	TS   int64      `json:"ts"`
	Kind FlightKind `json:"kind"`
	A    int64      `json:"a"`
	B    int64      `json:"b"`
}

// flightSlot is one ring cell: a seqlock (seq, 0 = empty or being
// written, otherwise event-seq+1) over a fixed binary payload.
type flightSlot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	kind atomic.Int64
	a    atomic.Int64
	b    atomic.Int64
}

// flightShard is one writer stripe: its claim counter sits alone on a
// pair of cache lines (the same 128-byte discipline as PaddedCount)
// so shards never bounce each other's claims.
//
//netvet:padalign 128
type flightShard struct {
	next atomic.Uint64
	_    [120]byte
}

// DefaultFlightSlots is the default total ring capacity: the "last 4k
// events" a post-mortem dump reads.
const DefaultFlightSlots = 4096

// FlightRecorder is the sharded event ring. The zero value is not
// usable; construct with NewFlightRecorder. A nil *FlightRecorder is
// a valid disabled recorder: Record returns after one nil-check and
// Dump returns nil.
type FlightRecorder struct {
	shards    []flightShard
	rings     [][]flightSlot // rings[i] belongs to shards[i]
	shardMask uintptr
	slotMask  uint64
	seq       atomic.Uint64
}

// NewFlightRecorder builds a recorder holding at least slots events in
// total (rounded up so every shard gets a power-of-two ring; slots <=
// 0 selects DefaultFlightSlots). Shard count scales with GOMAXPROCS,
// capped at 64.
func NewFlightRecorder(slots int) *FlightRecorder {
	if slots <= 0 {
		slots = DefaultFlightSlots
	}
	shards := ceilPow2(runtime.GOMAXPROCS(0))
	if shards > 64 {
		shards = 64
	}
	per := ceilPow2((slots + shards - 1) / shards)
	f := &FlightRecorder{
		shards:    make([]flightShard, shards),
		rings:     make([][]flightSlot, shards),
		shardMask: uintptr(shards - 1),
		slotMask:  uint64(per - 1),
	}
	for i := range f.rings {
		f.rings[i] = make([]flightSlot, per)
	}
	return f
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Cap returns the recorder's total event capacity (0 for nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.rings) * int(f.slotMask+1)
}

// NextSeq returns the sequence number the next Record will claim; a
// dump taken now contains only events with Seq < NextSeq. 0 for nil.
func (f *FlightRecorder) NextSeq() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// shardHint derives a writer stripe from the goroutine's stack
// address: goroutine stacks are distinct (and at least 2KiB apart),
// so concurrent recorders land on different shards without any
// runtime hook. The address is only hashed, never dereferenced or
// retained, so the probe byte stays on the stack.
//
//netvet:hotpath
func shardHint() uintptr {
	var probe byte
	return uintptr(unsafe.Pointer(&probe)) >> 11
}

// Record appends one event. Safe for concurrent use; allocation-free;
// a nil receiver (recorder off) costs exactly the nil-check.
//
//netvet:hotpath
func (f *FlightRecorder) Record(kind FlightKind, a, b int64) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1) - 1
	f.encode(shardHint()&f.shardMask, seq, Now(), kind, a, b)
}

// encode claims the shard's next slot and publishes the event through
// the slot seqlock: invalidate, store payload, republish. A reader
// that catches the window sees seq==0 and skips the slot.
//
//netvet:hotpath
func (f *FlightRecorder) encode(shard uintptr, seq uint64, ts int64, kind FlightKind, a, b int64) {
	idx := f.shards[shard].next.Add(1) - 1
	s := &f.rings[shard][idx&f.slotMask]
	s.seq.Store(0)
	s.ts.Store(ts)
	s.kind.Store(int64(kind))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq + 1)
}

// Dump returns every event still in the ring, ordered by sequence.
// Safe to call while recording continues; slots being overwritten
// mid-read are skipped (post-mortem best effort).
func (f *FlightRecorder) Dump() []FlightEvent { return f.DumpSince(0) }

// DumpSince returns the retained events with Seq >= since, ordered by
// sequence. A nil recorder returns nil.
func (f *FlightRecorder) DumpSince(since uint64) []FlightEvent {
	if f == nil {
		return nil
	}
	var out []FlightEvent
	for shard := range f.rings {
		ring := f.rings[shard]
		for i := range ring {
			s := &ring[i]
			// Bounded seqlock read: retry a torn slot a few times, then
			// leave it behind — the writer is mid-overwrite and the old
			// event is gone anyway.
			for attempt := 0; attempt < 3; attempt++ {
				s1 := s.seq.Load()
				if s1 == 0 {
					break
				}
				e := FlightEvent{
					Seq:  s1 - 1,
					TS:   s.ts.Load(),
					Kind: FlightKind(s.kind.Load()),
					A:    s.a.Load(),
					B:    s.b.Load(),
				}
				if s.seq.Load() != s1 {
					continue
				}
				if e.Seq >= since {
					out = append(out, e)
				}
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// defaultFlight is the process-wide recorder RecordFlight writes to;
// nil (the boot state) means recording is off everywhere.
var defaultFlight atomic.Pointer[FlightRecorder]

// EnableFlight installs a fresh default recorder with the given total
// capacity (<= 0 selects DefaultFlightSlots) and returns it. Hot
// paths that were recording into a previous default keep their ring
// reachable only until their next Record — enable once at startup.
func EnableFlight(slots int) *FlightRecorder {
	f := NewFlightRecorder(slots)
	defaultFlight.Store(f)
	return f
}

// DisableFlight removes the default recorder; RecordFlight reverts to
// the one-nil-check disabled path.
func DisableFlight() { defaultFlight.Store(nil) }

// DefaultFlight returns the process-wide recorder, or nil when off.
func DefaultFlight() *FlightRecorder { return defaultFlight.Load() }

// RecordFlight appends one event to the default recorder: one atomic
// pointer load plus Record's nil-check when recording is off.
//
//netvet:hotpath
func RecordFlight(kind FlightKind, a, b int64) { defaultFlight.Load().Record(kind, a, b) }
