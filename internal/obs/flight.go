package obs

// Flight recorder: an always-on, allocation-free crash-forensics ring.
//
// The observability counters answer "how much"; the flight recorder
// answers "what happened, in what order" when a run goes wrong. It is
// one ring of fixed-size events — barrier arrivals, block leases,
// scenario phase edges, oracle violations — under one mutex, kept
// small enough (DefaultFlightSlots) that the tail is always the
// interesting part: when the cross-process oracle fails, every worker
// dumps exactly its last Cap() events instead of asking for a re-run
// with a seed.
//
// The recorder's writers are few and slow next to the events they
// describe: one worker goroutine per recorder, one event per hub lease
// and a benchmark's window edges. So Record takes the lock, stamps Seq
// and TS and writes slot Seq mod Cap(); there is nothing to shard, and
// a dump is one consistent copy of the newest events in Seq order.
// The design contract matches the rest of the obs layer: a disabled
// recorder is a nil pointer and Record costs exactly one nil-check; an
// enabled Record allocates nothing, proven by AllocsPerRun tests and
// the escape prover (`make vet-escape`).

import (
	"strconv"
	"sync"
	"sync/atomic"
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

// FlightEvent is one recorded event. Seq is the record order (a dump
// is a gap-free run of it), TS the obs.Now timestamp, A/B the
// kind-specific payload.
type FlightEvent struct {
	Seq  uint64     `json:"seq"`
	TS   int64      `json:"ts"`
	Kind FlightKind `json:"kind"`
	A    int64      `json:"a"`
	B    int64      `json:"b"`
}

// DefaultFlightSlots is the default ring capacity: the last 4096
// events a post-mortem dump reads.
const DefaultFlightSlots = 4096

// FlightRecorder is the locked event ring. The zero value is not
// usable; construct with NewFlightRecorder. A nil *FlightRecorder is
// a valid disabled recorder: Record returns after one nil-check and
// Dump returns nil.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightEvent // event Seq lives in ring[Seq%len(ring)]
	next uint64        // Seq of the next Record
}

// NewFlightRecorder builds a recorder that keeps the last slots events
// (slots <= 0 selects DefaultFlightSlots).
func NewFlightRecorder(slots int) *FlightRecorder {
	if slots <= 0 {
		slots = DefaultFlightSlots
	}
	return &FlightRecorder{ring: make([]FlightEvent, slots)}
}

// Cap returns the number of events the recorder keeps (0 for nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// NextSeq returns the sequence number the next Record will claim; a
// dump taken now contains only events with Seq < NextSeq. 0 for nil.
func (f *FlightRecorder) NextSeq() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Record appends one event, overwriting the oldest once the ring is
// full. Safe for concurrent use; allocation-free; a nil receiver
// (recorder off) costs exactly the nil-check.
//
//netvet:hotpath
func (f *FlightRecorder) Record(kind FlightKind, a, b int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next%uint64(len(f.ring))] = FlightEvent{Seq: f.next, TS: Now(), Kind: kind, A: a, B: b}
	f.next++
	f.mu.Unlock()
}

// Dump returns every event still in the ring, ordered by sequence:
// the newest min(NextSeq, Cap) events, gap-free. Safe to call while
// recording continues.
func (f *FlightRecorder) Dump() []FlightEvent { return f.DumpSince(0) }

// DumpSince returns the retained events with Seq >= since, ordered by
// sequence. A nil recorder returns nil.
func (f *FlightRecorder) DumpSince(since uint64) []FlightEvent {
	_, events := f.page(since)
	return events
}

// page reads, under one hold of the lock, the next sequence number and
// the retained events with Seq >= since: the contiguous run
// [max(since, next-Cap), next), nil when it is empty.
func (f *FlightRecorder) page(since uint64) (next uint64, events []FlightEvent) {
	if f == nil {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	next = f.next
	n := uint64(len(f.ring))
	if next > n && since < next-n {
		since = next - n
	}
	if since >= next {
		return next, nil
	}
	events = make([]FlightEvent, 0, next-since)
	for seq := since; seq < next; seq++ {
		events = append(events, f.ring[seq%n])
	}
	return next, events
}

// defaultFlight is the process-wide recorder RecordFlight writes to;
// nil (the boot state) means recording is off everywhere.
var defaultFlight atomic.Pointer[FlightRecorder]

// EnableFlight installs a fresh default recorder with the given
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
