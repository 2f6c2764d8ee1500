package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

func TestFlightRecordDumpOrdered(t *testing.T) {
	f := NewFlightRecorder(256)
	for i := int64(0); i < 100; i++ {
		f.Record(FlightBlockLease, i*64, 64)
	}
	events := f.Dump()
	if len(events) != 100 {
		t.Fatalf("Dump returned %d events, want 100", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d, want %d (dump must be seq-ordered and gap-free pre-wrap)", i, e.Seq, i)
		}
		if e.Kind != FlightBlockLease || e.A != int64(i)*64 || e.B != 64 {
			t.Fatalf("event %d payload mismatch: %+v", i, e)
		}
		if e.TS <= 0 {
			t.Fatalf("event %d has non-positive timestamp %d", i, e.TS)
		}
	}
	if got := f.NextSeq(); got != 100 {
		t.Fatalf("NextSeq = %d, want 100", got)
	}
}

func TestFlightWraparoundKeepsTail(t *testing.T) {
	// The ring is one locked buffer whatever GOMAXPROCS is: one writer
	// that wraps it four times keeps exactly the newest Cap() events.
	for _, procs := range []int{1, 2, 16} {
		prev := runtime.GOMAXPROCS(procs)
		f := NewFlightRecorder(64)
		capacity := f.Cap()
		total := capacity * 4
		for i := 0; i < total; i++ {
			f.Record(FlightPhaseStart, int64(i), 0)
		}
		events := f.Dump()
		runtime.GOMAXPROCS(prev)
		if capacity != 64 || len(events) != capacity {
			t.Fatalf("GOMAXPROCS=%d: Cap %d, Dump after wrap returned %d events, want 64 of 64", procs, capacity, len(events))
		}
		for i, e := range events {
			want := uint64(total - capacity + i)
			if e.Seq != want || e.A != int64(want) {
				t.Fatalf("GOMAXPROCS=%d: event %d is seq %d (a=%d), want the newest Cap() events in order (seq %d)", procs, i, e.Seq, e.A, want)
			}
		}
	}
}

func TestFlightDumpSince(t *testing.T) {
	f := NewFlightRecorder(256)
	for i := int64(0); i < 20; i++ {
		f.Record(FlightBarrierArrive, i, 7)
	}
	mid := f.NextSeq()
	for i := int64(20); i < 30; i++ {
		f.Record(FlightBarrierArrive, i, 7)
	}
	tail := f.DumpSince(mid)
	if len(tail) != 10 {
		t.Fatalf("DumpSince(%d) returned %d events, want 10", mid, len(tail))
	}
	for _, e := range tail {
		if e.Seq < mid {
			t.Fatalf("DumpSince(%d) leaked earlier event seq=%d", mid, e.Seq)
		}
	}
}

func TestFlightNilRecorderSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightOracleViolation, 1, 2) // must not panic
	if got := f.Dump(); got != nil {
		t.Fatalf("nil Dump = %v, want nil", got)
	}
	if got := f.DumpSince(5); got != nil {
		t.Fatalf("nil DumpSince = %v, want nil", got)
	}
	if f.NextSeq() != 0 || f.Cap() != 0 {
		t.Fatal("nil recorder must report zero NextSeq and Cap")
	}
}

func TestFlightDefaultLifecycle(t *testing.T) {
	DisableFlight()
	t.Cleanup(DisableFlight)
	RecordFlight(FlightPhaseStart, 0, 0) // off: one nil-check, no-op
	if DefaultFlight() != nil {
		t.Fatal("DefaultFlight non-nil before EnableFlight")
	}
	f := EnableFlight(128)
	if DefaultFlight() != f {
		t.Fatal("EnableFlight did not install the returned recorder")
	}
	RecordFlight(FlightPhaseStart, 3, 4)
	events := f.Dump()
	if len(events) != 1 || events[0].Kind != FlightPhaseStart || events[0].A != 3 {
		t.Fatalf("default recorder missed RecordFlight event: %+v", events)
	}
	DisableFlight()
	if DefaultFlight() != nil {
		t.Fatal("DisableFlight left a recorder installed")
	}
}

func TestFlightConcurrentRecordAndDump(t *testing.T) {
	f := NewFlightRecorder(1024)
	const writers = 8
	const perWriter = 2000
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() { // concurrent reader: dumps must stay ordered and untorn
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			events := f.Dump()
			for i := 1; i < len(events); i++ {
				if events[i].Seq != events[i-1].Seq+1 {
					t.Errorf("concurrent dump not gap-free at %d: seq %d then %d", i, events[i-1].Seq, events[i].Seq)
					return
				}
			}
			for _, e := range events {
				if e.Kind != FlightBlockLease || e.B != e.A+1 {
					t.Errorf("torn event read: %+v", e)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				a := int64(w*perWriter + i)
				f.Record(FlightBlockLease, a, a+1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()
	if got := f.NextSeq(); got != writers*perWriter {
		t.Fatalf("NextSeq = %d, want %d", got, writers*perWriter)
	}
}

func TestFlightRecordAllocFree(t *testing.T) {
	f := NewFlightRecorder(256)
	if allocs := testing.AllocsPerRun(1000, func() {
		f.Record(FlightBlockLease, 1, 2)
	}); allocs != 0 {
		t.Fatalf("Record (on) allocates %v per op, want 0", allocs)
	}
	var off *FlightRecorder
	if allocs := testing.AllocsPerRun(1000, func() {
		off.Record(FlightBlockLease, 1, 2)
	}); allocs != 0 {
		t.Fatalf("Record (nil) allocates %v per op, want 0", allocs)
	}
	DisableFlight()
	if allocs := testing.AllocsPerRun(1000, func() {
		RecordFlight(FlightBlockLease, 1, 2)
	}); allocs != 0 {
		t.Fatalf("RecordFlight (off) allocates %v per op, want 0", allocs)
	}
	EnableFlight(256)
	t.Cleanup(DisableFlight)
	if allocs := testing.AllocsPerRun(1000, func() {
		RecordFlight(FlightBlockLease, 1, 2)
	}); allocs != 0 {
		t.Fatalf("RecordFlight (on) allocates %v per op, want 0", allocs)
	}
}

func TestFlightKindTextRoundTrip(t *testing.T) {
	kinds := []FlightKind{
		FlightBarrierArrive, FlightBlockLease, FlightPhaseStart,
		FlightPhaseEnd, FlightOracleViolation, FlightKind(200),
	}
	for _, k := range kinds {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", k, err)
		}
		var back FlightKind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != k {
			t.Fatalf("kind %d round-tripped to %d via %q", k, back, text)
		}
	}
	var bad FlightKind
	if err := bad.UnmarshalText([]byte("not-a-kind")); err == nil {
		t.Fatal("UnmarshalText accepted junk")
	}
	// JSON round trip through FlightEvent, the wire shape flight dumps use.
	e := FlightEvent{Seq: 9, TS: 123, Kind: FlightOracleViolation, A: -1, B: 5}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got FlightEvent
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("event round-trip: got %+v want %+v", got, e)
	}
}

func TestFlightHTTPHandler(t *testing.T) {
	DisableFlight()
	t.Cleanup(DisableFlight)
	r := NewRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	var resp flightDump
	getJSON(t, srv.URL+"/debug/flight", &resp)
	if resp.Enabled || len(resp.Events) != 0 {
		t.Fatalf("disabled recorder should report enabled=false, no events: %+v", resp)
	}

	f := EnableFlight(128)
	f.Record(FlightPhaseStart, 0, 2)
	f.Record(FlightPhaseEnd, 0, 100)
	getJSON(t, srv.URL+"/debug/flight", &resp)
	if !resp.Enabled || len(resp.Events) != 2 || resp.NextSeq != 2 {
		t.Fatalf("enabled dump wrong: %+v", resp)
	}
	if resp.Events[0].Kind != FlightPhaseStart || resp.Events[1].Kind != FlightPhaseEnd {
		t.Fatalf("events out of order: %+v", resp.Events)
	}

	getJSON(t, srv.URL+"/debug/flight?since=1", &resp)
	if len(resp.Events) != 1 || resp.Events[0].Seq != 1 {
		t.Fatalf("since=1 dump wrong: %+v", resp)
	}

	// After a wrap a page is exact: next_seq and its events come from
	// one hold of the ring's lock, contiguous and ending at next_seq-1.
	for i := int64(0); i < 300; i++ {
		f.Record(FlightBlockLease, i, 1)
	}
	for _, tc := range []struct {
		query string
		want  int
	}{{"", 128}, {"?since=0", 128}, {"?since=250", 52}} {
		var page flightDump
		getJSON(t, srv.URL+"/debug/flight"+tc.query, &page)
		if page.NextSeq != 302 || len(page.Events) != tc.want {
			t.Fatalf("page %q: next_seq %d with %d events, want 302 with %d", tc.query, page.NextSeq, len(page.Events), tc.want)
		}
		for i, e := range page.Events {
			if e.Seq != page.NextSeq-uint64(len(page.Events)-i) {
				t.Fatalf("page %q: event %d has seq %d, want a contiguous run ending at %d", tc.query, i, e.Seq, page.NextSeq-1)
			}
		}
	}
	getJSON(t, srv.URL+"/debug/flight?since=302", &resp)
	if resp.NextSeq != 302 || len(resp.Events) != 0 {
		t.Fatalf("page past the head: %+v", resp)
	}
}

// BenchmarkFlightRecord is the enabled recorder's cost per event: one
// writer, and every P writing to the same ring.
func BenchmarkFlightRecord(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		f := NewFlightRecorder(DefaultFlightSlots)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Record(FlightBlockLease, int64(i), 64)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		f := NewFlightRecorder(DefaultFlightSlots)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := int64(0); pb.Next(); i++ {
				f.Record(FlightBlockLease, i, 64)
			}
		})
	})
}

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
