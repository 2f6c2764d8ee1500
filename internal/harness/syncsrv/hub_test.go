package syncsrv

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"countnet/internal/core"
	"countnet/internal/network"
)

func testNet(t *testing.T) *network.Network {
	t.Helper()
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRegisterDuplicate: worker identities scope the issue log, so a
// second registration under the same id must be rejected — including
// when the two registrations race.
func TestRegisterDuplicate(t *testing.T) {
	h := NewHub(testNet(t))
	defer h.Close()
	if _, err := h.Register("w0"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("w0"); !errors.Is(err, ErrDuplicateWorker) {
		t.Fatalf("duplicate registration: err = %v, want ErrDuplicateWorker", err)
	}

	const racers = 16
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := h.Register("contested")
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Fatalf("%d of %d racing registrations of one id succeeded, want exactly 1", ok, racers)
	}
	if _, err := h.Register(""); !errors.Is(err, ErrEmptyWorker) {
		t.Fatalf("empty worker id: err = %v, want ErrEmptyWorker", err)
	}
}

// TestBarrierConcurrentArrivals: n parties loop through several
// generations of one barrier state concurrently; every party must
// observe generations 0,1,2,... in order. The race lane (-race) runs
// this against the real ticket counter and release broadcast.
func TestBarrierConcurrentArrivals(t *testing.T) {
	const parties, gens = 8, 5
	h := NewHub(testNet(t))
	defer h.Close()

	got := make([][]int64, parties)
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < gens; g++ {
				gen, err := h.Barrier("phase", parties)
				if err != nil {
					t.Errorf("party %d gen %d: %v", i, g, err)
					return
				}
				got[i] = append(got[i], gen)
			}
		}()
	}
	wg.Wait()
	for i, gs := range got {
		for g, gen := range gs {
			if gen != int64(g) {
				t.Fatalf("party %d arrival %d returned generation %d, want %d (all: %v)", i, g, gen, g, gs)
			}
		}
	}
}

// TestBarrierPartyMismatch: the first arrival fixes a state's party
// count; disagreeing arrivals are configuration bugs, not deadlocks.
func TestBarrierPartyMismatch(t *testing.T) {
	h := NewHub(testNet(t))
	defer h.Close()
	done := make(chan error, 1)
	go func() {
		_, err := h.Barrier("s", 2)
		done <- err
	}()
	for { // wait for the first arrival to create the state
		h.mu.Lock()
		created := len(h.barriers) > 0
		h.mu.Unlock()
		if created {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := h.Barrier("s", 3); err == nil || !strings.Contains(err.Error(), "parties") {
		t.Fatalf("mismatched party count: err = %v", err)
	}
	if _, err := h.Barrier("s", 0); err == nil {
		t.Fatal("0-party barrier accepted")
	}
	if _, err := h.Barrier("s", 2); err != nil { // completes the pair
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCloseReleasesWaiters: a torn-down hub must not strand blocked
// barrier arrivals, and refuses later calls with ErrClosed.
func TestCloseReleasesWaiters(t *testing.T) {
	h := NewHub(testNet(t))
	barErr := make(chan error, 1)
	go func() {
		_, err := h.Barrier("never", 2)
		barErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it block
	h.Close()
	select {
	case err := <-barErr:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("barrier waiter after close: err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier waiter not released by Close")
	}
	if _, err := h.Barrier("x", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("barrier on closed hub: err = %v, want ErrClosed", err)
	}
	if _, err := h.Register("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("registration on closed hub: err = %v, want ErrClosed", err)
	}
}

// TestDrawIssuesDistinctValues: concurrent draws from many workers
// must lease globally distinct, gap-free values, all present in the
// per-worker issue log.
func TestDrawIssuesDistinctValues(t *testing.T) {
	const workers, draws, block = 4, 20, 3
	h := NewHub(testNet(t))
	defer h.Close()

	if _, err := h.Draw("ghost", 1); err == nil {
		t.Fatal("draw from unregistered worker accepted")
	}
	if _, err := h.Register("w0"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Draw("w0", 0); err == nil {
		t.Fatal("0-value draw accepted")
	}
	if _, err := h.Draw("w0", MaxDraw+1); err == nil {
		t.Fatalf("%d-value draw accepted", MaxDraw+1)
	}

	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		if _, err := h.Register(workerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		w := workerID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < draws; d++ {
				if _, err := h.Draw(w, block); err != nil {
					t.Errorf("%s: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	log := h.IssueLog()
	seen := map[int64]bool{}
	total := 0
	for w, vals := range log {
		if len(vals) != draws*block {
			t.Fatalf("%s issued %d values, want %d", w, len(vals), draws*block)
		}
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("value %d issued twice", v)
			}
			seen[v] = true
			total++
		}
	}
	for v := int64(0); v < int64(total); v++ {
		if !seen[v] {
			t.Fatalf("quiescent issue log has a gap at %d (total %d)", v, total)
		}
	}
}

// workerID mirrors harness.WorkerID without importing harness
// (harness imports this package).
func workerID(i int) string {
	return "w" + strconv.Itoa(i)
}

// TestServerStatusCodes pins the HTTP answers: a draw outside
// 1..MaxDraw is a 400 that leaves the server serving (an unbounded n
// used to exhaust memory before any handler could answer), and
// /register tells a duplicate id (409) from an empty one (400) and a
// closed hub (503).
func TestServerStatusCodes(t *testing.T) {
	hub := NewHub(testNet(t))
	srv := NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
	post := func(path string) int {
		t.Helper()
		resp, err := http.Post(srv.URL()+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		path string
		want int
	}{
		{"/register?worker=w0", http.StatusOK},
		{"/register?worker=w0", http.StatusConflict},
		{"/register?worker=", http.StatusBadRequest},
		{"/draw?worker=w0&n=0", http.StatusBadRequest},
		{"/draw?worker=w0&n=" + strconv.Itoa(MaxDraw+1), http.StatusBadRequest},
		{"/draw?worker=w0&n=" + strconv.FormatInt(1<<37, 10), http.StatusBadRequest},
	} {
		if got := post(c.path); got != c.want {
			t.Errorf("POST %s = %d, want %d", c.path, got, c.want)
		}
	}
	vals, err := NewClient(srv.URL()).Draw("w0", MaxDraw)
	if err != nil || len(vals) != MaxDraw {
		t.Fatalf("MaxDraw draw after the rejected ones: %d values, err %v", len(vals), err)
	}
	hub.Close()
	if got := post("/register?worker=w1"); got != http.StatusServiceUnavailable {
		t.Errorf("register on a closed hub = %d, want %d", got, http.StatusServiceUnavailable)
	}
}
