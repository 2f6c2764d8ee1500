package syncsrv

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// TestIssueLogHoldsRuns: the hub logs leases as runs, so its log grows
// with leases × width, not with values: 512 leases of 1,024 values on
// L(4,4) hold at most 512·16 runs, and IssueLog still expands them to
// every value, gap-free.
func TestIssueLogHoldsRuns(t *testing.T) {
	const leases, size = 512, 1024
	net, err := core.L(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHub(net)
	defer h.Close()
	if _, err := h.Register("w0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leases; i++ {
		if _, err := h.Draw("w0", size); err != nil {
			t.Fatal(err)
		}
	}
	if n, max := len(h.issued["w0"]), leases*net.Width(); n > max {
		t.Errorf("issue log holds %d runs for %d leases, want <= %d", n, leases, max)
	}
	vals := h.IssueLog()["w0"]
	if len(vals) != leases*size {
		t.Fatalf("IssueLog expands to %d values, want %d", len(vals), leases*size)
	}
	slices.Sort(vals)
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("expanded issue log is not 0..%d: position %d holds %d", len(vals)-1, i, v)
		}
	}
}

// TestDrawReplyIsRuns: a MaxDraw lease crosses the wire as at most
// width runs in a body of at most 256 bytes (the value form took about
// 7 B per value).
func TestDrawReplyIsRuns(t *testing.T) {
	net, err := core.L(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(net)
	srv := NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if _, err := hub.Register("w0"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL()+"/draw?worker=w0&n="+strconv.Itoa(MaxDraw), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var reply drawReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if reply.Stride != int64(net.Width()) || len(reply.Runs) > net.Width() || reply.check(MaxDraw) != nil {
		t.Errorf("MaxDraw reply: stride %d, %d runs (width %d), check %v", reply.Stride, len(reply.Runs), net.Width(), reply.check(MaxDraw))
	}
	t.Logf("MaxDraw reply: %d bytes, %d runs", len(body), len(reply.Runs))
	if len(body) > 256 {
		t.Errorf("MaxDraw reply is %d bytes, want <= 256: %s", len(body), body)
	}
}

// TestClientRejectsBadRuns: Client.Draw checks a reply's runs before
// it allocates, so a server naming a 2^40-value run, a bad stride or
// start, an empty run, a short or long total or too many runs gets an
// error back instead of an out-of-memory crash; so does a body longer
// than any well-formed reply, which Draw stops reading at maxReply.
func TestClientRejectsBadRuns(t *testing.T) {
	tooMany := `{"stride":1,"runs":[` + strings.Repeat(`[0,1],`, MaxDraw) + `[0,1]]}`
	for _, c := range []struct{ name, body, want string }{
		{"huge run", `{"stride":1,"runs":[[0,1099511627776]]}`, "run [0,1099511627776] with 4 of 4"},
		{"zero stride", `{"stride":0,"runs":[[0,4]]}`, "stride 0"},
		{"negative stride", `{"stride":-2,"runs":[[0,4]]}`, "stride -2"},
		{"missing stride", `{"runs":[[0,4]]}`, "stride 0"},
		{"negative start", `{"stride":2,"runs":[[-1,4]]}`, "run [-1,4]"},
		{"empty run", `{"stride":2,"runs":[[0,0],[1,4]]}`, "run [0,0]"},
		{"negative length", `{"stride":2,"runs":[[0,-4],[1,8]]}`, "run [0,-4]"},
		{"short total", `{"stride":2,"runs":[[0,3]]}`, "holds 3 values, want 4"},
		{"long total", `{"stride":2,"runs":[[0,3],[1,2]]}`, "run [1,2] with 1 of 4"},
		{"no runs", `{"stride":2,"runs":[]}`, "holds 0 values"},
		{"overflowing run", `{"stride":4611686018427387904,"runs":[[1,4]]}`, "overflows"},
		{"too many runs", tooMany, "65537 runs"},
		{"oversized body", `{"stride":1,"runs":[` + strings.Repeat(`[9223372036854775807,9223372036854775807],`, MaxDraw+1), "exceeds " + strconv.Itoa(maxReply) + " bytes"},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, c.body) //nolint:errcheck // test server
			}))
			defer srv.Close()
			vals, err := NewClient(srv.URL).Draw("w0", 4)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("reply %.80s: %d values, err %v; want an error naming %q", c.body, len(vals), err, c.want)
			}
		})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"stride":2,"runs":[[6,3],[1,1]]}`) //nolint:errcheck // test server
	}))
	defer srv.Close()
	vals, err := NewClient(srv.URL).Draw("w0", 4)
	if err != nil || !slices.Equal(vals, []int64{6, 8, 10, 1}) {
		t.Fatalf("well-formed reply: %v, %v; want [6 8 10 1]", vals, err)
	}
}
