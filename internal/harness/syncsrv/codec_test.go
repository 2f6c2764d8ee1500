package syncsrv

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// drawReply is the /draw body as encoding/json reads it: the reference
// the hand-written codec is held to.
type drawReply struct {
	Stride int64      `json:"stride"`
	Runs   [][2]int64 `json:"runs"`
}

func (d *drawReply) lease() lease {
	l := lease{stride: d.Stride, runs: make([]counter.Run, len(d.Runs))}
	for i, r := range d.Runs {
		l.runs[i] = counter.Run{Start: r[0], N: r[1]}
	}
	return l
}

func (d *drawReply) check(n int) error {
	l := d.lease()
	return l.check(n)
}

// TestDrawReplyGolden pins the /draw wire format: a 1,024-value and a
// MaxDraw lease from the middle of an L(4,4) hub's run must render to
// the bytes in testdata/draw_reply.golden, which the encoding/json
// server this codec replaced first wrote. Run with -update to rewrite
// it.
func TestDrawReplyGolden(t *testing.T) {
	net, err := core.L(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(net)
	defer hub.Close()
	if _, err := hub.Register("w0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := hub.Draw("w0", 65500); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	for _, n := range []int{1024, MaxDraw} {
		runs, err := hub.Draw("w0", n)
		if err != nil {
			t.Fatal(err)
		}
		got = appendDraw(got, int64(net.Width()), runs)
	}
	path := filepath.Join("testdata", "draw_reply.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("draw replies differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestReplyScanner: the scanner takes what the server sends in any JSON
// spacing and key order and reads a missing key as zero, and names
// what is wrong with anything else.
func TestReplyScanner(t *testing.T) {
	for _, c := range []struct {
		body   string
		stride int64
		runs   []counter.Run
	}{
		{"{\"stride\":16,\"runs\":[[0,64],[1,64]]}\n", 16, []counter.Run{{Start: 0, N: 64}, {Start: 1, N: 64}}},
		{" \t{ \"runs\" : [ [ 5 , 2 ] ] , \"stride\" : 3 }\r\n ", 3, []counter.Run{{Start: 5, N: 2}}},
		{`{"runs":[[-9223372036854775808,9223372036854775807]]}`, 0, []counter.Run{{Start: -1 << 63, N: 1<<63 - 1}}},
		{`{"stride":-0,"runs":[]}`, 0, nil},
		{`{}`, 0, nil},
	} {
		l, err := scanDraw([]byte(c.body), nil)
		if err != nil || l.stride != c.stride || !slices.Equal(l.runs, c.runs) {
			t.Errorf("scan %q = stride %d, runs %v, %v; want %d, %v", c.body, l.stride, l.runs, err, c.stride, c.runs)
		}
	}
	for _, c := range []struct{ body, want string }{
		{``, "want '{'"},
		{`{"stride":1,"runs":[[0,1]]}x`, "trailing bytes"},
		{`{"stride":1}{}`, "trailing bytes"},
		{`{"stride":1,"runs":[[0,1]],}`, "want '\"'"},
		{`{"stride":1,"stride":2}`, "repeated key"},
		{`{"Stride":1}`, "unknown key"},
		{`{"values":[0,1]}`, "unknown key"},
		{`{"str\u0069de":1}`, "escaped"},
		{`{"stride":01}`, "leading zero"},
		{`{"stride":1.0}`, "non-integer"},
		{`{"stride":1e3}`, "non-integer"},
		{`{"stride":-}`, "want an integer"},
		{`{"stride":"1"}`, "want an integer"},
		{`{"stride":null}`, "want an integer"},
		{`{"stride":9223372036854775808}`, "out of int64 range"},
		{`{"stride":-9223372036854775809}`, "out of int64 range"},
		{`{"stride":99999999999999999999}`, "out of int64 range"},
		{`{"runs":[[0,1,2]]}`, "want ']'"},
		{`{"runs":[[0]]}`, "want ','"},
		{`{"runs":null}`, "want '['"},
		{`{"runs":[[0,1]`, "want ','"},
		{`{"stride" 1}`, "want ':'"},
	} {
		if _, err := scanDraw([]byte(c.body), nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("scan %q: err %v, want one naming %q", c.body, err, c.want)
		}
	}
	if v, err := scanField([]byte("{\"generation\":42}\n"), generationKeys); v != 42 || err != nil {
		t.Errorf("generation reply: %d, %v", v, err)
	}
	if _, err := scanField([]byte(`{"workers":1}`), generationKeys); err == nil {
		t.Error("workers reply scanned as a generation reply")
	}
}

// TestDrawReplyCodecAllocFree: appending a reply into a buffer with
// room and scanning one into runs with room allocate nothing.
func TestDrawReplyCodecAllocFree(t *testing.T) {
	runs := make([]counter.Run, 16)
	for i := range runs {
		runs[i] = counter.Run{Start: 262000 + int64(i), N: 64}
	}
	buf := make([]byte, 0, 512)
	if a := testing.AllocsPerRun(100, func() { buf = appendDraw(buf[:0], 16, runs) }); a != 0 {
		t.Errorf("appendDraw: %v allocs, want 0", a)
	}
	body := slices.Clone(buf)
	dst := make([]counter.Run, 0, 16)
	var err error
	if a := testing.AllocsPerRun(100, func() {
		var l lease
		l, err = scanDraw(body, dst)
		if err == nil {
			err = l.check(1024)
		}
	}); a != 0 || err != nil {
		t.Errorf("scanDraw: %v allocs, err %v; want 0 allocs", a, err)
	}
	field := appendField(nil, "generation", 7)
	if a := testing.AllocsPerRun(100, func() { _, err = scanField(field, generationKeys) }); a != 0 || err != nil {
		t.Errorf("scanField: %v allocs, err %v; want 0 allocs", a, err)
	}
}

// TestClientBoundsErrorBody: an error reply is read under the same cap
// as a good one, and the other endpoints scan their one-field replies.
func TestClientBoundsErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/barrier" {
			io.WriteString(w, `{"generation":3}`) //nolint:errcheck // test server
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, strings.Repeat("x", maxReply+1)) //nolint:errcheck // test server
	}))
	defer srv.Close()
	cl := NewClient(srv.URL)
	want := "exceeds " + strconv.Itoa(maxReply) + " bytes"
	if _, err := cl.Register("w0"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("oversized error reply: err %v, want one naming %q", err, want)
	}
	if gen, err := cl.Barrier("s", 2); gen != 3 || err != nil {
		t.Errorf("barrier reply: generation %d, %v; want 3", gen, err)
	}
}

// TestQueryValueMatchesURLValues: the handlers' raw-query reader finds
// what url.Values.Get finds, escapes, repeats and bad pairs included.
func TestQueryValueMatchesURLValues(t *testing.T) {
	for _, raw := range []string{
		"", "worker", "worker=", "worker=w0&n=4", "n=1&n=2&worker=w1",
		"worker=a%20b+c&n=%34", "%6E=5&n=6", "worker=%zz&worker=ok",
		"worker=x;y&worker=z", "&&n=7&", "n=8=9", "state=%E2%9C%93&n=2",
	} {
		q, _ := url.ParseQuery(raw)
		for _, key := range []string{"worker", "n", "state"} {
			if got, want := queryValue(raw, key), q.Get(key); got != want {
				t.Errorf("queryValue(%q, %q) = %q, url.Values has %q", raw, key, got, want)
			}
		}
	}
}

// FuzzDrawReply holds the scanner and the appender to encoding/json.
// (a) Any body the scanner accepts, json.Unmarshal into drawReply also
// accepts, with the same stride and runs. (b) Runs taken from the
// input's bytes render to json.Marshal's bytes plus a newline, and
// scanning them gives the runs back.
func FuzzDrawReply(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "draw_reply.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		f.Add(line, int64(16))
	}
	for _, s := range []string{
		`{"stride":1,"runs":[[0,1099511627776]]}`,
		`{"runs":[[0,4]]}`,
		`{"stride":-2,"runs":[[0,-4],[1,8]]}`,
		`{"stride":4611686018427387904,"runs":[[1,4]]}`,
		" { \"runs\" : [ ] , \"stride\" : 0 } \n",
		`{"stride":01,"runs":[[9223372036854775808,1]]}`,
		`{"stride":1.5e3}`,
	} {
		f.Add([]byte(s), int64(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, stride int64) {
		if l, err := scanDraw(body, nil); err == nil {
			var ref drawReply
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
			}
			if rl := ref.lease(); rl.stride != l.stride || !slices.Equal(rl.runs, l.runs) {
				t.Fatalf("%q: scanner read stride %d runs %v, encoding/json %d %v", body, l.stride, l.runs, rl.stride, rl.runs)
			}
		}

		ref := drawReply{Stride: stride, Runs: make([][2]int64, min(len(body)/16, MaxDraw))}
		runs := make([]counter.Run, len(ref.Runs))
		for i := range runs {
			start := int64(binary.LittleEndian.Uint64(body[16*i:]))
			n := int64(binary.LittleEndian.Uint64(body[16*i+8:]))
			ref.Runs[i] = [2]int64{start, n}
			runs[i] = counter.Run{Start: start, N: n}
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		got := appendDraw(nil, stride, runs)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("appendDraw = %s, json.Marshal = %s", got, want)
		}
		l, err := scanDraw(got, nil)
		if err != nil || l.stride != stride || !slices.Equal(l.runs, runs) {
			t.Fatalf("scan of %s: stride %d runs %v, %v", got, l.stride, l.runs, err)
		}
	})
}
