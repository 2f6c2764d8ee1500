package harness

import (
	"slices"
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/harness/syncsrv"
)

// seq returns 0..n-1.
func seqVals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// without drops the given values from vals.
func without(vals []int64, drop ...int64) []int64 {
	skip := map[int64]bool{}
	for _, d := range drop {
		skip[d] = true
	}
	var out []int64
	for _, v := range vals {
		if !skip[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestCheckValues drives the value oracle through clean and corrupted
// fixtures: it must accept exactly the quiescent counting contract and
// refute everything else with a specific complaint.
func TestCheckValues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		width   int
		values  []int64
		maxLost int
		wantErr string // "" = must pass
	}{
		{"empty", 4, nil, 0, ""},
		{"perfect", 4, seqVals(16), 0, ""},
		{"perfect ragged", 4, seqVals(13), 0, ""}, // width does not divide N
		{"single value", 4, []int64{0}, 0, ""},
		{"bad width", 0, seqVals(4), 0, "width"},
		{"negative", 4, []int64{0, 1, -3}, 0, "negative"},
		{"duplicate", 4, []int64{0, 1, 1, 2}, 0, "twice"},
		{"gap", 4, without(seqVals(16), 5), 0, "gap bound"},
		{"gap names first missing", 4, without(seqVals(16), 5, 9), 1, "first: 5"},
		{"gap within slack", 4, without(seqVals(16), 5), 1, ""},
		{"many gaps within slack", 4, without(seqVals(16), 2, 7, 11), 3, ""},
		{"more gaps than slack", 4, without(seqVals(16), 2, 7, 11), 2, "gap bound"},
		{"max itself never counts as missing", 4, []int64{0, 1, 2, 3, 4}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckValues(tc.width, tc.values, tc.maxLost)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckValues = %v, want pass", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckValues = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckRun drives the cross-process oracle through corrupted
// fixtures: transport duplicates, fabricated values, silent value
// loss, and kill-slack accounting.
func TestCheckRun(t *testing.T) {
	// Clean baseline: two workers split 0..9, both report everything.
	clean := func() (map[string][]int64, map[string][]int64) {
		issued := map[string][]int64{
			"w0": {0, 2, 4, 6, 8},
			"w1": {1, 3, 5, 7, 9},
		}
		reported := map[string][]int64{
			"w0": {0, 2, 4, 6, 8},
			"w1": {1, 3, 5, 7, 9},
		}
		return issued, reported
	}

	t.Run("clean", func(t *testing.T) {
		issued, reported := clean()
		if err := CheckRun(2, issued, reported, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("reported but never issued any", func(t *testing.T) {
		issued, reported := clean()
		reported["ghost"] = []int64{99}
		err := CheckRun(2, issued, reported, nil)
		if err == nil || !strings.Contains(err.Error(), "never issued") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("duplicate report", func(t *testing.T) {
		issued, reported := clean()
		reported["w0"] = append(reported["w0"], 0)
		err := CheckRun(2, issued, reported, nil)
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("fabricated value", func(t *testing.T) {
		// w1 reports a value the server issued to w0: a transport-level
		// corruption the per-worker issue log pins down.
		issued, reported := clean()
		reported["w1"] = append(without(reported["w1"], 9), 8)
		err := CheckRun(2, issued, reported, nil)
		if err == nil || !strings.Contains(err.Error(), "never issued") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("silent loss without kill", func(t *testing.T) {
		issued, reported := clean()
		reported["w0"] = without(reported["w0"], 4)
		err := CheckRun(2, issued, reported, nil)
		if err == nil || !strings.Contains(err.Error(), "not killed") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("killed worker may under-report", func(t *testing.T) {
		issued, reported := clean()
		reported["w0"] = without(reported["w0"], 4, 8)
		if err := CheckRun(2, issued, reported, map[string]bool{"w0": true}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("loss beyond kill slack", func(t *testing.T) {
		// w0 is killed (2 values of slack), but w1 also lost one: the
		// reported union is missing more than the kill accounts for.
		issued, reported := clean()
		reported["w0"] = without(reported["w0"], 4, 8)
		issued["w1"] = append(issued["w1"], 11)
		reported["w1"] = append(reported["w1"], 11)
		issued["w0"] = append(issued["w0"], 10)
		err := CheckRun(2, issued, reported, map[string]bool{"w0": true})
		// 4, 8, 10 are now missing from the union with only 3 of slack:
		// still inside the gap bound, so this passes...
		if err != nil {
			t.Fatalf("within slack: %v", err)
		}
		// ...but dropping one more from the non-lost w1 must refute.
		reported["w1"] = without(reported["w1"], 5)
		err = CheckRun(2, issued, reported, map[string]bool{"w0": true})
		if err == nil || !strings.Contains(err.Error(), "not killed") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("corrupt issue log", func(t *testing.T) {
		// The server-side log itself violates the counting contract:
		// no kill slack ever excuses that.
		issued, reported := clean()
		issued["w0"] = without(issued["w0"], 4)
		reported["w0"] = without(reported["w0"], 4)
		err := CheckRun(2, issued, reported, map[string]bool{"w1": true})
		if err == nil || !strings.Contains(err.Error(), "issue log") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestCheckRunCatchesRunMutants keeps the oracle's teeth now that the
// hub logs leases as strided runs: starting from a real hub's expanded
// IssueLog, a run duplicated into a second worker must fail CheckRun
// as a value issued twice, and a dropped run as a gap.
func TestCheckRunCatchesRunMutants(t *testing.T) {
	net, err := core.L(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := int64(net.Width())
	hub := syncsrv.NewHub(net)
	defer hub.Close()
	for _, id := range []string{"w0", "w1"} {
		if _, err := hub.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range []int{37, 100, 64, 5, 250} {
		if _, err := hub.Draw(WorkerID(i%2), n); err != nil {
			t.Fatal(err)
		}
	}
	issued := hub.IssueLog()
	if err := CheckRun(net.Width(), issued, issued, nil); err != nil {
		t.Fatalf("unmutated log: %v", err)
	}

	// w0's first run: its first value and the stride-w values after it.
	w0 := issued["w0"]
	k := 1
	for k < len(w0) && w0[k] == w0[k-1]+w {
		k++
	}
	run := w0[:k]
	copyLog := func() map[string][]int64 {
		out := map[string][]int64{}
		for id, vals := range issued {
			out[id] = slices.Clone(vals)
		}
		return out
	}

	dup := copyLog()
	dup["w1"] = append(dup["w1"], run...)
	if err := CheckRun(net.Width(), dup, dup, nil); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("run %v duplicated into w1: err %v, want a value drawn twice", run, err)
	}

	dropped := copyLog()
	dropped["w0"] = dropped["w0"][k:]
	if err := CheckRun(net.Width(), dropped, dropped, nil); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("run %v dropped from w0: err %v, want a gap", run, err)
	}
}
