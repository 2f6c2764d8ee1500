package countnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"countnet/internal/runner"
	"countnet/internal/sched"
)

func TestBatchSorter(t *testing.T) {
	n, err := NewL(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBatchSorter(n)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		in := make([]int64, 6)
		for i := range in {
			in[i] = int64(rng.Intn(100))
		}
		want := append([]int64(nil), in...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		got := s.Sort(in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("BatchSorter.Sort(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestBatchSorterAllocationFree(t *testing.T) {
	n, err := NewK(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBatchSorter(n)
	rng := rand.New(rand.NewSource(7))
	in := make([]int64, n.Width())
	for i := range in {
		in[i] = int64(rng.Intn(1000))
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Sort(in) }); allocs != 0 {
		t.Errorf("BatchSorter.Sort allocates %v times per run, want 0", allocs)
	}
}

func TestSortStream(t *testing.T) {
	n, err := NewK(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 50
	in := make(chan []int64)
	rng := rand.New(rand.NewSource(2))
	wants := make([][]int64, batches)
	go func() {
		defer close(in)
		for k := 0; k < batches; k++ {
			batch := make([]int64, 8)
			for i := range batch {
				batch[i] = int64(rng.Intn(1000))
			}
			sorted := append([]int64(nil), batch...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			wants[k] = sorted
			in <- batch
		}
	}()
	k := 0
	for got := range n.SortStream(in) {
		if !reflect.DeepEqual(got, wants[k]) {
			t.Fatalf("batch %d: %v, want %v", k, got, wants[k])
		}
		k++
	}
	if k != batches {
		t.Fatalf("received %d batches, want %d", k, batches)
	}

	// Lockstep: one batch at a time on an unbuffered channel, each
	// result received before the next batch is sent. The stream must
	// sort a lone batch at once, never wait to fill a block.
	in = make(chan []int64)
	out := n.SortStream(in)
	for k := range batches {
		batch := make([]int64, 8)
		for i := range batch {
			batch[i] = int64(rng.Intn(1000))
		}
		want := append([]int64(nil), batch...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		in <- batch
		select {
		case got := <-out:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lockstep batch %d: %v, want %v", k, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("lockstep batch %d: no result after 10s, the stream waits for a fuller block", k)
		}
	}
	close(in)
	if got, ok := <-out; ok {
		t.Fatalf("stream emitted %v after the last lockstep batch", got)
	}
}

func TestSortBatchesFacade(t *testing.T) {
	n, err := NewL(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batches := make([][]int64, 25)
	for i := range batches {
		batches[i] = make([]int64, 6)
		for j := range batches[i] {
			batches[i][j] = int64(rng.Intn(50))
		}
	}
	if err := n.SortBatches(batches, 4); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if !sort.SliceIsSorted(b, func(x, y int) bool { return b[x] < b[y] }) {
			t.Fatalf("batch %d not ascending: %v", i, b)
		}
	}
	if err := n.SortBatches([][]int64{{1}}, 1); err == nil {
		t.Error("short batch accepted")
	}
}

// TestSortStreamScheduleExploration drives concurrent producers into
// one SortStream under the controlled scheduler
// (internal/sched): the scheduler decides the exact order in which
// producers hand batches to the stream, and for every explored
// interleaving each emitted batch must be the sorted image of the
// batch submitted at that position. This pins down the pipeline's
// order-preservation contract under producer races, with any failing
// interleaving replayable from its printed seed. All six batches are
// sent before any result is read: the stream's output channel holds a
// full lane block, so they fit. It does not explore the stream's own
// goroutine: its fill loop runs outside the scheduler, so which
// batches share a lane block is up to the Go runtime, not a replayed
// choice.
func TestSortStreamScheduleExploration(t *testing.T) {
	n, err := NewK(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 3, 2
	rng := rand.New(rand.NewSource(8))
	batches := make([][][]int64, producers)
	for p := range batches {
		batches[p] = make([][]int64, perProducer)
		for k := range batches[p] {
			b := make([]int64, n.Width())
			for i := range b {
				b[i] = int64(rng.Intn(100))
			}
			batches[p][k] = b
		}
	}
	sys := sched.System(func() ([]sched.TaskFunc, func(*sched.Trace) error) {
		in := make(chan []int64)
		out := n.SortStream(in)
		var submitted [][]int64 // in serialized submission order
		tasks := make([]sched.TaskFunc, producers)
		for p := 0; p < producers; p++ {
			p := p
			tasks[p] = func(y *sched.Yield) {
				for k := 0; k < perProducer; k++ {
					y.Step(fmt.Sprintf("submit %d/%d", p, k))
					submitted = append(submitted, batches[p][k])
					in <- append([]int64(nil), batches[p][k]...) // the stream sorts input slices in place
				}
			}
		}
		check := func(tr *sched.Trace) error {
			close(in)
			pos := 0
			for got := range out {
				want := append([]int64(nil), submitted[pos]...)
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("stream position %d: got %v, want sorted %v of submission %v",
						pos, got, want, submitted[pos])
				}
				pos++
			}
			if pos != producers*perProducer {
				return fmt.Errorf("stream emitted %d batches, want %d", pos, producers*perProducer)
			}
			return nil
		}
		return tasks, check
	})
	if rep := sched.ExploreRandom(sys, 0xabcd, 60, 10_000); rep.Failure != nil {
		t.Fatalf("random: %s", rep.Failure)
	}
	if rep := sched.ExploreDFS(sys, 1, 5_000, 10_000); rep.Failure != nil {
		t.Fatalf("dfs: %s", rep.Failure)
	}
}

func TestSortStreamEmpty(t *testing.T) {
	n, _ := NewK(2, 2)
	in := make(chan []int64)
	close(in)
	count := 0
	for range n.SortStream(in) {
		count++
	}
	if count != 0 {
		t.Errorf("empty stream produced %d batches", count)
	}
}

// TestSortStreamWrongWidth sends 2-value batches to a width-4 stream,
// at the start, in the middle and at the end of a lane block and past
// it: each comes back unchanged in its place, every good batch comes
// back sorted, and the stream goes on after them.
func TestSortStreamWrongWidth(t *testing.T) {
	n, err := NewL(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const total = 2*runner.Lanes + 3
	bad := map[int]bool{0: true, 5: true, runner.Lanes - 1: true, runner.Lanes + 2: true, total - 1: true}
	rng := rand.New(rand.NewSource(12))
	sent := make([][]int64, total)
	in := make(chan []int64, total) // filled before the stream starts: the first blocks are full
	for i := range sent {
		size := n.Width()
		if bad[i] {
			size = 2
		}
		b := make([]int64, size)
		for j := range b {
			b[j] = int64(rng.Intn(100))
		}
		sent[i] = append([]int64(nil), b...)
		in <- b
	}
	close(in)
	pos := 0
	for got := range n.SortStream(in) {
		if pos == total {
			t.Fatalf("stream emitted more than the %d batches sent", total)
		}
		want := append([]int64(nil), sent[pos]...)
		if !bad[pos] {
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream position %d: got %v, want %v (sent %v)", pos, got, want, sent[pos])
		}
		pos++
	}
	if pos != total {
		t.Fatalf("stream emitted %d of %d batches", pos, total)
	}
}
