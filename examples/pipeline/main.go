// Stream sorting. A sorting network is oblivious: every batch meets the
// same comparators in the same order, so SortStream gathers the batches
// already waiting on its input channel into one lane block (up to 16)
// and runs them through the network together, one kernel call per run
// of equal-width gates for the whole block.
//
// The example sorts many batches through L(4,4) twice — with a
// BatchSorter loop, one batch per call, and through SortStream —
// verifies every batch, and reports both throughputs.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"countnet"
)

const batches = 20_000

func main() {
	net, err := countnet.NewL(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	w := net.Width()
	fmt.Printf("streaming %d batches of %d values through %s (depth %d)\n\n",
		batches, w, net.Name(), net.Depth())

	rng := rand.New(rand.NewSource(1))
	inputs := make([][]int64, batches)
	for i := range inputs {
		inputs[i] = make([]int64, w)
		for j := range inputs[i] {
			inputs[i][j] = int64(rng.Intn(1 << 20))
		}
	}

	// One reusable sorter, one batch per call.
	seq := countnet.NewBatchSorter(net)
	start := time.Now()
	var checksum int64
	for _, in := range inputs {
		out := seq.Sort(in)
		checksum += out[0] + out[w-1]
	}
	seqElapsed := time.Since(start)
	fmt.Printf("BatchSorter: %v  (%.0f batches/sec)\n",
		seqElapsed.Round(time.Millisecond), float64(batches)/seqElapsed.Seconds())

	// SortStream: batches waiting on the channel sort as one block.
	in := make(chan []int64, 8)
	start = time.Now()
	go func() {
		defer close(in)
		for _, batch := range inputs {
			in <- append([]int64(nil), batch...)
		}
	}()
	var streamChecksum int64
	count := 0
	for out := range net.SortStream(in) {
		for i := 1; i < len(out); i++ {
			if out[i-1] > out[i] {
				log.Fatalf("batch %d not sorted: %v", count, out)
			}
		}
		streamChecksum += out[0] + out[w-1]
		count++
	}
	streamElapsed := time.Since(start)
	fmt.Printf("SortStream:  %v  (%.0f batches/sec)\n",
		streamElapsed.Round(time.Millisecond), float64(batches)/streamElapsed.Seconds())

	if count != batches || streamChecksum != checksum {
		log.Fatalf("stream lost or corrupted batches: %d/%d, checksum %d vs %d",
			count, batches, streamChecksum, checksum)
	}
	fmt.Println("\nall batches verified sorted; checksums agree.")
}
