// Trade-off explorer: the paper's headline flexibility. A width w has
// one network per factorization; coarse factorizations (few, large
// factors) give shallow networks of wide balancers, fine factorizations
// (many small factors) give deep networks of narrow balancers. This
// example prints the whole family for a width and sanity-checks each
// member end to end.
//
//	go run ./examples/tradeoff          # width 720
//	go run ./examples/tradeoff 96       # custom width
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"countnet"
)

func main() {
	width := 720 // 2*2*2*2*3*3*5: a rich factorization lattice
	if len(os.Args) > 1 {
		w, err := strconv.Atoi(os.Args[1])
		if err != nil || w < 2 {
			log.Fatalf("usage: tradeoff [width>=2]; got %q", os.Args[1])
		}
		width = w
	}

	fss := countnet.Factorizations(width)
	fmt.Printf("width %d has %d factorizations; the family L gives:\n\n", width, len(fss))
	fmt.Printf("%-28s %8s %8s %12s %10s\n", "factorization", "n", "depth", "balancer<=", "gates")

	type entry struct {
		fs    []int
		depth int
		maxB  int
	}
	var entries []entry
	for _, fs := range fss {
		net, err := countnet.NewL(fs...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %8d %8d %12d %10d\n", fmt.Sprint(fs), len(fs), net.Depth(), net.MaxBalancerWidth(), net.Size())
		entries = append(entries, entry{fs, net.Depth(), net.MaxBalancerWidth()})
	}

	// Verify a sample of the family actually counts (full verification
	// of hundreds of networks would take a while; the test suite does
	// the exhaustive version).
	fmt.Println("\nspot verification:")
	for _, i := range []int{0, len(entries) / 2, len(entries) - 1} {
		fs := entries[i].fs
		net, err := countnet.NewL(fs...)
		if err != nil {
			fmt.Printf("  %-28s BUILD FAIL: %v\n", fmt.Sprint(fs), err)
			continue
		}
		status := "PASS"
		if err := net.VerifyCounting(7); err != nil {
			status = "FAIL: " + err.Error()
		}
		fmt.Printf("  %-28s %s\n", fmt.Sprint(fs), status)
	}

	fmt.Println("\nreading the table: going down, factors shrink — balancers get narrower")
	fmt.Println("(cheaper switches) while depth grows (more latency). The paper's point")
	fmt.Println("is that every point on this curve is available for ANY width, at")
	fmt.Println("depth O(log^2 w) with small constants.")

	// Which point should YOU pick? The advisor scores every member
	// with a contention-aware cost model (calibrated on the repo's
	// committed benchmark lanes) for a given load profile: the mean
	// number of concurrent requesters and the values each one draws.
	fmt.Println("\nmeasurement-driven pick (countnet.AdviseFactorization):")
	fmt.Printf("%-12s %-8s %-28s %8s %12s\n", "concurrency", "block", "recommended", "depth", "balancer<=")
	for _, block := range []float64{1, 64} {
		for _, conc := range []float64{1, 4, 16, 64, 256} {
			adv, err := countnet.AdviseFactorization(width, conc, block)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12.0f %-8.0f %-28s %8d %12d\n",
				conc, block, fmt.Sprint(adv.Factors), adv.Depth, adv.MaxBalancerWidth)
		}
	}
	fmt.Println("\nhigher concurrency pushes the pick toward narrower balancers (the")
	fmt.Println("queueing penalty on a wide shared balancer dominates); big block draws")
	fmt.Println("push it back toward shallow networks (one reservation per gate per")
	fmt.Println("block divides the pressure).")
}
