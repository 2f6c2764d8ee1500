// Command netgen constructs a sorting/counting network and reports its
// structure: width, depth, gate statistics, and optionally a Graphviz
// DOT diagram, an ASCII layer listing, or a JSON serialization.
//
// Usage:
//
//	netgen -family L -factors 2,3,5            # stats for L(2,3,5)
//	netgen -family K -factors 4,4 -ascii       # layer diagram
//	netgen -family R -p 7 -q 9 -dot > r.dot    # Graphviz
//	netgen -family bitonic -width 16 -verify   # baseline + verification
//	netgen -family L -factors 2,3 -json        # machine-readable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"countnet"
)

func main() {
	var (
		family  = flag.String("family", "L", "network family: K, L, R, custom, bitonic, periodic, oddeven, mergex, bubble")
		load    = flag.String("load", "", "load a network from a JSON file instead of constructing one")
		base    = flag.String("base", "balancer", "custom family: base network, balancer or R")
		sc      = flag.String("staircase", "opt-base", "custom family: staircase variant, opt-base, opt-bitonic, basic, basic-sub")
		factors = flag.String("factors", "", "comma-separated factorization for K/L, e.g. 2,3,5")
		p       = flag.Int("p", 0, "p for R(p,q)")
		q       = flag.Int("q", 0, "q for R(p,q)")
		width   = flag.Int("width", 0, "width for bitonic/periodic/oddeven/bubble")
		dot     = flag.Bool("dot", false, "emit Graphviz DOT to stdout")
		ascii   = flag.Bool("ascii", false, "emit an ASCII layer listing")
		diagram = flag.Bool("diagram", false, "draw the network figure-style (wires and gate dots)")
		verilog = flag.Int("verilog", 0, "emit a Verilog sorting module with this data width (2-comparator networks only)")
		text    = flag.Bool("text", false, "emit the compact layer notation (0:1 2:3 per line)")
		asJSON  = flag.Bool("json", false, "emit the network as JSON")
		verify  = flag.Bool("verify", false, "run the counting and sorting verification batteries")
		seed    = flag.Int64("seed", 1, "verification RNG seed")
		trace   = flag.String("trace", "", "comma-separated entry wires; trace those tokens through the network one at a time")
	)
	flag.Parse()

	var net *countnet.Network
	var err error
	if *load != "" {
		net, err = loadNetwork(*load)
	} else if strings.EqualFold(*family, "custom") {
		net, err = buildCustom(*factors, *base, *sc)
	} else {
		net, err = build(*family, *factors, *p, *q, *width)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netgen:", err)
		os.Exit(2)
	}

	switch {
	case *verilog > 0:
		src, err := net.Verilog("", *verilog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netgen:", err)
			os.Exit(2)
		}
		fmt.Print(src)
	case *dot:
		fmt.Print(net.DOT())
	case *text:
		fmt.Print(net.FormatText())
	case *diagram:
		fmt.Print(net.Diagram())
	case *ascii:
		fmt.Print(net.ASCII())
	case *asJSON:
		data, err := json.MarshalIndent(net, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "netgen:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	default:
		printStats(net)
	}

	if *verify {
		fmt.Printf("counting battery: %s\n", verdict(net.VerifyCounting(*seed)))
		fmt.Printf("sorting battery:  %s\n", verdict(net.VerifySorting(*seed)))
	}

	if *trace != "" {
		entries, err := parseList(*trace, "entry wire")
		if err != nil {
			fmt.Fprintln(os.Stderr, "netgen:", err)
			os.Exit(2)
		}
		rendered, err := net.TraceTokens(entries)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netgen:", err)
			os.Exit(2)
		}
		fmt.Print(rendered)
	}
}

func buildCustom(factorsArg, baseArg, scArg string) (*countnet.Network, error) {
	fs, err := parseFactors(factorsArg)
	if err != nil {
		return nil, err
	}
	var opt countnet.Options
	switch strings.ToLower(baseArg) {
	case "balancer":
		opt.Base = countnet.BaseBalancer
	case "r":
		opt.Base = countnet.BaseR
	default:
		return nil, fmt.Errorf("unknown base %q (balancer, R)", baseArg)
	}
	switch strings.ToLower(scArg) {
	case "opt-base":
		opt.Staircase = countnet.StaircaseOptimizedBase
	case "opt-bitonic":
		opt.Staircase = countnet.StaircaseOptimizedBitonic
	case "basic":
		opt.Staircase = countnet.StaircaseBasic
	case "basic-sub":
		opt.Staircase = countnet.StaircaseBasicSubstituted
	default:
		return nil, fmt.Errorf("unknown staircase %q (opt-base, opt-bitonic, basic, basic-sub)", scArg)
	}
	return countnet.NewCustom(opt, fs...)
}

func loadNetwork(path string) (*countnet.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var net countnet.Network
	if err := json.Unmarshal(data, &net); err != nil {
		return nil, fmt.Errorf("decoding %s: %v", path, err)
	}
	return &net, nil
}

func verdict(err error) string {
	if err == nil {
		return "PASS"
	}
	return "FAIL — " + err.Error()
}

func build(family, factorsArg string, p, q, width int) (*countnet.Network, error) {
	switch strings.ToUpper(family) {
	case "K", "L":
		fs, err := parseFactors(factorsArg)
		if err != nil {
			return nil, err
		}
		if strings.ToUpper(family) == "K" {
			return countnet.NewK(fs...)
		}
		return countnet.NewL(fs...)
	case "R":
		if p < 2 || q < 2 {
			return nil, fmt.Errorf("family R needs -p and -q (>= 2)")
		}
		return countnet.NewR(p, q)
	}
	if width < 1 {
		return nil, fmt.Errorf("family %s needs -width", family)
	}
	switch strings.ToLower(family) {
	case "bitonic":
		return countnet.NewBitonic(width)
	case "periodic":
		return countnet.NewPeriodic(width)
	case "oddeven":
		return countnet.NewOddEvenMergeSort(width)
	case "mergex":
		return countnet.NewMergeExchange(width)
	case "bubble":
		return countnet.NewBubble(width)
	}
	return nil, fmt.Errorf("unknown family %q", family)
}

func parseFactors(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("families K and L need -factors, e.g. -factors 2,3,5")
	}
	return parseList(s, "factor")
}

// parseList parses a comma-separated list of integers; item names one
// element in the error message.
func parseList(s, item string) ([]int, error) {
	parts := strings.Split(s, ",")
	vs := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", item, part, err)
		}
		vs = append(vs, v)
	}
	return vs, nil
}

func printStats(net *countnet.Network) {
	fmt.Printf("network:   %s\n", net.Name())
	fmt.Printf("width:     %d\n", net.Width())
	fmt.Printf("depth:     %d\n", net.Depth())
	fmt.Printf("gates:     %d\n", net.Size())
	fmt.Printf("max gate:  %d\n", net.MaxBalancerWidth())
	hist := net.BalancerWidthHistogram()
	widths := make([]int, 0, len(hist))
	for w := range hist {
		widths = append(widths, w)
	}
	sort.Ints(widths)
	for _, w := range widths {
		fmt.Printf("  width-%d gates: %d\n", w, hist[w])
	}
}
