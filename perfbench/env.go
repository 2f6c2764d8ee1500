package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// machine is recorded with every result: what ran, where, and how busy
// the host was when the run started.
type machine struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPU         string  `json:"cpu"`
	Go          string  `json:"go"`
	Commit      string  `json:"commit"`
	Load1       float64 `json:"load1"`
	TCPTimeWait int     `json:"tcp_time_wait"`
}

func readMachine() machine {
	return machine{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPU:         cpuModel(),
		Go:          runtime.Version(),
		Commit:      gitCommit(),
		Load1:       load1(),
		TCPTimeWait: tcpTimeWait(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory in the working directory,
// without running git; a checkout that is not a repository reports
// "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// load1 is the 1-minute load average, -1 when unreadable.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// tcpTimeWait is the host's count of TCP sockets in TIME_WAIT, from the
// "tw" field of /proc/net/sockstat; -1 when unreadable.
func tcpTimeWait() int {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "TCP:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		for i := 0; i+1 < len(f); i += 2 {
			if f[i] == "tw" {
				if n, err := strconv.Atoi(f[i+1]); err == nil {
					return n
				}
			}
		}
	}
	return -1
}
