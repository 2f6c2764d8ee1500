package main

import (
	"strings"
	"testing"
	"time"
)

// TestParseConfig is the flag-validation table: every rejected line
// must produce an error that carries the usage text (main prints the
// error and exits 2, so the error IS the user's diagnostic), and every
// accepted line must normalize into the expected config.
func TestParseConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
		check   func(t *testing.T, cfg *config)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, cfg *config) {
				if cfg.Width != 16 || cfg.Engine != "plan" || cfg.Worker {
					t.Fatalf("defaults = %+v", cfg)
				}
				if cfg.Goroutines != nil {
					t.Fatalf("default goroutines = %v, want nil (sweep default)", cfg.Goroutines)
				}
				for _, c := range []string{"atomic", "mutex", "network", "combining"} {
					if !cfg.Counters[c] {
						t.Fatalf("default counters lack %s: %v", c, cfg.Counters)
					}
				}
			},
		},
		{
			name: "explicit lists",
			args: []string{"-counter", "network, combining", "-goroutines", "1,4,16", "-block", "8"},
			check: func(t *testing.T, cfg *config) {
				if len(cfg.Counters) != 2 || !cfg.Counters["network"] || !cfg.Counters["combining"] {
					t.Fatalf("counters = %v", cfg.Counters)
				}
				if len(cfg.Goroutines) != 3 || cfg.Goroutines[2] != 16 {
					t.Fatalf("goroutines = %v", cfg.Goroutines)
				}
				if cfg.Block != 8 {
					t.Fatalf("block = %d", cfg.Block)
				}
			},
		},
		{
			name: "normalization clamps and implications",
			args: []string{"-repeat", "0", "-block", "-2", "-http", ":8720"},
			check: func(t *testing.T, cfg *config) {
				if cfg.Repeat != 1 || cfg.Block != 1 {
					t.Fatalf("clamps: repeat=%d block=%d", cfg.Repeat, cfg.Block)
				}
				if !cfg.Obs {
					t.Fatal("-http must imply -obs")
				}
			},
		},
		{
			name: "sweep defaults to the fixed goroutine ladder",
			args: []string{"-sweep"},
			check: func(t *testing.T, cfg *config) {
				if !cfg.Sweep {
					t.Fatal("-sweep not recorded")
				}
				want := []int{1, 2, 4, 8, 16, 32}
				if len(cfg.Goroutines) != len(want) {
					t.Fatalf("sweep goroutines = %v, want %v", cfg.Goroutines, want)
				}
				for i, g := range want {
					if cfg.Goroutines[i] != g {
						t.Fatalf("sweep goroutines = %v, want %v", cfg.Goroutines, want)
					}
				}
				if !cfg.Counters["adaptive"] {
					t.Fatalf("default counters lack adaptive: %v", cfg.Counters)
				}
			},
		},
		{
			name: "sweep respects explicit goroutines",
			args: []string{"-sweep", "-goroutines", "3,5", "-counter", "adaptive"},
			check: func(t *testing.T, cfg *config) {
				if len(cfg.Goroutines) != 2 || cfg.Goroutines[0] != 3 || cfg.Goroutines[1] != 5 {
					t.Fatalf("goroutines = %v, want [3 5]", cfg.Goroutines)
				}
				if len(cfg.Counters) != 1 || !cfg.Counters["adaptive"] {
					t.Fatalf("counters = %v, want adaptive only", cfg.Counters)
				}
			},
		},
		{
			name: "adaptive is a known counter",
			args: []string{"-counter", "adaptive,atomic"},
			check: func(t *testing.T, cfg *config) {
				if len(cfg.Counters) != 2 || !cfg.Counters["adaptive"] || !cfg.Counters["atomic"] {
					t.Fatalf("counters = %v", cfg.Counters)
				}
			},
		},
		{
			name: "worker mode",
			args: []string{"-worker", "-sync", "http://127.0.0.1:9", "-id", "w3"},
			check: func(t *testing.T, cfg *config) {
				if !cfg.Worker || cfg.SyncURL != "http://127.0.0.1:9" || cfg.WorkerID != "w3" {
					t.Fatalf("worker cfg = %+v", cfg)
				}
			},
		},
		{name: "unknown counter", args: []string{"-counter", "atomic,quantum"}, wantErr: `unknown counter "quantum"`},
		{name: "unknown engine", args: []string{"-engine", "warp"}, wantErr: `unknown engine "warp"`},
		{name: "removed parallel engine", args: []string{"-engine", "parallel"}, wantErr: `unknown engine "parallel"`},
		{name: "unknown flag", args: []string{"-frobnicate"}, wantErr: "flag provided but not defined"},
		{name: "positional junk", args: []string{"16"}, wantErr: `unexpected argument "16"`},
		{name: "bad goroutine count", args: []string{"-goroutines", "1,zero"}, wantErr: `bad goroutine count "zero"`},
		{name: "zero goroutine count", args: []string{"-goroutines", "0"}, wantErr: "bad goroutine count"},
		{name: "sweep with worker", args: []string{"-worker", "-sweep", "-sync", "http://x", "-id", "w0"}, wantErr: "-sweep does not apply with -worker"},
		{name: "worker without sync", args: []string{"-worker", "-id", "w0"}, wantErr: "-worker needs -sync"},
		{name: "worker without id", args: []string{"-worker", "-sync", "http://x"}, wantErr: "-worker needs -id"},
		{name: "sync without worker", args: []string{"-sync", "http://x"}, wantErr: "only apply with -worker"},
		{name: "id without worker", args: []string{"-id", "w0"}, wantErr: "only apply with -worker"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseConfig(tc.args)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseConfig(%v) accepted, want error %q", tc.args, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				// main prints this error as the whole diagnostic, so the
				// usage text must ride along.
				if !strings.Contains(err.Error(), "-counter") || !strings.Contains(err.Error(), "-engine") {
					t.Fatalf("error lacks usage text:\n%v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseConfig(%v) = %v", tc.args, err)
			}
			tc.check(t, cfg)
		})
	}
}

// TestParseConfigDuration: time flags parse as durations (spot check
// the stdlib wiring survived the flag-set extraction).
func TestParseConfigDuration(t *testing.T) {
	cfg, err := parseConfig([]string{"-duration", "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Duration != 250*time.Millisecond {
		t.Fatalf("duration = %v", cfg.Duration)
	}
}
