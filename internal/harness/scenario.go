package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Options parameterizes a scenario run. The zero value is not usable:
// fill every field (cmd/scenarios does from its flags).
type Options struct {
	// Workers is the number of worker processes at run start.
	Workers int
	// Width is the width of the coordination server's counting
	// network (barrier tickets and value leases both run on it).
	Width int
	// PhaseDuration is the default draw-loop length per phase.
	PhaseDuration time.Duration
	// Block is the default values-per-draw lease size.
	Block int
	// Seed drives every randomized choice a scenario makes (straggler
	// and victim selection, skew assignment). A run's seed is recorded
	// in its worker files: replaying with the same seed, worker count
	// and width reproduces the same plan.
	Seed int64
}

// Step is one phase of a scenario plan, plus the membership events the
// runner performs before it starts.
type Step struct {
	// Name labels the phase.
	Name string
	// Join spawns that many new workers before the phase.
	Join int
	// Leave gracefully retires that many workers (highest ids first)
	// before the phase.
	Leave int
	// Duration overrides Options.PhaseDuration when positive.
	Duration time.Duration
	// Block overrides Options.Block when positive.
	Block int
	// Blocks overrides the lease size for specific workers (skewed
	// per-node load).
	Blocks map[string]int
	// Throttle injects a per-draw delay for specific workers; the ""
	// key throttles every worker (burst warmup/cooldown phases).
	Throttle map[string]time.Duration
	// Kill injects a crash: the named workers die (freeze and are
	// SIGKILLed) after the given number of draws in this phase, and
	// the runner stands in for them at the phase's end barrier.
	Kill map[string]int
	// TargetOps, when positive, bounds the phase by draw count
	// instead of duration (deterministic smoke phases).
	TargetOps int
}

// Scenario is a named plan generator. Steps sees the run options and a
// seeded RNG, so plans can randomize (which worker straggles, how skew
// is dealt) while staying reproducible from the recorded seed.
type Scenario struct {
	Name  string
	Desc  string
	Steps func(opt Options, rng *rand.Rand) []Step
}

// WorkerID formats the canonical worker id for index i: initial
// workers are w0..w(n-1); joins continue the sequence.
func WorkerID(i int) string { return fmt.Sprintf("w%d", i) }

// Scenarios returns the registry, sorted by name.
func Scenarios() []Scenario {
	s := []Scenario{
		{
			Name: "uniform",
			Desc: "steady identical load on every worker across three phases",
			Steps: func(opt Options, rng *rand.Rand) []Step {
				return []Step{{Name: "warm"}, {Name: "steady"}, {Name: "drain"}}
			},
		},
		{
			Name: "burst",
			Desc: "throttled warmup, all workers released at full speed together, throttled cooldown",
			Steps: func(opt Options, rng *rand.Rand) []Step {
				return []Step{
					{Name: "warm", Throttle: map[string]time.Duration{"": 200 * time.Microsecond}},
					{Name: "burst"},
					{Name: "cool", Throttle: map[string]time.Duration{"": 500 * time.Microsecond}},
				}
			},
		},
		{
			Name: "skew",
			Desc: "per-worker lease sizes drawn from a skewed assignment, reshuffled each phase",
			Steps: func(opt Options, rng *rand.Rand) []Step {
				sizes := make([]int, opt.Workers)
				for i := range sizes {
					sizes[i] = 1 << (i % 5) // 1,2,4,8,16,...
				}
				steps := make([]Step, 3)
				for p := range steps {
					perm := rng.Perm(opt.Workers)
					blocks := map[string]int{}
					for i, pi := range perm {
						blocks[WorkerID(i)] = sizes[pi]
					}
					steps[p] = Step{Name: fmt.Sprintf("skew%d", p), Blocks: blocks}
				}
				return steps
			},
		},
		{
			Name: "joinleave",
			Desc: "a worker joins mid-run, then the newest worker leaves again",
			Steps: func(opt Options, rng *rand.Rand) []Step {
				return []Step{
					{Name: "steady"},
					{Name: "joined", Join: 1},
					{Name: "left", Leave: 1},
				}
			},
		},
		{
			Name: "straggler",
			Desc: "one randomly chosen worker runs an order of magnitude slower mid-run",
			Steps: func(opt Options, rng *rand.Rand) []Step {
				victim := WorkerID(rng.Intn(opt.Workers))
				return []Step{
					{Name: "steady"},
					{Name: "straggle", Throttle: map[string]time.Duration{victim: 2 * time.Millisecond}},
					{Name: "recover"},
				}
			},
		},
		{
			Name: "kill",
			Desc: "one worker is killed mid-phase (its unreported leases are lost), a replacement rejoins",
			Steps: func(opt Options, rng *rand.Rand) []Step {
				victim := WorkerID(rng.Intn(opt.Workers))
				return []Step{
					{Name: "steady"},
					{Name: "crash", Kill: map[string]int{victim: 5}},
					{Name: "rejoin", Join: 1},
				}
			},
		},
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}

// LookupScenario finds a scenario by name.
func LookupScenario(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("harness: unknown scenario %q", name)
}
