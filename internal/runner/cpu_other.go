//go:build !amd64

package runner

// asmLanes returns nil: assembly lane kernels exist for amd64 only.
func asmLanes() *laneTable { return nil }
