// Package analyzers registers the repository's custom vet passes.
// cmd/netvet runs All either standalone or as a `go vet -vettool`;
// docs/TESTING.md documents what each pass enforces.
package analyzers

import (
	"countnet/internal/analysis"
	"countnet/internal/analyzers/atomicmix"
	"countnet/internal/analyzers/ctorerr"
	"countnet/internal/analyzers/fieldalign"
	"countnet/internal/analyzers/hotpath"
	"countnet/internal/analyzers/padalign"
	"countnet/internal/analyzers/schedhooks"
)

// All lists every analyzer netvet applies, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctorerr.Analyzer,
		fieldalign.Analyzer,
		hotpath.Analyzer,
		padalign.Analyzer,
		schedhooks.Analyzer,
	}
}
