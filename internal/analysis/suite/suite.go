// Package suite registers every squid-lint analyzer in one place, so the
// cmd/squid-lint driver and any future callers agree on the set.
package suite

import (
	"squid/internal/analysis"
	"squid/internal/analysis/allocfree"
	"squid/internal/analysis/confine"
	"squid/internal/analysis/lockcheck"
	"squid/internal/analysis/nodeterminism"
	"squid/internal/analysis/ringcmp"
	"squid/internal/analysis/rpcerr"
	"squid/internal/analysis/scratchalias"
)

// Analyzers returns the full squid-lint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ringcmp.Analyzer,
		scratchalias.Analyzer,
		nodeterminism.Analyzer,
		rpcerr.Analyzer,
		confine.Analyzer,
		lockcheck.Analyzer,
		allocfree.Analyzer,
	}
}
