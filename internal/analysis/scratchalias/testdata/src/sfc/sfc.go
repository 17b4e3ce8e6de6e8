// Package sfc is the fixture twin of squid/internal/sfc's ...Into APIs:
// their signatures, without the curve behind them, so the scratchalias
// fixture type-checks without the real package. The analyzer matches the
// package by the last element of its path.
package sfc

// Interval is a closed range of curve indices.
type Interval struct{ Lo, Hi uint64 }

// Region is a query region.
type Region [][]Interval

// Curve is a space-filling curve.
type Curve interface {
	Bits() int
}

// Cluster is a refinement-tree node.
type Cluster struct {
	Prefix uint64
	Level  int
}

// Refined is a cluster with its completeness flag.
type Refined struct {
	Cluster
	Complete bool
}

// Scratch is refinement scratch space; a result of an ...Into call may
// alias it.
type Scratch struct{ buf []Interval }

// ClustersInto appends r's curve intervals to dst.
func ClustersInto(dst []Interval, c Curve, r Region, sc *Scratch) []Interval { return dst }

// RefineStepInto appends cl's children that meet r to dst.
func RefineStepInto(dst []Refined, c Curve, cl Cluster, r Region, sc *Scratch) []Refined { return dst }
