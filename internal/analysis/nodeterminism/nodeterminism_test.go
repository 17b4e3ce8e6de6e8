package nodeterminism_test

import (
	"testing"

	"squid/internal/analysis/analysistest"
	"squid/internal/analysis/nodeterminism"
)

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", nodeterminism.Analyzer, "sim", "dessim", "telemetry", "transport", "chord", "other", "wire", "workload", "gnutella")
}
