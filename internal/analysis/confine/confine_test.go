package confine_test

import (
	"testing"

	"squid/internal/analysis/analysistest"
	"squid/internal/analysis/confine"
)

func TestConfine(t *testing.T) {
	analysistest.Run(t, "testdata", confine.Analyzer, "engine", "methodvalue", "timerhandler", "foundhandler")
}
