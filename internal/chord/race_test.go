//go:build race

package chord_test

// raceEnabled reports a -race build, where the detector's bookkeeping makes
// allocation counts meaningless.
const raceEnabled = true
