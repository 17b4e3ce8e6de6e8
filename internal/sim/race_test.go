//go:build race

package sim_test

// raceEnabled reports a -race build, where sync.Pool drops puts at random
// and allocation counts are not meaningful.
const raceEnabled = true
