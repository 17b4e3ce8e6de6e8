//go:build !race

package sim_test

const raceEnabled = false
