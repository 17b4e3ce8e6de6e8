//go:build !race

package chord_test

const raceEnabled = false
