//go:build !race

package dessim_test

const raceEnabled = false
