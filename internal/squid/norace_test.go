//go:build !race

package squid

const raceEnabled = false
