// Fixture: the figure pipeline (experiments and the gnutella and invindex
// baselines) runs on the event core, so each figure is a function of its
// seeds.
package gnutella

import (
	"math/rand"
	"time"
)

func graph(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed)) // constructing a seeded source: allowed
	return rng.Intn(n)
}

func elapsed(start time.Time) time.Duration {
	return time.Now().Sub(start) // want `wall-clock`
}
