package squid

// Every test of this package runs with the bookkeeping pools poisoned: a
// release marks or zeroes its object instead of pooling it, so a handler
// that reaches a subtree its holder no longer holds panics rather than
// reading another query's state. The other packages' tests run the pools
// as they ship.
func init() { poisonReleased = true }
