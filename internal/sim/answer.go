package sim

import (
	"fmt"

	"squid/internal/squid"
)

// CheckAnswer is the answer rule every oracle in the repository applies,
// naming elements by their payload (Data): no answer holds an element
// outside upper (a phantom) or the same element twice, and an answer that
// claims to be complete holds every element of lower. Against a
// brute-force ground truth lower and upper are one set; a storm's model
// passes the elements a query must find and those it may find. It returns
// nil or an error naming the first element that broke the rule.
func CheckAnswer(matches []squid.Element, complete bool, lower, upper []squid.Element) error {
	const allowed, seen = 1, 2
	state := make(map[string]uint8, len(upper))
	for _, e := range upper {
		state[e.Data] = allowed
	}
	for _, m := range matches {
		st := state[m.Data]
		if st&allowed == 0 {
			return fmt.Errorf("phantom element %q", m.Data)
		}
		if st&seen != 0 {
			return fmt.Errorf("duplicate element %q", m.Data)
		}
		state[m.Data] = st | seen
	}
	for _, e := range lower {
		if complete && state[e.Data]&seen == 0 {
			return fmt.Errorf("complete answer misses element %q", e.Data)
		}
	}
	return nil
}
