// Fixture: relational operators on chord.ID are modular-arithmetic bugs.
package ringcmp

import "chord"

func cmp(a, b chord.ID) bool {
	return a < b // want `ring identifier`
}

func sorted(ids []chord.ID) bool {
	return ids[0] >= ids[1] // want `ring identifier`
}

func mixed(a chord.ID, b uint64) bool {
	return a <= chord.ID(b) // want `ring identifier`
}

func allowedSort(a, b chord.ID) bool {
	//lint:allow-ringcmp deterministic snapshot ordering; wrap handled by caller
	return a < b
}

func viaHelpers(sp chord.Space, x, a, b chord.ID) bool {
	return sp.Between(x, a, b) && sp.Dist(a, b) < 4 && a != b
}

func plainInts(a, b uint64) bool { return a < b }
