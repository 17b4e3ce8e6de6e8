// Fixture: aliasing contract of the sfc ...Into(dst, scratch) APIs.
package scratchalias

import "sfc"

type holder struct {
	spans []sfc.Interval
	m     map[string][]sfc.Interval
	ch    chan []sfc.Interval
}

func fieldStore(h *holder, c sfc.Curve, r sfc.Region, sc *sfc.Scratch) {
	h.spans = sfc.ClustersInto(nil, c, r, sc) // want `stored in field`
}

func recycle(h *holder, c sfc.Curve, r sfc.Region, sc *sfc.Scratch) {
	h.spans = sfc.ClustersInto(h.spans[:0], c, r, sc)
}

func mapStore(h *holder, c sfc.Curve, r sfc.Region, sc *sfc.Scratch) {
	h.m["q"] = sfc.ClustersInto(nil, c, r, sc) // want `stored in a map`
}

func chanSend(h *holder, c sfc.Curve, r sfc.Region, sc *sfc.Scratch) {
	h.ch <- sfc.ClustersInto(nil, c, r, sc) // want `sent on a channel`
}

func clobber(c sfc.Curve, r sfc.Region, sc *sfc.Scratch, buf []sfc.Interval) int {
	a := sfc.ClustersInto(buf[:0], c, r, sc)
	b := sfc.ClustersInto(buf[:0], c, r, sc) // want `still live`
	return len(a) + len(b)
}

func sequential(c sfc.Curve, r sfc.Region, sc *sfc.Scratch, buf []sfc.Interval) int {
	a := sfc.ClustersInto(buf[:0], c, r, sc)
	n := len(a)
	b := sfc.ClustersInto(buf[:0], c, r, sc) // a is dead here: no diagnostic
	return n + len(b)
}

func loopRecycle(c sfc.Curve, r sfc.Region, sc *sfc.Scratch, frontier []sfc.Refined, cl sfc.Cluster) []sfc.Refined {
	for i := 0; i < 3; i++ {
		frontier = sfc.RefineStepInto(frontier[:0], c, cl, r, sc)
	}
	return frontier
}

func freshNil(c sfc.Curve, r sfc.Region, sc *sfc.Scratch) int {
	a := sfc.ClustersInto(nil, c, r, sc)
	b := sfc.ClustersInto(nil, c, r, sc)
	return len(a) + len(b)
}

func allowed(h *holder, c sfc.Curve, r sfc.Region, sc *sfc.Scratch) {
	//lint:allow-scratchalias caller copies the snapshot before the next refine
	h.spans = sfc.ClustersInto(nil, c, r, sc)
}
