package sim

// eventHeap is the engine's pending-event queue: a hand-rolled binary
// min-heap ordered by (at, seq), O(log n) per operation. Each pending
// event records its own index, so Stop and Reset reach it directly; the
// index is -1 once the event leaves the heap.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// fix restores heap order after the event at index i changed its key.
func (h eventHeap) fix(i int) {
	h.down(i)
	h.up(i)
}

func (h *eventHeap) push(ev *event) {
	ev.idx = int32(len(*h))
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes the pending event ev out of the heap.
func (h *eventHeap) remove(ev *event) {
	q := *h
	i, last := int(ev.idx), len(q)-1
	if i != last {
		q.swap(i, last)
	}
	q[last] = nil
	*h = q[:last]
	if i != last {
		h.fix(i)
	}
	ev.idx = -1
}

// popBefore removes and returns the earliest pending event by (at, seq),
// or nil if the heap is empty or the earliest event is at or past limit.
func (h *eventHeap) popBefore(limit Time) *event {
	q := *h
	if len(q) == 0 || q[0].at >= limit {
		return nil
	}
	ev := q[0]
	h.remove(ev)
	return ev
}
