package network

// heapElem is the ordering contract of minHeap elements. Generics keep
// the dispatch static (the comparator is resolved at instantiation, no
// interface boxing or indirect calls), which is why this exists instead
// of container/heap: pushing through the standard interface converts
// every element to an interface value, which allocates on a per-event,
// per-arrival hot path.
type heapElem[T any] interface {
	lessThan(T) bool
}

// minHeap is the engine's one binary min-heap: the overflow of a timing
// wheel whose callers can schedule past its horizon (wheel.far).
type minHeap[T heapElem[T]] struct {
	items []T
}

func (h *minHeap[T]) push(v T) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].lessThan(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *minHeap[T]) pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		child := l
		if r < last && h.items[r].lessThan(h.items[l]) {
			child = r
		}
		if !h.items[child].lessThan(h.items[i]) {
			break
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
	return top
}
