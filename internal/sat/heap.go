package sat

// varHeap is a max-heap of variables ordered by activity, with an index map
// for decrease-key, as in MiniSat's order heap. Equal activities order by
// rank, lowest first, so the order is total: which variable is popped
// never depends on the sequence of inserts and removals that shaped the
// heap.
type varHeap struct {
	heap     []int
	indices  []int // var -> heap position+1, 0 if absent
	activity *[]float64
	rank     *[]int32
}

func newVarHeap(act *[]float64, rank *[]int32) *varHeap {
	return &varHeap{activity: act, rank: rank, indices: make([]int, 1)}
}

func (h *varHeap) less(a, b int) bool {
	if x, y := (*h.activity)[a], (*h.activity)[b]; x != y {
		return x > y
	}
	return (*h.rank)[a] < (*h.rank)[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

// clear empties the heap.
func (h *varHeap) clear() {
	for _, v := range h.heap {
		h.indices[v] = 0
	}
	h.heap = h.heap[:0]
}

func (h *varHeap) inHeap(v int) bool {
	return v < len(h.indices) && h.indices[v] != 0
}

func (h *varHeap) insert(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap)
	h.percolateUp(len(h.heap) - 1)
}

// decrease re-heapifies after v's activity increased (moves it up).
func (h *varHeap) decrease(v int) {
	if !h.inHeap(v) {
		return
	}
	h.percolateUp(h.indices[v] - 1)
}

func (h *varHeap) removeMin() int {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = 0
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 1
		h.percolateDown(0)
	}
	return v
}

func (h *varHeap) percolateUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = i + 1
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = i + 1
}

func (h *varHeap) percolateDown(i int) {
	v := h.heap[i]
	for {
		left := 2*i + 1
		if left >= len(h.heap) {
			break
		}
		child := left
		if right := left + 1; right < len(h.heap) && h.less(h.heap[right], h.heap[left]) {
			child = right
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i]] = i + 1
		i = child
	}
	h.heap[i] = v
	h.indices[v] = i + 1
}
