package sim

// heapQueue is the legacy event queue: a binary min-heap that allocates
// a tracking item per insert, exactly like the original container/heap
// engine allocated a *Timer per event. It is kept as the reference
// implementation for differential tests (SetDefaultEngine makes it the
// default engine) and as the honest baseline for BenchmarkEngine —
// collapsing its allocation behaviour would overstate the wheel's win.
type heapQueue struct {
	items []*heapItem
}

type heapItem struct {
	when Time
	seq  uint64
	idx  int32
}

func (q *heapQueue) lessItem(a, b *heapItem) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *heapQueue) insert(s *Simulator, idx int32) {
	e := &s.ents[idx]
	e.loc = locHeap
	q.items = append(q.items, &heapItem{when: e.when, seq: e.seq, idx: idx})
	q.up(s, len(q.items)-1)
}

func (q *heapQueue) remove(s *Simulator, idx int32) {
	e := &s.ents[idx]
	pos := int(e.next)
	e.loc = locNone
	n := len(q.items) - 1
	if pos != n {
		q.set(s, pos, q.items[n])
	}
	q.items[n] = nil
	q.items = q.items[:n]
	if pos < n {
		if !q.down(s, pos) {
			q.up(s, pos)
		}
	}
}

func (q *heapQueue) peek(*Simulator) int32 {
	if len(q.items) == 0 {
		return -1
	}
	return q.items[0].idx
}

func (q *heapQueue) pop(s *Simulator) {
	q.remove(s, q.items[0].idx)
}

func (q *heapQueue) depth() int {
	if len(q.items) > 0 {
		return 1
	}
	return 0
}

// set places it at pos, recording the position in the entry so remove
// stays O(log n).
func (q *heapQueue) set(s *Simulator, pos int, it *heapItem) {
	q.items[pos] = it
	s.ents[it.idx].next = int32(pos)
}

func (q *heapQueue) up(s *Simulator, pos int) {
	it := q.items[pos]
	for pos > 0 {
		parent := (pos - 1) / 2
		if !q.lessItem(it, q.items[parent]) {
			break
		}
		q.set(s, pos, q.items[parent])
		pos = parent
	}
	q.set(s, pos, it)
}

// down reports whether the item moved.
func (q *heapQueue) down(s *Simulator, pos int) bool {
	it := q.items[pos]
	start := pos
	n := len(q.items)
	for {
		child := 2*pos + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.lessItem(q.items[r], q.items[child]) {
			child = r
		}
		if !q.lessItem(q.items[child], it) {
			break
		}
		q.set(s, pos, q.items[child])
		pos = child
	}
	q.set(s, pos, it)
	return pos > start
}
