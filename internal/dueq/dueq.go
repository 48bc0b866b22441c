// Package dueq is the simulator's timer heap: a min-heap of values
// ordered by due cycle, ties broken by insertion order, so draining is
// deterministic.  The fault layer's retransmission backoff, RUNAHEAD's
// acknowledgement timers and the coherence engine's bank and DRAM
// pipelines all schedule through it.
//
// Values are stored unboxed — container/heap would box every push
// into an interface — so once the backing array has grown to its
// working size, Push and PopDue do not allocate (DESIGN.md §12).
package dueq

// Queue is a min-heap of values keyed by (due cycle, insertion
// sequence).  The zero value is an empty queue, ready to use.
type Queue[T any] struct {
	items []item[T]
	seq   uint64
}

type item[T any] struct {
	due int64
	seq uint64 // insertion order breaks due-cycle ties
	v   T
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

// Push schedules v for cycle due.
func (q *Queue[T]) Push(v T, due int64) {
	q.items = append(q.items, item[T]{due: due, seq: q.seq, v: v})
	q.seq++
	for i := len(q.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// PopDue removes and returns the earliest value due by cycle now;
// ok is false when none is due.
func (q *Queue[T]) PopDue(now int64) (v T, ok bool) {
	if len(q.items) == 0 || q.items[0].due > now {
		return v, false
	}
	h := q.items
	n := len(h) - 1
	v = h[0].v
	h[0] = h[n]
	h[n] = item[T]{} // unpin the value from the vacated slot
	q.items = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return v, true
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) }

// Each calls visit on every queued value, in no particular order.
func (q *Queue[T]) Each(visit func(T)) {
	for i := range q.items {
		visit(q.items[i].v)
	}
}
