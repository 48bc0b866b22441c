package dueq

import (
	"math/rand"
	"sort"
	"testing"
)

func TestQueueOrdering(t *testing.T) {
	var q Queue[uint64]
	q.Push(1, 30)
	q.Push(2, 10)
	q.Push(3, 10) // same due cycle: insertion order wins
	q.Push(4, 20)
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.PopDue(5); ok {
		t.Fatalf("nothing due at 5, got %v", v)
	}
	var order []uint64
	for now := int64(10); now <= 30; now += 10 {
		for v, ok := q.PopDue(now); ok; v, ok = q.PopDue(now) {
			order = append(order, v)
		}
	}
	want := []uint64{2, 3, 4, 1}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d left", q.Len())
	}
}

// TestQueueMatchesSortedReference interleaves random pushes and pops
// and checks every pop against a reference that keeps entries sorted
// by (due, insertion order): the heap must yield the same sequence.
func TestQueueMatchesSortedReference(t *testing.T) {
	type ref struct {
		due int64
		seq int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var want []ref
		seq := 0
		now := int64(0)
		for step := 0; step < 2000; step++ {
			if rng.Intn(3) > 0 {
				due := now + int64(rng.Intn(8)) // small range: many ties
				q.Push(seq, due)
				want = append(want, ref{due, seq})
				seq++
			} else {
				now++
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].due < want[j].due })
			for len(want) > 0 && want[0].due <= now {
				got, ok := q.PopDue(now)
				if !ok || got != want[0].seq {
					t.Fatalf("seed %d step %d: PopDue(%d) = %d, %v; want %d", seed, step, now, got, ok, want[0].seq)
				}
				want = want[1:]
			}
			if v, ok := q.PopDue(now); ok {
				t.Fatalf("seed %d step %d: PopDue(%d) = %d, want nothing due", seed, step, now, v)
			}
			if q.Len() != len(want) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(want))
			}
		}
	}
}

func TestQueueEachVisitsAll(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(i, int64(10-i))
	}
	sum := 0
	q.Each(func(v int) { sum += v })
	if sum != 45 {
		t.Errorf("Each visited values summing to %d, want 45", sum)
	}
}

// Steady-state Push and PopDue reuse the backing array: no boxing and
// no growth once the queue has reached its working size.
func TestQueueNoAlloc(t *testing.T) {
	type entry struct {
		p  *int
		id uint64
	}
	var q Queue[entry]
	x := 0
	for i := 0; i < 64; i++ {
		q.Push(entry{&x, uint64(i)}, int64(i))
	}
	now := int64(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.PopDue(now)
			q.Push(entry{&x, uint64(i)}, now+64)
			now++
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per 64 push/pop pairs, want 0", allocs)
	}
}
