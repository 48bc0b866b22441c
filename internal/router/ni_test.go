package router

import (
	"testing"
	"testing/quick"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

func pkt(id uint64, domain int) *packet.Packet {
	p := packet.New(id, geom.Coord{}, geom.Coord{X: 1, Y: 0}, domain, packet.Ctrl, 0)
	return p
}

func TestNewNIPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero domains": func() { NewNI(0, 4) },
		"zero cap":     func() { NewNI(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNIFIFOPerDomain(t *testing.T) {
	ni := NewNI(2, 4)
	ni.Offer(pkt(1, 0))
	ni.Offer(pkt(2, 1))
	ni.Offer(pkt(3, 0))
	if got := ni.Head(0); got.ID != 1 {
		t.Errorf("Head(0) = %d, want 1", got.ID)
	}
	if got := ni.Head(1); got.ID != 2 {
		t.Errorf("Head(1) = %d, want 2", got.ID)
	}
	if got := ni.Pop(0); got.ID != 1 {
		t.Errorf("Pop(0) = %d, want 1", got.ID)
	}
	if got := ni.Head(0); got.ID != 3 {
		t.Errorf("Head(0) after pop = %d, want 3", got.ID)
	}
}

func TestNIBackpressure(t *testing.T) {
	ni := NewNI(2, 2)
	if !ni.Offer(pkt(1, 0)) || !ni.Offer(pkt(2, 0)) {
		t.Fatal("offers under capacity refused")
	}
	if ni.Offer(pkt(3, 0)) {
		t.Error("offer beyond capacity accepted")
	}
	// The other domain's queue is independent — per-domain injection VCs
	// avoid head-of-line blocking between domains (§4.2).
	if !ni.Offer(pkt(4, 1)) {
		t.Error("full domain 0 blocked domain 1")
	}
}

func TestNIBacklog(t *testing.T) {
	ni := NewNI(3, 4)
	ni.Offer(pkt(1, 0))
	ni.Offer(pkt(2, 2))
	ni.Offer(pkt(3, 2))
	if got := ni.Backlog(); got != 3 {
		t.Errorf("Backlog = %d, want 3", got)
	}
	if got := ni.DomainBacklog(2); got != 2 {
		t.Errorf("DomainBacklog(2) = %d, want 2", got)
	}
	if ni.Domains() != 3 {
		t.Errorf("Domains = %d", ni.Domains())
	}
}

func TestNIHeadEmpty(t *testing.T) {
	ni := NewNI(1, 4)
	if ni.Head(0) != nil {
		t.Error("Head of empty queue must be nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty queue must panic")
		}
	}()
	ni.Pop(0)
}

func TestNIOfferBadDomainPanics(t *testing.T) {
	ni := NewNI(2, 4)
	defer func() {
		if recover() == nil {
			t.Error("Offer with out-of-range domain must panic")
		}
	}()
	ni.Offer(pkt(1, 5))
}

func TestSortOldestFirst(t *testing.T) {
	a := pkt(3, 0)
	a.InjectedAt = 10
	b := pkt(1, 0)
	b.InjectedAt = 5
	c := pkt(2, 0)
	c.InjectedAt = 10
	ps := []*packet.Packet{a, b, c}
	SortOldestFirst(ps)
	if ps[0] != b || ps[1] != c || ps[2] != a {
		t.Errorf("order = %d,%d,%d, want 1,2,3", ps[0].ID, ps[1].ID, ps[2].ID)
	}
}

// Hash64 must be deterministic and well-spread over small moduli (it
// picks among ≤4 deflection candidates).
func TestHash64(t *testing.T) {
	if Hash64(1, 2) != Hash64(1, 2) {
		t.Error("Hash64 not deterministic")
	}
	counts := make([]int, 4)
	for i := uint64(0); i < 4000; i++ {
		counts[Hash64(i, i*31)%4]++
	}
	for b, n := range counts {
		if n < 800 || n > 1200 {
			t.Errorf("bucket %d has %d of 4000 draws; distribution skewed", b, n)
		}
	}
}

func TestHash64AvalancheQuick(t *testing.T) {
	f := func(a, b uint64) bool {
		// Flipping one input bit must change the output.
		return Hash64(a, b) != Hash64(a^1, b) && Hash64(a, b) != Hash64(a, b^1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecoveryBudgetAndBackoff(t *testing.T) {
	r := &Recovery{MaxRetries: 2, Backoff: 8}
	p := packet.New(9, geom.Coord{}, geom.Coord{X: 1}, 0, packet.Ctrl, 0)
	if !r.TryRetry(p, 100) {
		t.Fatal("first retry refused")
	}
	if _, ok := r.Queue.PopDue(107); ok {
		t.Error("retry released before backoff expired")
	}
	if got, _ := r.Queue.PopDue(108); got != p {
		t.Fatalf("retry 1 due at 108 (100+8), got %v", got)
	}
	if !r.TryRetry(p, 200) {
		t.Fatal("second retry refused")
	}
	if _, ok := r.Queue.PopDue(215); ok {
		t.Error("second backoff must double to 16")
	}
	if got, _ := r.Queue.PopDue(216); got != p {
		t.Fatalf("retry 2 due at 216, got %v", got)
	}
	if r.TryRetry(p, 300) {
		t.Error("budget of 2 exceeded")
	}
	if p.Retries != 2 {
		t.Errorf("Retries = %d, want 2", p.Retries)
	}
	// nil Recovery (faults off) always refuses.
	var nilr *Recovery
	if nilr.TryRetry(p, 0) {
		t.Error("nil recovery must refuse")
	}
}
