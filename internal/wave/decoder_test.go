package wave

import (
	"testing"
	"testing/quick"

	"surfbless/internal/geom"
)

func TestRoundRobinAssignment(t *testing.T) {
	d := RoundRobin(42, 2)
	for w := 0; w < 42; w++ {
		if got := d.Domain(w); got != w%2 {
			t.Fatalf("Domain(%d) = %d, want %d", w, got, w%2)
		}
	}
	if d.Domains() != 2 || d.Smax() != 42 {
		t.Error("Domains/Smax accessors wrong")
	}
}

// §5.1: "the domains are equally and evenly assigned to these waves".
// With round robin, per-domain wave counts differ by at most one.
func TestRoundRobinEven(t *testing.T) {
	for domains := 1; domains <= 9; domains++ {
		d := RoundRobin(42, domains)
		min, max := 42, 0
		for dom := 0; dom < domains; dom++ {
			n := len(d.Owned(dom))
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Errorf("domains=%d: wave counts range [%d,%d], want spread ≤1", domains, min, max)
		}
	}
}

func TestRoundRobinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RoundRobin(0, 1) must panic")
		}
	}()
	RoundRobin(0, 1)
}

// The §5.2 assignment: two data virtual networks on three 5-wave sets
// each, control on the rest of the 42 waves.
func paperSets() [][]int {
	span := func(a, b int) []int {
		var s []int
		for w := a; w <= b; w++ {
			s = append(s, w)
		}
		return s
	}
	concat := func(xs ...[]int) []int {
		var s []int
		for _, x := range xs {
			s = append(s, x...)
		}
		return s
	}
	data0 := concat(span(0, 4), span(15, 19), span(30, 34))
	data1 := concat(span(7, 11), span(22, 26), span(37, 41))
	owned := make(map[int]bool)
	for _, w := range append(append([]int{}, data0...), data1...) {
		owned[w] = true
	}
	var ctrl []int
	for w := 0; w < 42; w++ {
		if !owned[w] {
			ctrl = append(ctrl, w)
		}
	}
	return [][]int{data0, data1, ctrl}
}

func TestFromSetsPaperAssignment(t *testing.T) {
	d, err := FromSets(42, paperSets())
	if err != nil {
		t.Fatalf("paper wave sets rejected: %v", err)
	}
	if d.Domains() != 3 {
		t.Fatalf("Domains = %d, want 3", d.Domains())
	}
	// Spot-check ownership.
	for _, w := range []int{0, 4, 15, 34} {
		if d.Domain(w) != 0 {
			t.Errorf("wave %d should belong to data VN 0", w)
		}
	}
	for _, w := range []int{7, 26, 41} {
		if d.Domain(w) != 1 {
			t.Errorf("wave %d should belong to data VN 1", w)
		}
	}
	for _, w := range []int{5, 6, 12, 20, 35, 36} {
		if d.Domain(w) != 2 {
			t.Errorf("wave %d should belong to the control VN", w)
		}
	}
	// 5-flit heads may start exactly at the set beginnings.
	for _, w := range []int{0, 15, 30, 7, 22, 37} {
		if !d.CanStart(w, 5) {
			t.Errorf("wave %d must admit a 5-flit head (set start)", w)
		}
	}
	// …and nowhere inside the sets.
	for _, w := range []int{1, 4, 16, 33, 8, 26} {
		if d.CanStart(w, 5) {
			t.Errorf("wave %d must not admit a 5-flit head (mid-set)", w)
		}
	}
	// Control packets (1 flit) start on any control wave.
	for _, w := range []int{5, 6, 12, 13, 14, 20, 21} {
		if !d.CanStart(w, 1) {
			t.Errorf("control wave %d must admit a 1-flit head", w)
		}
	}
}

func TestFromSetsErrors(t *testing.T) {
	if _, err := FromSets(0, [][]int{{0}}); err == nil {
		t.Error("smax 0 accepted")
	}
	if _, err := FromSets(10, nil); err == nil {
		t.Error("no sets accepted")
	}
	if _, err := FromSets(10, [][]int{{0}, {}}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := FromSets(10, [][]int{{0}, {10}}); err == nil {
		t.Error("out-of-range wave accepted")
	}
	if _, err := FromSets(10, [][]int{{0, 1}, {1}}); err == nil {
		t.Error("duplicate wave accepted")
	}
}

func TestUnownedWaves(t *testing.T) {
	d, err := FromSets(10, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Domain(5) != -1 {
		t.Error("unowned wave must map to -1")
	}
	if d.CanStart(5, 1) {
		t.Error("no head may start on an unowned wave")
	}
}

func TestCanStartAlignment(t *testing.T) {
	// One run of 10 same-domain waves: 2-flit heads start at even
	// offsets within the run and must leave room for the worm.
	d, err := FromSets(12, [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 10; w++ {
		want := w%2 == 0 && w+2 <= 10
		if got := d.CanStart(w, 2); got != want {
			t.Errorf("CanStart(%d, 2) = %v, want %v", w, got, want)
		}
	}
	// 3-flit heads: starts 0,3,6 fit; 9 does not (run ends at 10).
	for w := 0; w < 10; w++ {
		want := w%3 == 0 && w+3 <= 10
		if got := d.CanStart(w, 3); got != want {
			t.Errorf("CanStart(%d, 3) = %v, want %v", w, got, want)
		}
	}
}

func TestCanStartPanics(t *testing.T) {
	d := RoundRobin(10, 2)
	for _, f := range []func(){
		func() { d.CanStart(-1, 1) },
		func() { d.CanStart(10, 1) },
		func() { d.CanStart(0, 0) },
		func() { d.Domain(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStartableSlots(t *testing.T) {
	d, err := FromSets(42, paperSets())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.StartableSlots(0, 5); got != 3 {
		t.Errorf("data VN 0 has %d startable 5-flit slots, want 3", got)
	}
	if got := d.StartableSlots(1, 5); got != 3 {
		t.Errorf("data VN 1 has %d startable 5-flit slots, want 3", got)
	}
	if got := d.StartableSlots(2, 1); got != 12 {
		t.Errorf("control VN has %d startable slots, want 12 (42−30 owned waves)", got)
	}
}

// CanStart(w, 1) ⇔ wave owned, for any decoder (property).
func TestCanStartSizeOneQuick(t *testing.T) {
	d := RoundRobin(42, 5)
	f := func(w uint8) bool {
		wi := int(w) % 42
		return d.CanStart(wi, 1) == (d.Domain(wi) >= 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The §5.1.3 ejection-alignment analysis: with round-robin decoding and
// P = 3, a packet arriving on the N or W sub-wave can eject (same
// domain as the SE scheduler) at every router and cycle iff the domain
// count divides 2·P = 6.  This is exactly why D_2, D_3 and D_6 overlap
// with the best curves in Fig. 7(a) while D_4, D_5, D_7, D_8, D_9 pay a
// deflection penalty.
func TestEjectionAlignmentByDomainCount(t *testing.T) {
	s := New(geom.NewMesh(8, 8), 3)
	for domains := 1; domains <= 9; domains++ {
		dec := RoundRobin(s.Smax(), domains)
		aligned := true
		for y := 0; y < 8 && aligned; y++ {
			for x := 0; x < 8 && aligned; x++ {
				c := geom.Coord{X: x, Y: y}
				for tm := int64(0); tm < int64(s.Smax()); tm++ {
					se := dec.Domain(s.Index(SE, c, tm))
					if dec.Domain(s.Index(NSub, c, tm)) != se ||
						dec.Domain(s.Index(WSub, c, tm)) != se {
						aligned = false
						break
					}
				}
			}
		}
		wantAligned := 6%domains == 0 // D ∈ {1, 2, 3, 6}
		if aligned != wantAligned {
			t.Errorf("domains=%d: ejection-aligned=%v, want %v", domains, aligned, wantAligned)
		}
	}
}

// TestNewDecoderPicksAssignment: nil wave sets select the round-robin
// assignment, explicit sets select FromSets and carry its errors.
func TestNewDecoderPicksAssignment(t *testing.T) {
	rr, err := NewDecoder(12, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := NewDecoder(12, 2, [][]int{{0, 1}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 12; w++ {
		if rr.Domain(w) != w%3 {
			t.Errorf("round robin: wave %d → domain %d, want %d", w, rr.Domain(w), w%3)
		}
	}
	if sets.Domains() != 2 || sets.Domain(1) != 0 || sets.Domain(5) != 1 || sets.Domain(2) != -1 {
		t.Errorf("wave sets decoded to %v %v %v", sets.Domain(1), sets.Domain(5), sets.Domain(2))
	}
	if _, err := NewDecoder(12, 2, [][]int{{0}, {0}}); err == nil {
		t.Error("overlapping wave sets accepted")
	}
}
