package wave

import (
	"reflect"
	"testing"

	"surfbless/internal/geom"
)

// span lists the waves a … b inclusive.
func span(a, b int) []int {
	var s []int
	for w := a; w <= b; w++ {
		s = append(s, w)
	}
	return s
}

func concat(xs ...[]int) []int {
	var s []int
	for _, x := range xs {
		s = append(s, x...)
	}
	return s
}

// The §5.2 builder against the literal window lists: the tuned 2P
// stride for Smax = 42, P = 3, and the paper's published sets.
func TestSetsLiteral(t *testing.T) {
	tuned, err := StrideSets(42, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{5, 11, 17, 23, 29, 35, 36, 37, 38, 39, 40, 41},
		concat(span(0, 4), span(12, 16), span(24, 28)),
		concat(span(6, 10), span(18, 22), span(30, 34)),
	}
	if !reflect.DeepEqual(tuned, want) {
		t.Errorf("StrideSets(42, 3, 2, 5) = %v, want %v", tuned, want)
	}
	want = [][]int{
		{5, 6, 12, 13, 14, 20, 21, 27, 28, 29, 35, 36},
		concat(span(0, 4), span(15, 19), span(30, 34)),
		concat(span(7, 11), span(22, 26), span(37, 41)),
	}
	if got := PaperSets(5); !reflect.DeepEqual(got, want) {
		t.Errorf("PaperSets(5) = %v, want %v", got, want)
	}
}

func TestStrideSetsPaperSmax(t *testing.T) {
	sets, err := StrideSets(42, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("%d sets, want 3", len(sets))
	}
	ctrl, d0, d1 := sets[0], sets[1], sets[2]
	if len(d0) != 15 || len(d1) != 15 {
		t.Errorf("data sets sized %d/%d, want 15 each (three 5-wave windows)", len(d0), len(d1))
	}
	if len(ctrl) != 12 {
		t.Errorf("control set sized %d, want 12", len(ctrl))
	}
	// Disjoint and in range.
	seen := map[int]int{}
	for dom, set := range sets {
		for _, w := range set {
			if w < 0 || w >= 42 {
				t.Fatalf("wave %d out of range", w)
			}
			if prev, dup := seen[w]; dup {
				t.Fatalf("wave %d in both set %d and %d", w, prev, dom)
			}
			seen[w] = dom
		}
	}
	if len(seen) != 42 {
		t.Errorf("%d waves assigned, want all 42", len(seen))
	}
}

// Every window must fit below Smax and inside its stride: Smax ≥
// 3·dataDomains·2P and 2P > size.
func TestStrideSetsTooSmall(t *testing.T) {
	for _, tc := range []struct {
		smax, p, data, size int
		ok                  bool
	}{
		{24, 3, 2, 5, false}, // windows would overlap the end
		{30, 3, 2, 5, false},
		{36, 3, 2, 5, true},
		{42, 3, 3, 5, false},
		{42, 2, 2, 5, false}, // stride 4 cannot hold 5 waves
		{42, 3, 2, 6, false},
	} {
		_, err := StrideSets(tc.smax, tc.p, tc.data, tc.size)
		if (err == nil) != tc.ok {
			t.Errorf("StrideSets(%d, %d, %d, %d) error %v, want ok=%v", tc.smax, tc.p, tc.data, tc.size, err, tc.ok)
		}
	}
}

// NewPlan: nil wave sets select the round-robin assignment, explicit
// sets select FromSets and carry its errors.
func TestNewPlanPicksAssignment(t *testing.T) {
	mesh := geom.NewMesh(4, 4) // P = 2 ⇒ Smax = 12
	rr, err := NewPlan(mesh, 2, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := NewPlan(mesh, 2, 2, [][]int{{0, 1}, {5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 12; w++ {
		if rr.Dec.Domain(w) != w%3 {
			t.Errorf("round robin: wave %d → domain %d, want %d", w, rr.Dec.Domain(w), w%3)
		}
	}
	if d := sets.Dec; d.Domains() != 2 || d.Domain(1) != 0 || d.Domain(5) != 1 || d.Domain(2) != -1 {
		t.Errorf("wave sets decoded to %v %v %v", d.Domain(1), d.Domain(5), d.Domain(2))
	}
	if rr.Sched.Smax() != 12 || rr.Sched.HopDelay() != 2 {
		t.Errorf("schedule Smax %d P %d, want 12 and 2", rr.Sched.Smax(), rr.Sched.HopDelay())
	}
	if _, err := NewPlan(mesh, 2, 2, [][]int{{0}, {0}}, nil); err == nil {
		t.Error("overlapping wave sets accepted")
	}
}

// Slot widths default to 1 and must each admit a window of their
// domain.
func TestNewPlanSlotWidths(t *testing.T) {
	mesh := geom.NewMesh(8, 8)
	p, err := NewPlan(mesh, 3, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Slot, []int{1, 1}) {
		t.Errorf("default slot widths %v, want [1 1]", p.Slot)
	}
	if _, err := NewPlan(mesh, 3, 3, PaperSets(5), []int{1, 5, 5}); err != nil {
		t.Errorf("§5.2 plan refused: %v", err)
	}
	for _, slots := range [][]int{
		{1, 1, 1}, // count mismatch
		{0, 1},    // below 1
		{5, 5},    // round-robin runs are 1 wave long: no 5-wide window
	} {
		if _, err := NewPlan(mesh, 3, 2, nil, slots); err == nil {
			t.Errorf("slot widths %v accepted", slots)
		}
	}
}

// Opens is the decoder's ownership and window test on the output's
// wave, for every router, port, phase and domain.
func TestOpensMatchesDecoder(t *testing.T) {
	mesh := geom.NewMesh(8, 8)
	rr, err := NewPlan(mesh, 3, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := NewPlan(mesh, 3, 3, PaperSets(5), []int{1, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{rr, sets} {
		for id := 0; id < mesh.Nodes(); id++ {
			c := mesh.CoordOf(id)
			for _, o := range geom.OutputDirs {
				for tm := int64(0); tm < int64(p.Sched.Smax()); tm++ {
					w := p.Sched.OutputWave(c, o, tm)
					for dom := 0; dom < 3; dom++ {
						want := p.Dec.Domain(w) == dom && p.Dec.CanStart(w, p.Slot[dom])
						if got := p.Opens(c, o, tm, dom); got != want {
							t.Fatalf("Opens(%v, %v, %d, %d) = %v, want %v", c, o, tm, dom, got, want)
						}
					}
				}
			}
		}
	}
}
