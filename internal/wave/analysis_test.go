package wave

import "testing"

// tunedSets is the placement the full-system simulator runs for
// Smax = 42, P = 3: data windows at multiples of 2P.
func tunedSets() [][]int {
	sets, err := StrideSets(42, 3, 2, 5)
	if err != nil {
		panic(err)
	}
	return sets
}

// The DESIGN.md §6 claim, verified analytically: with the paper's
// stride-15 windows a data worm can only turn at the border (worst
// detour = 7 rows on an 8-row mesh), while the tuned 2P-stride windows
// cut the worst detour to ≤ 2 rows.
func TestWorstDetourPlacement(t *testing.T) {
	const p, rows = 3, 8
	tuned, err := FromSets(42, tunedSets())
	if err != nil {
		t.Fatal(err)
	}
	paper, err := FromSets(42, PaperSets(5))
	if err != nil {
		t.Fatal(err)
	}
	for dom := 1; dom <= 2; dom++ {
		pd := WorstDetour(paper, p, rows, dom, 5)
		td := WorstDetour(tuned, p, rows, dom, 5)
		// Rows 0 and 7 always turn (2·P·7 = 42 ≡ 0 mod Smax), so the
		// worst victim is a row-6 destination bouncing to row 0.
		if pd != rows-2 {
			t.Errorf("paper sets, domain %d: worst detour %d, want %d (border bounce)", dom, pd, rows-2)
		}
		if td > 2 {
			t.Errorf("tuned sets, domain %d: worst detour %d, want ≤ 2", dom, td)
		}
	}
}

// Turn rows with the tuned sets: window starts at multiples of 2P give
// turn opportunities wherever 2·P·y lands on another start.
func TestTurnRowsTuned(t *testing.T) {
	tuned, err := FromSets(42, tunedSets())
	if err != nil {
		t.Fatal(err)
	}
	// Domain 1 windows start at {0, 12, 24}.  From s = 0: s − 6y ∈
	// {0,12,24} (mod 42) ⇔ 6y ∈ {0,18,30} ⇔ y ∈ {0,3,5,7}.
	got := TurnRows(tuned, 3, 8, 1, 0, 5)
	want := []int{0, 3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("TurnRows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TurnRows = %v, want %v", got, want)
		}
	}
}

// Row 0 is always a turn row: the border rules make all three
// schedulers coincide there.
func TestRowZeroAlwaysTurns(t *testing.T) {
	for _, sets := range [][][]int{tunedSets(), PaperSets(5)} {
		dec, err := FromSets(42, sets)
		if err != nil {
			t.Fatal(err)
		}
		for dom := 1; dom <= 2; dom++ {
			for _, s := range dec.Owned(dom) {
				if !dec.CanStart(s, 5) {
					continue
				}
				rows := TurnRows(dec, 3, 8, dom, s, 5)
				if len(rows) == 0 || rows[0] != 0 {
					t.Fatalf("window %d of domain %d cannot turn at row 0: %v", s, dom, rows)
				}
			}
		}
	}
}

func TestTurnRowsPanicsOnBadWindow(t *testing.T) {
	dec := RoundRobin(42, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a non-window wave")
		}
	}()
	TurnRows(dec, 3, 8, 0, 1, 5) // wave 1 belongs to domain 1, not 0
}

func TestDomainShare(t *testing.T) {
	dec, err := FromSets(42, tunedSets())
	if err != nil {
		t.Fatal(err)
	}
	if got := DomainShare(dec, 1); got != 15.0/42 {
		t.Errorf("data domain share = %g, want 15/42", got)
	}
	if got := DomainShare(dec, 0); got != 12.0/42 {
		t.Errorf("ctrl domain share = %g, want 12/42", got)
	}
}
