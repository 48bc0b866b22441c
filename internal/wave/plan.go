package wave

import (
	"fmt"

	"surfbless/internal/geom"
)

// Plan is the wave plan a confined-interference fabric runs: the §4.2
// schedule, the Fig. 4(b) decoder, and each domain's worm-window width
// (its slot width, §5.2: a domain's packets are at most that many
// flits, and their heads depart only at aligned windows of that many
// same-domain waves).  SB routes by it, Surf gates its outputs by it
// at slot width 1, and the wcta backends analyse the same plan, so a
// bound always describes a configuration the fabric accepts.  A plan
// is shared read-only by every router of a fabric.
type Plan struct {
	Sched *Schedule
	Dec   *Decoder
	Slot  []int // per-domain worm-window width in waves
}

// NewPlan builds the plan of a square mesh with the given hop delay.
// The decoder follows the explicit wave sets of §5.2 when sets is
// non-nil (one set per domain), else the round-robin assignment of
// §5.1 over the given domain count.  Nil slotWidths means width 1 for
// every domain.  NewPlan refuses a width below 1, and a width that no
// window of its domain can hold: that domain could never inject.
func NewPlan(mesh geom.Mesh, hopDelay, domains int, sets [][]int, slotWidths []int) (*Plan, error) {
	p := &Plan{Sched: New(mesh, hopDelay), Slot: slotWidths}
	if sets == nil {
		p.Dec = RoundRobin(p.Sched.Smax(), domains)
	} else {
		var err error
		if p.Dec, err = FromSets(p.Sched.Smax(), sets); err != nil {
			return nil, err
		}
	}
	if p.Slot == nil {
		p.Slot = make([]int, p.Dec.Domains())
		for i := range p.Slot {
			p.Slot[i] = 1
		}
	}
	if len(p.Slot) != p.Dec.Domains() {
		return nil, fmt.Errorf("wave: %d slot widths for %d domains", len(p.Slot), p.Dec.Domains())
	}
	for dom, w := range p.Slot {
		if w < 1 {
			return nil, fmt.Errorf("wave: domain %d slot width %d", dom, w)
		}
		if p.Dec.StartableSlots(dom, w) == 0 {
			return nil, fmt.Errorf("wave: domain %d has no startable window of %d waves", dom, w)
		}
	}
	return p, nil
}

// Opens reports whether output o of router c carries, at cycle t, a
// wave that opens a window of domain dom: the wave belongs to dom and
// starts an aligned window of the domain's slot width (CanStart).  It
// is SB's output test and, at slot width 1, Surf's wave gate; it reads
// the decoder's tables itself because it runs for every candidate
// output of every packet each cycle.
func (p *Plan) Opens(c geom.Coord, o geom.Dir, t int64, dom int) bool {
	w := p.Sched.OutputWave(c, o, t)
	d := p.Dec
	if d.domainOf[w] != dom {
		return false
	}
	size := p.Slot[dom]
	return size == 1 || (w-d.runStart[w])%size == 0 && w+size <= d.runEnd[w]
}

// §5.2 wave sets.  The full-system simulator runs its three virtual
// networks on three domains: domain 0 carries the 1-flit control
// packets, and each data domain owns a few windows of `size`
// consecutive waves for its `size`-flit worms.

// PaperSets returns the paper's literal §5.2 assignment for Smax = 42:
// the data domains' windows start at {0, 15, 30} and {7, 22, 37}, and
// control owns the rest.  The wave-placement ablation runs it.
func PaperSets(size int) [][]int {
	return windowSets(42, size, [][]int{{0, 15, 30}, {7, 22, 37}})
}

// StrideSets returns the placement this reproduction runs instead
// (DESIGN.md §6): three windows per data domain at multiples of the
// stride 2·P, interleaved across the data domains (P = 3, two data
// domains ⇒ {0–4},{12–16},{24–28} and {6–10},{18–22},{30–34}).
//
// The placement matters enormously: the SE scheduler trails the N
// scheduler by 2·P·y at row y, so a worm travelling north on wave s
// can hop onto the south-east wave — to turn or to eject — only at
// rows where s − 2·P·y is again a window start.  With the paper's
// stride 15 (not a multiple of 2·P = 6) that happens only at the mesh
// border, and every north/west-destined worm detours to row/column 0
// or 7; with stride 2·P, turn rows exist every couple of rows and the
// deflection detour shrinks dramatically (WorstDetour).
//
// Smax = 2·P·(N−1) is a multiple of the stride, so every window fits
// below Smax exactly when Smax ≥ 3·dataDomains·2P.
func StrideSets(smax, hopDelay, dataDomains, size int) ([][]int, error) {
	stride := 2 * hopDelay
	if stride <= size {
		return nil, fmt.Errorf("wave: stride 2P=%d cannot hold a %d-wide window", stride, size)
	}
	if smax < 3*dataDomains*stride {
		return nil, fmt.Errorf("wave: Smax=%d too small for %d data domains", smax, dataDomains)
	}
	starts := make([][]int, dataDomains)
	for d := range starts {
		for k := 0; k < 3; k++ {
			starts[d] = append(starts[d], (k*dataDomains+d)*stride)
		}
	}
	return windowSets(smax, size, starts), nil
}

// windowSets is the §5.2 builder: data domain i+1 owns a window of
// size waves at each of starts[i], in start order, and domain 0 owns
// every other wave below smax.  FromSets validates the result.
func windowSets(smax, size int, starts [][]int) [][]int {
	sets := make([][]int, len(starts)+1)
	owned := make(map[int]bool)
	for i, ss := range starts {
		for _, s := range ss {
			for w := s; w < s+size; w++ {
				sets[i+1] = append(sets[i+1], w)
				owned[w] = true
			}
		}
	}
	for w := 0; w < smax; w++ {
		if !owned[w] {
			sets[0] = append(sets[0], w)
		}
	}
	return sets
}
