package wave

import (
	"fmt"
	"sort"
)

// Decoder is the per-router decoder table of Fig. 4(b): it maps wave
// indices to interference domains.  Every router shares one immutable
// decoder (the hardware replicates the same table in each router).
//
// Besides the plain wave→domain map, the decoder knows the run
// structure needed for multi-flit transfers (§5.2): a packet of L flits
// occupies L consecutive wave slots, so its head may depart only at the
// beginning of an aligned window of L same-domain waves ("packets only
// choose the output port assigned at the begin of the wave sets").
type Decoder struct {
	smax     int
	domains  int
	domainOf []int // wave → domain, -1 when the wave is unowned
	runStart []int // first wave of the maximal same-domain run containing w (no wrap)
	runEnd   []int // one past the last wave of that run (no wrap)
}

// RoundRobin builds the default assignment used in §5.1: domains are
// "equally and evenly assigned" to the waves, wave w belonging to
// domain w mod domains.
func RoundRobin(smax, domains int) *Decoder {
	if smax < 1 || domains < 1 {
		panic(fmt.Sprintf("wave: RoundRobin(%d, %d) invalid", smax, domains))
	}
	d := &Decoder{smax: smax, domains: domains, domainOf: make([]int, smax)}
	for w := 0; w < smax; w++ {
		d.domainOf[w] = w % domains
	}
	d.computeRuns()
	return d
}

// FromSets builds the explicit wave-set assignment of §5.2: sets[i] is
// the list of wave indices owned by domain i.  Waves not mentioned in
// any set are unowned and carry no traffic.  Sets must be disjoint and
// within [0, smax).
func FromSets(smax int, sets [][]int) (*Decoder, error) {
	if smax < 1 {
		return nil, fmt.Errorf("wave: smax %d invalid", smax)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("wave: no wave sets given")
	}
	d := &Decoder{smax: smax, domains: len(sets), domainOf: make([]int, smax)}
	for w := range d.domainOf {
		d.domainOf[w] = -1
	}
	for dom, set := range sets {
		if len(set) == 0 {
			return nil, fmt.Errorf("wave: domain %d has an empty wave set", dom)
		}
		for _, w := range set {
			if w < 0 || w >= smax {
				return nil, fmt.Errorf("wave: wave %d out of range [0,%d)", w, smax)
			}
			if d.domainOf[w] != -1 {
				return nil, fmt.Errorf("wave: wave %d assigned to both domain %d and %d", w, d.domainOf[w], dom)
			}
			d.domainOf[w] = dom
		}
	}
	d.computeRuns()
	return d, nil
}

// computeRuns derives, for each wave, the maximal run of consecutive
// same-domain waves containing it.  Runs do not wrap around Smax: a
// window of L slots must fit inside [0, Smax) so that the L flits of a
// worm traverse strictly consecutive cycles of one schedule period.
func (d *Decoder) computeRuns() {
	d.runStart = make([]int, d.smax)
	d.runEnd = make([]int, d.smax)
	w := 0
	for w < d.smax {
		end := w + 1
		for end < d.smax && d.domainOf[end] == d.domainOf[w] {
			end++
		}
		for i := w; i < end; i++ {
			d.runStart[i] = w
			d.runEnd[i] = end
		}
		w = end
	}
}

// Smax returns the schedule length the decoder was built for.
func (d *Decoder) Smax() int { return d.smax }

// Domains returns the number of domains.
func (d *Decoder) Domains() int { return d.domains }

// Domain returns the domain owning wave w, or -1 when w is unowned.
func (d *Decoder) Domain(w int) int {
	if w < 0 || w >= d.smax {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("wave: Domain(%d) out of range [0,%d)", w, d.smax))
	}
	return d.domainOf[w]
}

// CanStart reports whether the head of a packet of `size` flits may
// depart on wave w: the wave must be owned, and waves w … w+size−1 must
// form an aligned window inside one same-domain run.  Alignment (the
// window offset from the run start is a multiple of size) ensures that
// consecutive worms never overlap and every router sees whole windows.
func (d *Decoder) CanStart(w, size int) bool {
	if w < 0 || w >= d.smax {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("wave: CanStart(%d) out of range [0,%d)", w, d.smax))
	}
	if size < 1 {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("wave: CanStart with size %d", size))
	}
	if d.domainOf[w] < 0 {
		return false
	}
	if size == 1 {
		return true
	}
	return (w-d.runStart[w])%size == 0 && w+size <= d.runEnd[w]
}

// Owned returns the waves owned by domain dom, in increasing order.
func (d *Decoder) Owned(dom int) []int {
	var ws []int
	for w, o := range d.domainOf {
		if o == dom {
			ws = append(ws, w)
		}
	}
	sort.Ints(ws)
	return ws
}

// StartableSlots returns how many waves of one period allow a head of
// `size` flits from domain dom to depart.  It quantifies the §5.1.3
// injection-opportunity asymmetry between domains.
func (d *Decoder) StartableSlots(dom, size int) int {
	n := 0
	for w := 0; w < d.smax; w++ {
		if d.domainOf[w] == dom && d.CanStart(w, size) {
			n++
		}
	}
	return n
}
