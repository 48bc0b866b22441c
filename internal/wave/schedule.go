// Package wave implements the paper's core contribution: the repetitive
// space/time wave schedule of Section 4 that assigns NoC resources
// (ports, crossbar slots, links) to waves, plus the decoder that maps
// waves to interference domains.
//
// Each router holds three conceptual schedulers — south-east, north and
// west — realized here as a counter per sub-wave that cyclically counts
// 0 … Smax−1 with the per-router initial values of Eq. (1)–(3):
//
//	InitialSE = (Smax·P − P·(x+y)) mod Smax
//	InitialW  = (Smax·P + P·(x−y)) mod Smax
//	InitialN  = (Smax·P − P·(x−y)) mod Smax
//
// The counter value at cycle T *is* the index of the wave owning that
// sub-wave's port group at the router during T.  The schedule has two
// load-bearing properties, both enforced by tests and checkable at run
// time through CheckBalance/CheckContinuity:
//
//  1. Continuity: a flit departing on an output port owned by wave w at
//     cycle T arrives, P cycles later, on an input port owned by the
//     same wave w at the downstream router, so packets "surf" without
//     ever waiting for their time slot.
//  2. Balance (the paper's deflection guarantee): at every router and
//     cycle, each wave owns exactly as many non-local input ports as
//     non-local output ports, so a deflection output always exists.
//     The border rules (Rule-1/Rule-2) fall out of the initial values:
//     the N counter coincides with the SE counter on the south and
//     north borders, the W counter on the east and west borders.
package wave

import (
	"fmt"

	"surfbless/internal/geom"
)

// Sub identifies one of the three per-router schedulers.
type Sub int

// The three sub-wave schedulers of Fig. 4(b).
const (
	SE   Sub = iota // inputs {N, W, Injection}; outputs {S, E, Ejection}
	NSub            // input {S}; output {N}
	WSub            // input {E}; output {W}
)

// String names the sub-wave.
func (s Sub) String() string {
	switch s {
	case SE:
		return "SE"
	case NSub:
		return "N"
	case WSub:
		return "W"
	default:
		return fmt.Sprintf("Sub(%d)", int(s))
	}
}

// InputSub returns the scheduler responsible for the given input port:
// the south-east scheduler serves the N, W and injection inputs, the
// north scheduler the S input, the west scheduler the E input.
func InputSub(in geom.Dir) Sub {
	switch in {
	case geom.South:
		return NSub
	case geom.East:
		return WSub
	default: // North, West, Local
		return SE
	}
}

// OutputSub returns the scheduler responsible for the given output port:
// the south-east scheduler serves the S, E and ejection outputs, the
// north scheduler the N output, the west scheduler the W output.
func OutputSub(out geom.Dir) Sub {
	switch out {
	case geom.North:
		return NSub
	case geom.West:
		return WSub
	default: // South, East, Local
		return SE
	}
}

// Schedule is the wave schedule for one square mesh.  It is immutable
// and safe to share between routers; "advancing the counters" is pure
// arithmetic on the cycle number, which keeps the simulated hardware
// (one counter per scheduler) trivially equivalent.
type Schedule struct {
	mesh geom.Mesh
	p    int // hop delay P: router pipeline + link traversal, in cycles
	smax int

	// Initial counter values per sub-wave and node id, precomputed from
	// Eq. (1)-(3).
	init [3][]int
}

// New builds the wave schedule for an N×N mesh with hop delay P.
// It panics on a non-square mesh or non-positive hop delay: the border
// rules only close the reverberation pattern on square meshes, so this
// is a static configuration error.
func New(mesh geom.Mesh, hopDelay int) *Schedule {
	if mesh.Width != mesh.Height {
		panic(fmt.Sprintf("wave: schedule requires a square mesh, got %dx%d", mesh.Width, mesh.Height))
	}
	if mesh.Width < 2 {
		panic("wave: mesh must be at least 2x2")
	}
	if hopDelay < 1 {
		panic(fmt.Sprintf("wave: hop delay %d must be positive", hopDelay))
	}
	n := mesh.Width
	p := hopDelay
	smax := 2 * p * (n - 1)
	s := &Schedule{mesh: mesh, p: p, smax: smax}
	for sub := range s.init {
		s.init[sub] = make([]int, mesh.Nodes())
	}
	for id := 0; id < mesh.Nodes(); id++ {
		c := mesh.CoordOf(id)
		s.init[SE][id] = mod(smax*p-p*(c.X+c.Y), smax)
		s.init[WSub][id] = mod(smax*p+p*(c.X-c.Y), smax)
		s.init[NSub][id] = mod(smax*p-p*(c.X-c.Y), smax)
	}
	return s
}

// Smax returns the number of waves, 2·P·(N−1).
func (s *Schedule) Smax() int { return s.smax }

// HopDelay returns P.
func (s *Schedule) HopDelay() int { return s.p }

// Mesh returns the topology the schedule was built for.
func (s *Schedule) Mesh() geom.Mesh { return s.mesh }

// Index returns the wave index held by sub-wave scheduler sub at router
// c during cycle t, i.e. the value of that scheduler's counter.  It is
// small enough to inline into the fabrics' per-port checks; an unknown
// sub panics on the table index.
func (s *Schedule) Index(sub Sub, c geom.Coord, t int64) int {
	return int(mod64(int64(s.init[sub][s.mesh.ID(c)])+t, int64(s.smax)))
}

// InputWave returns the wave owning input port `in` of router c at
// cycle t.
func (s *Schedule) InputWave(c geom.Coord, in geom.Dir, t int64) int {
	return s.Index(InputSub(in), c, t)
}

// OutputWave returns the wave owning output port `out` of router c at
// cycle t.
func (s *Schedule) OutputWave(c geom.Coord, out geom.Dir, t int64) int {
	return s.Index(OutputSub(out), c, t)
}

// CheckContinuity verifies property (1) for every link of the mesh at
// cycle t: the wave owning each output port equals the wave owning the
// downstream input port P cycles later.  It returns the first violation
// found, or nil.
func (s *Schedule) CheckContinuity(t int64) error {
	for id := 0; id < s.mesh.Nodes(); id++ {
		c := s.mesh.CoordOf(id)
		for _, d := range geom.LinkDirs {
			if !s.mesh.HasNeighbor(c, d) {
				continue
			}
			out := s.OutputWave(c, d, t)
			in := s.InputWave(c.Add(d), d.Opposite(), t+int64(s.p))
			if out != in {
				return fmt.Errorf("wave: continuity broken at %v→%v cycle %d: out wave %d, downstream in wave %d",
					c, c.Add(d), t, out, in)
			}
		}
	}
	return nil
}

// CheckBalance verifies property (2) at router c, cycle t: every wave
// owns equally many existing non-local input and output ports.  It
// returns the first imbalance found, or nil.
func (s *Schedule) CheckBalance(c geom.Coord, t int64) error {
	in := make(map[int]int)
	out := make(map[int]int)
	for _, d := range geom.LinkDirs {
		// An input port in direction d exists iff the neighbour in that
		// direction exists (the link is bidirectional), and likewise for
		// the output port.
		if s.mesh.HasNeighbor(c, d) {
			in[s.InputWave(c, d, t)]++
			out[s.OutputWave(c, d, t)]++
		}
	}
	for w, n := range in {
		if out[w] != n {
			return fmt.Errorf("wave: imbalance at %v cycle %d: wave %d owns %d inputs, %d outputs",
				c, t, w, n, out[w])
		}
	}
	for w, n := range out {
		if in[w] != n {
			return fmt.Errorf("wave: imbalance at %v cycle %d: wave %d owns %d outputs, %d inputs",
				c, t, w, n, in[w])
		}
	}
	return nil
}

// mod returns a mod m with a non-negative result.
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// mod64 returns a mod m with a non-negative result.
func mod64(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
