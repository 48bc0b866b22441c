package wcta

import (
	"fmt"
	"math"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/wave"
)

// WH / Surf backend: buffer-aware busy-period analysis over the
// contention tree of XY routes (DESIGN.md §14.2), in the style of
// Mifdaoui & Ayed's worst-case timing analysis for wormhole networks.
//
// Per flow f the engine derives a zero-load traversal time C_f (hop
// pipeline, flit serialization, and for Surf the wave-gating TDM
// waits), collects the transitive closure S(f) of flows linked to f by
// shared XY route links (wormhole backpressure propagates interference
// across the whole tree, not just directly shared links), and iterates
// the busy period
//
//	R ← C_f + Σ_{g ∈ S(f)} (Burst_g + ⌊Rate_g·R⌋)·C_g − C_f
//
// to its least fixed point: every interfering packet that can be
// admitted inside f's busy window delays f by at most its own
// occupancy C_g.  Divergence (the window admits load faster than the
// links retire it) yields an explicit Unbounded refusal.
//
// For Surf the closure is restricted to same-domain flows: wave-gated
// links are time-divided between domains, so another domain's traffic
// can never extend a busy period — its cost is the static TDM gating
// already charged in C_f.  This is the paper's confinement claim at
// analysis level, and the property the confinement test pins down.

// vcBounds derives bounds for the ungated wormhole baseline.
func vcBounds(cfg config.Config, fs FlowSet, confined bool) []Bound {
	return vcAnalyze(cfg, fs, confined, nil)
}

// vcBoundsGated derives bounds for Surf: confined interference plus
// per-flit wave gating on every non-local output port.
func vcBoundsGated(cfg config.Config, fs FlowSet) ([]Bound, error) {
	plan, err := wave.NewPlan(cfg.Mesh(), cfg.HopDelay(), cfg.Domains, cfg.WaveSets, nil)
	if err != nil {
		return nil, err
	}
	return vcAnalyze(cfg, fs, true, plan.Dec), nil
}

func vcAnalyze(cfg config.Config, fs FlowSet, confined bool, dec *wave.Decoder) []Bound {
	mesh := cfg.Mesh()
	p := int64(cfg.HopDelay())

	// Directed links of every flow's XY route, as node-id/direction
	// pairs; Local (the ejection port) is per-node and per-domain, so
	// only mesh links carry contention.
	routes := make([]map[linkID]bool, len(fs.Flows))
	costs := make([]int64, len(fs.Flows)) // zero-load C_g per flow
	gates := make([]int64, len(fs.Flows)) // gating share of C_g
	for i, f := range fs.Flows {
		routes[i] = xyRoute(mesh, f.Src, f.Dst)
		hops := int64(mesh.Hops(f.Src, f.Dst))
		size := int64(f.FlitSize())
		costs[i] = p*hops + (size - 1)
		if dec != nil {
			wait, spacing := gateWaits(dec, f.Domain)
			// Every hop may hold the head for the wait to the next
			// owned wave; each additional flit trails one owned-wave
			// spacing behind its predecessor at the final hop.
			gates[i] = hops*wait + (size-1)*(spacing-1)
			costs[i] += gates[i]
		}
	}

	bounds := make([]Bound, len(fs.Flows))
	for i, f := range fs.Flows {
		members := contentionClosure(fs.Flows, routes, i, confined)
		bounds[i] = busyPeriod(f, fs.Flows, costs, gates, members, i)
	}
	return bounds
}

type linkID struct {
	node int
	dir  geom.Dir
}

// xyRoute returns the directed mesh links of the XY path src→dst.
func xyRoute(mesh geom.Mesh, src, dst geom.Coord) map[linkID]bool {
	links := make(map[linkID]bool)
	for cur := src; cur != dst; {
		d := geom.XYFirst(cur, dst)
		links[linkID{node: mesh.ID(cur), dir: d}] = true
		cur = cur.Add(d)
	}
	return links
}

// gateWaits returns, for a domain under the decoder, the worst wait
// until the next owned wave (0 when every wave is owned) and the worst
// spacing between consecutive owned waves.
func gateWaits(dec *wave.Decoder, dom int) (wait, spacing int64) {
	owned := dec.Owned(dom)
	if len(owned) == 0 {
		return int64(dec.Smax()), int64(dec.Smax())
	}
	smax := dec.Smax()
	for i, w := range owned {
		next := owned[(i+1)%len(owned)]
		gap := next - w
		if gap <= 0 {
			gap += smax
		}
		if int64(gap) > spacing {
			spacing = int64(gap)
		}
	}
	wait = spacing - 1
	return wait, spacing
}

// contentionClosure returns the indices of every flow transitively
// linked to flow i by shared route links (always including i).
func contentionClosure(flows []Flow, routes []map[linkID]bool, i int, confined bool) []int {
	in := make([]bool, len(flows))
	in[i] = true
	shared := make(map[linkID]bool, len(routes[i]))
	for l := range routes[i] {
		shared[l] = true
	}
	for changed := true; changed; {
		changed = false
		for j, g := range flows {
			if in[j] {
				continue
			}
			if confined && g.Domain != flows[i].Domain {
				continue
			}
			if !overlaps(routes[j], shared) {
				continue
			}
			in[j] = true
			for l := range routes[j] {
				shared[l] = true
			}
			changed = true
		}
	}
	var members []int
	for j, ok := range in {
		if ok {
			members = append(members, j)
		}
	}
	return members
}

func overlaps(a, b map[linkID]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for l := range a {
		if b[l] {
			return true
		}
	}
	return false
}

// busyPeriod iterates flow i's response time to its least fixed point.
func busyPeriod(f Flow, flows []Flow, costs, gates []int64, members []int, i int) Bound {
	c := costs[i]
	r := c
	converged := false
	for iter := 0; iter < 256; iter++ {
		interference := -c // the packet under analysis occupies its own C once
		for _, j := range members {
			g := flows[j]
			n := int64(g.Burst) + int64(math.Floor(g.Rate*float64(r)))
			interference += n * costs[j]
		}
		next := c + interference
		if next == r {
			converged = true
			break
		}
		r = next
		if r > boundCap {
			return Bound{Reason: fmt.Sprintf("contention tree of %d flows admits load faster than its links retire it: busy-period iteration diverges", len(members))}
		}
	}
	if !converged {
		return Bound{Reason: "busy-period iteration did not converge within 256 iterations"}
	}
	b := Bound{
		Bounded: true,
		Cycles:  r,
		// Exact only for a packet meeting zero contention on an
		// ungated fabric: gating waits are phase-dependent worst cases.
		Tight: r == c && gates[i] == 0,
		Terms: []Term{
			{Name: "zero-load traversal", Cycles: c - gates[i]},
			{Name: "wave-gating", Cycles: gates[i]},
			{Name: "interference", Cycles: r - c},
		},
	}
	return b
}
