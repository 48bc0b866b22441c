package wcta

import (
	"fmt"
	"math"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/wave"
)

// SB backend: worst-case traversal bounds from wave-schedule
// periodicity (DESIGN.md §14.3).
//
// Every quantity a Surf-Bless router consults — the three sub-wave
// counters, the decoder, window alignment — is a pure function of
// (router, cycle mod Smax), so a packet's worst-case future depends
// only on that finite state.  The engine walks this state graph with
// the router's own policy (eject on the SE wave at the destination;
// otherwise X-Y, then Y-X, then deflection) taking the adversarial
// branch wherever the hardware would draw pseudo-randomly:
//
//   - walk(f):  the longest walk from any legal injection phase at
//     f.Src to ejection at f.Dst — exact for a packet alone in its
//     domain, because the oldest packet wins every arbitration it
//     meets and therefore follows precisely this walk.
//   - epoch(d): P plus the longest walk from ANY legal in-network
//     state to any destination of domain d — within one epoch the
//     domain's oldest in-network packet is always delivered.
//
// Old-first arbitration then gives the contention bound: a packet with
// r older same-domain packets in flight at injection is delivered
// within r·epoch + epoch cycles, and the token-bucket flow contract
// bounds r self-consistently (the fixed point in sbBounds).  Other
// domains never enter any term: waves of different domains are
// disjoint resources, which is the paper's confinement claim restated
// at analysis level.
type sbAnalyzer struct {
	mesh  geom.Mesh
	sched *wave.Schedule
	dec   *wave.Decoder
	slot  []int
	p     int // hop delay P
	smax  int

	epochs map[int]epochResult // per-domain, computed lazily
	ranks  map[int]rankResult  // per-domain rank fixed points
}

type epochResult struct {
	cycles int64
	ok     bool
	reason string
}

// sbBounds derives per-flow bounds for the SB fabric.
func sbBounds(cfg config.Config, slotWidths []int, fs FlowSet) ([]Bound, error) {
	mesh := cfg.Mesh()
	sched := wave.New(mesh, cfg.HopDelay())
	dec, err := wave.NewDecoder(sched.Smax(), cfg.Domains, cfg.WaveSets)
	if err != nil {
		return nil, err
	}
	if slotWidths == nil {
		slotWidths = make([]int, cfg.Domains)
		for i := range slotWidths {
			slotWidths[i] = 1
		}
	}
	if len(slotWidths) != cfg.Domains {
		return nil, fmt.Errorf("wcta: %d slot widths for %d domains", len(slotWidths), cfg.Domains)
	}
	for i, f := range fs.Flows {
		if f.FlitSize() > slotWidths[f.Domain] {
			return nil, fmt.Errorf("wcta: flow %d: %d flits exceed domain %d slot width %d",
				i, f.FlitSize(), f.Domain, slotWidths[f.Domain])
		}
	}
	a := &sbAnalyzer{
		mesh: mesh, sched: sched, dec: dec, slot: slotWidths,
		p: cfg.HopDelay(), smax: sched.Smax(),
		epochs: make(map[int]epochResult),
		ranks:  make(map[int]rankResult),
	}

	// Group flows by domain: only same-domain flows appear in a bound.
	byDomain := make(map[int][]Flow)
	for _, f := range fs.Flows {
		byDomain[f.Domain] = append(byDomain[f.Domain], f)
	}

	bounds := make([]Bound, len(fs.Flows))
	for i, f := range fs.Flows {
		bounds[i] = a.flowBound(f, byDomain[f.Domain])
	}
	return bounds, nil
}

// flowBound assembles one flow's bound from the domain-level rank
// fixed point and the flow's own walks.
func (a *sbAnalyzer) flowBound(f Flow, domainFlows []Flow) Bound {
	// The epoch is needed even at rank 0: it is the window the rank
	// fixed point measures in-flight populations over, so a bounded
	// result always requires a finite epoch.
	ep := a.epoch(f.Domain, domainFlows)
	if !ep.ok {
		return Bound{Reason: ep.reason}
	}
	w := a.newWalk(f.Dst, f.Domain)
	walk, exact, ok := a.injectWalk(w, f)
	if !ok {
		return Bound{Reason: w.reason}
	}
	rank := a.rank(f.Domain, domainFlows)
	if !rank.ok {
		return Bound{Reason: rank.reason}
	}
	b := Bound{
		Bounded: true,
		Tight:   rank.rank == 0 && exact,
		Terms: []Term{
			{Name: "lone-packet walk", Cycles: walk},
			{Name: "rank at injection", Cycles: rank.rank},
		},
	}
	if rank.rank == 0 {
		b.Cycles = walk
		return b
	}
	// Self epoch: the longest walk to f.Dst from any legal in-network
	// state — where the packet may find itself when it finally becomes
	// the domain's oldest.
	selfEpoch, selfOK := a.worstFrom(w)
	if !selfOK {
		return Bound{Reason: w.reason}
	}
	b.Cycles = rank.rank*ep.cycles + selfEpoch
	b.Terms = append(b.Terms,
		Term{Name: "delivery epoch", Cycles: ep.cycles},
		Term{Name: "self epoch", Cycles: selfEpoch})
	return b
}

type rankResult struct {
	rank   int64
	ok     bool
	reason string
}

// rank runs the domain-level fixed point: with every domain packet
// delivered within L = (r+1)·epoch cycles of injection, the packets
// older than a newly injected one are those the domain's flows
// injected in the preceding L cycles, which the token-bucket contract
// caps at Σ(Burst + ⌊Rate·L⌋) − 1.  The smallest self-consistent r is
// the worst rank any packet can carry; divergence means the offered
// load exceeds what the schedule can clear.
func (a *sbAnalyzer) rank(dom int, domainFlows []Flow) rankResult {
	if r, done := a.ranks[dom]; done {
		return r
	}
	ep := a.epochs[dom] // epoch() has run (flowBound orders the calls)
	res := rankResult{reason: "rank fixed point did not converge within 256 iterations"}
	r := int64(0)
	for iter := 0; iter < 256; iter++ {
		L := (r + 1) * ep.cycles
		if L > boundCap {
			res = rankResult{reason: "offered load exceeds the schedulable region: the rank fixed point diverges"}
			break
		}
		next := int64(-1)
		for _, g := range domainFlows {
			next += int64(g.Burst) + int64(math.Floor(g.Rate*float64(L)))
		}
		if next == r {
			res = rankResult{rank: r, ok: true}
			break
		}
		r = next
	}
	a.ranks[dom] = res
	return res
}

// epoch returns (cached) the domain's delivery-epoch length: within
// this many cycles the oldest in-network packet of the domain is
// delivered, wherever it is and whichever of the domain's
// destinations it has.
func (a *sbAnalyzer) epoch(dom int, domainFlows []Flow) epochResult {
	if ep, done := a.epochs[dom]; done {
		return ep
	}
	worst := int64(0)
	ep := epochResult{ok: true}
	seen := make(map[geom.Coord]bool)
	for _, g := range domainFlows {
		if seen[g.Dst] {
			continue
		}
		seen[g.Dst] = true
		w := a.newWalk(g.Dst, dom)
		c, ok := a.worstFrom(w)
		if !ok {
			ep = epochResult{reason: w.reason}
			break
		}
		if c > worst {
			worst = c
		}
	}
	if ep.ok {
		ep.cycles = worst
	}
	a.epochs[dom] = ep
	return ep
}

// worstFrom returns P plus the longest walk to w.dst over every state
// a domain packet can legally occupy: (node, phase) pairs where some
// input port's wave is a startable window of the domain (an arrival)
// or where the SE wave starts one (a fresh injection).  The +P slack
// covers a packet that is mid-link at the moment it becomes oldest.
func (a *sbAnalyzer) worstFrom(w *sbWalk) (int64, bool) {
	worst := int64(0)
	for id := 0; id < a.mesh.Nodes(); id++ {
		node := a.mesh.CoordOf(id)
		for phase := 0; phase < a.smax; phase++ {
			if !a.legalState(node, phase, w.dom) {
				continue
			}
			c := w.cost(node, phase)
			if w.unbounded {
				return 0, false
			}
			if c > worst {
				worst = c
			}
		}
	}
	return worst + int64(a.p), true
}

// legalState reports whether a packet of dom can be at node during a
// cycle ≡ phase: it just arrived on an input wave owned by the domain
// (the fabric's arrival invariant) or was just injected on the SE
// wave.
func (a *sbAnalyzer) legalState(node geom.Coord, phase int, dom int) bool {
	t := int64(phase)
	for _, d := range geom.LinkDirs {
		if !a.mesh.HasNeighbor(node, d) {
			continue
		}
		w := a.sched.InputWave(node, d, t)
		if a.dec.Domain(w) == dom && a.dec.CanStart(w, a.slot[dom]) {
			return true
		}
	}
	return a.seStart(node, phase, dom)
}

// seStart reports whether the SE scheduler at node opens a startable
// window of dom at the phase — the injection/ejection opportunity.
func (a *sbAnalyzer) seStart(node geom.Coord, phase int, dom int) bool {
	w := a.sched.OutputWave(node, geom.Local, int64(phase))
	return a.dec.Domain(w) == dom && a.dec.CanStart(w, a.slot[dom])
}

// injectWalk returns the worst lone-packet walk over every legal
// injection phase of f, whether that walk is exact (deterministic and
// phase-independent), and whether it is finite.
func (a *sbAnalyzer) injectWalk(w *sbWalk, f Flow) (walk int64, exact bool, ok bool) {
	worst, best := int64(-1), int64(-1)
	for phase := 0; phase < a.smax; phase++ {
		if !a.seStart(f.Src, phase, f.Domain) {
			continue
		}
		// Injection additionally needs a free same-domain output; a
		// phase without one defers the packet in the NI (queue latency,
		// outside the network bound).
		var dirs [geom.NumLinkDirs]geom.Dir
		if w.choices(f.Src, phase, &dirs) == 0 {
			continue
		}
		c := w.cost(f.Src, phase)
		if w.unbounded {
			return 0, false, false
		}
		if c > worst {
			worst = c
		}
		if best < 0 || c < best {
			best = c
		}
	}
	if worst < 0 {
		w.reason = fmt.Sprintf("domain %d has no injection opportunity at %v under the wave schedule", f.Domain, f.Src)
		return 0, false, false
	}
	return worst, !w.branched && worst == best, true
}

// sbWalk memoizes the adversarial walk toward one (dst, domain) pair.
type sbWalk struct {
	a   *sbAnalyzer
	dst geom.Coord
	dom int
	// memo holds the walk cost per (node, phase) state; walkUnknown
	// marks unvisited states and walkOnStack states on the current DFS
	// path (reaching one again means the walk can cycle forever).
	memo      []int64
	branched  bool // some state offered the adversary >1 deflection target
	unbounded bool
	reason    string
}

const (
	walkUnknown = int64(-1)
	walkOnStack = int64(-2)
)

func (a *sbAnalyzer) newWalk(dst geom.Coord, dom int) *sbWalk {
	memo := make([]int64, a.mesh.Nodes()*a.smax)
	for i := range memo {
		memo[i] = walkUnknown
	}
	return &sbWalk{a: a, dst: dst, dom: dom, memo: memo}
}

// cost returns the worst-case number of cycles from "the packet is
// being arbitrated at node during a cycle ≡ phase" to its ejection.
func (w *sbWalk) cost(node geom.Coord, phase int) int64 {
	a := w.a
	idx := a.mesh.ID(node)*a.smax + phase
	switch w.memo[idx] {
	case walkOnStack:
		w.unbounded = true
		w.reason = fmt.Sprintf("adversarial deflection walk toward %v cycles without ejecting (domain %d)", w.dst, w.dom)
		return 0
	case walkUnknown:
	default:
		return w.memo[idx]
	}
	if w.unbounded {
		return 0
	}
	w.memo[idx] = walkOnStack

	var c int64
	if node == w.dst && a.seStart(node, phase, w.dom) {
		// Ejected in the arrival cycle (old-first guarantees the walk's
		// packet wins the single ejection port).
		c = 0
	} else {
		var dirs [geom.NumLinkDirs]geom.Dir
		n := w.choices(node, phase, &dirs)
		if n == 0 {
			// Unreachable while the wave balance invariant holds; treat
			// as unbounded rather than panicking so odd wave sets get a
			// diagnosable refusal.
			w.unbounded = true
			w.reason = fmt.Sprintf("no same-domain output at %v phase %d (domain %d): wave balance violated", node, phase, w.dom)
			w.memo[idx] = walkUnknown
			return 0
		}
		next := (phase + a.p) % a.smax
		for i := 0; i < n; i++ {
			v := int64(a.p) + w.cost(node.Add(dirs[i]), next)
			if v > c {
				c = v
			}
		}
	}
	w.memo[idx] = c
	return c
}

// choices fills dirs with the outputs the router could hand the packet
// at (node, phase) and returns their count, mirroring pickOutput: the
// X-Y output if eligible, else Y-X, else every eligible output (the
// hardware draws pseudo-randomly — the adversary may pick any).
func (w *sbWalk) choices(node geom.Coord, phase int, dirs *[geom.NumLinkDirs]geom.Dir) int {
	if d := geom.XYFirst(node, w.dst); d != geom.Local && w.eligible(node, d, phase) {
		dirs[0] = d
		return 1
	}
	if d := geom.YXFirst(node, w.dst); d != geom.Local && w.eligible(node, d, phase) {
		dirs[0] = d
		return 1
	}
	n := 0
	for _, d := range geom.LinkDirs {
		if w.eligible(node, d, phase) {
			dirs[n] = d
			n++
		}
	}
	if n > 1 {
		w.branched = true
	}
	return n
}

// eligible mirrors the fabric's output-eligibility check: the output
// exists and its current wave is a startable window of the domain.
func (w *sbWalk) eligible(node geom.Coord, d geom.Dir, phase int) bool {
	a := w.a
	if !a.mesh.HasNeighbor(node, d) {
		return false
	}
	wv := a.sched.OutputWave(node, d, int64(phase))
	return a.dec.Domain(wv) == w.dom && a.dec.CanStart(wv, a.slot[w.dom])
}
