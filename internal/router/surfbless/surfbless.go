// Package surfbless implements the paper's contribution: Surf-Bless
// routing — confined-interference communication on a bufferless NoC
// (Section 4).
//
// Every router consults three wave schedulers (south-east, north, west;
// package wave) that own its port groups cycle by cycle.  A packet may
// use only ports whose current wave belongs to the packet's domain, and
// injection/ejection happen exclusively on the south-east sub-wave.
// The routing algorithm is the paper's two-step procedure (§4.3):
//
//	Step 1 — old-first arbitration [12] picks the packet order;
//	         injection has the lowest priority.
//	Step 2 — try the X-Y output; if it is not in the packet's domain or
//	         already granted, try Y-X; otherwise deflect to a free
//	         output of the same domain chosen pseudo-randomly.
//
// The wave schedule's port-balance invariant guarantees the deflection
// target exists, so packets never wait inside the network and no
// in-network VCs are needed.  The fabric enforces that invariant with
// always-on assertions: a missing output or a packet arriving on a
// foreign domain's wave panics, because it would falsify the paper's
// central claim.
//
// Multi-flit packets (§5.2) travel as worms pinned to aligned windows
// of consecutive same-domain waves: a worm of L flits may start only
// where the fabric's wave plan opens a window of its domain (the
// "begin of the wave sets"), which makes window occupancy
// self-synchronizing — no explicit output reservation is needed
// because mid-window waves never open a window for a new head.
//
// The fabric is a router.Plane: the plane receives, sends and audits,
// and the fabric supplies its arbitration as a resolve root, which the
// kernel steps serially or sharded across node tiles with bit-identical
// results (SetShards; DESIGN.md §17).
package surfbless

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
	"surfbless/internal/stats"
	"surfbless/internal/wave"
)

// Policy tunes the §4.3 output-selection procedure for ablation
// studies.  The zero value is the paper's algorithm.
type Policy struct {
	// DisableYX skips Step 2's Y-X fallback, deflecting straight after
	// a failed X-Y try.
	DisableYX bool
	// DisableRandom replaces the pseudo-random deflection choice with
	// the first eligible port in fixed N,E,S,W order.
	DisableRandom bool
}

// Fabric is a Surf-Bless mesh.  It implements network.Fabric.  Faults
// (SetFaults) break the wave-balance invariant on purpose, so while
// armed the fabric routes stricken packets through the kernel's
// drop-with-retransmit recovery instead of panicking.
type Fabric struct {
	router.Plane
	cfg  config.Config
	plan wave.Plan
	pol  Policy
}

// New builds a Surf-Bless mesh for cfg with the paper's routing
// algorithm.  slotWidths gives the window length per domain (nil means
// 1 for every domain); packets of a domain must not exceed its slot
// width.  Wave→domain decoding follows cfg.WaveSets when set, else
// round-robin (wave.NewPlan).
func New(cfg config.Config, slotWidths []int, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	return NewWithPolicy(cfg, slotWidths, Policy{}, sink, col, meter)
}

// NewWithPolicy is New with an ablation policy applied.
func NewWithPolicy(cfg config.Config, slotWidths []int, pol Policy, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.SB {
		return nil, fmt.Errorf("surfbless: config model is %v", cfg.Model)
	}
	f := &Fabric{cfg: cfg, pol: pol}
	if err := f.Init(cfg, cfg.HopDelay(), cfg.HopDelay(), sink, col, meter, nil, f.resolveTile); err != nil {
		return nil, err
	}
	plan, err := wave.NewPlan(f.Mesh, cfg.HopDelay(), cfg.Domains, cfg.WaveSets, slotWidths)
	if err != nil {
		return nil, err
	}
	f.plan = *plan
	return f, nil
}

// Inject offers p to node's per-domain NI queue.  It panics when the
// packet violates the static domain contract (bad domain index, or a
// size exceeding the domain's slot width) and returns false under
// backpressure.
func (f *Fabric) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Domain < 0 || p.Domain >= f.cfg.Domains {
		panic(fmt.Sprintf("surfbless: %v has domain outside [0,%d)", p, f.cfg.Domains))
	}
	if p.Size > f.plan.Slot[p.Domain] {
		panic(fmt.Sprintf("surfbless: %v exceeds domain %d slot width %d", p, p.Domain, f.plan.Slot[p.Domain]))
	}
	return f.Offer(nodeID, p, now)
}

// resolveTile runs the ejection, routing and injection of one tile's
// active routers, and keeps a router with a queued packet awake.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	fx := &f.FX[t]
	for _, id := range f.Active(t) {
		f.resolveNode(id, f.Nodes[id], f.Now, fx)
		f.Settle(fx, id, false)
	}
}

// resolveNode is the cycle's routing phase for one router: the
// confinement check on its arrivals, then ejection, old-first
// arbitration, output selection/forwarding and SE injection.
func (f *Fabric) resolveNode(id int, n *router.Node, now int64, fx *router.FX) {
	// Every packet must arrive on a wave owned by its own domain, at a
	// window start.
	for i, p := range n.Arrivals {
		d := n.From[i]
		w := f.plan.Sched.InputWave(n.C, d, now)
		if dom := f.plan.Dec.Domain(w); dom != p.Domain {
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("surfbless: %v arrived at %v/%v cycle %d on wave %d of domain %d",
				p, n.C, d, now, w, dom))
		}
		if !f.plan.Dec.CanStart(w, f.plan.Slot[p.Domain]) {
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("surfbless: %v arrived at %v/%v cycle %d mid-window (wave %d)",
				p, n.C, d, now, w))
		}
	}
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		f.DropArrivals(n, now)
		return
	}
	arrivals := n.Arrivals

	// Ejection happens only on the south-east sub-wave (§4.2): the
	// ejection port is owned by the SE scheduler's current wave, so a
	// packet at its destination ejects only when that wave belongs to
	// its domain — otherwise it is deflected onward (§5.1.3).
	seWave := f.plan.Sched.OutputWave(n.C, geom.Local, now)
	seDom := f.plan.Dec.Domain(seWave)
	seStart := seDom >= 0 && f.plan.Dec.CanStart(seWave, f.plan.Slot[seDom])
	ejected := -1
	if seStart {
		for i, p := range arrivals {
			if p.Dst == n.C && p.Domain == seDom && (ejected < 0 || p.Older(arrivals[ejected])) {
				ejected = i
			}
		}
	}
	if ejected >= 0 {
		p := arrivals[ejected]
		f.Crossbar(fx, p.Size)
		f.Ejected(fx, id, p, now)
		arrivals = append(arrivals[:ejected], arrivals[ejected+1:]...)
	}

	// Step 1 of the routing algorithm: old-first packet order.
	router.SortOldestFirst(arrivals)

	// Step 2: X-Y, then Y-X, then random same-domain deflection.
	var taken [geom.NumLinkDirs]bool
	for _, p := range arrivals {
		d := f.pickOutput(id, n, p, now, &taken)
		if d < 0 {
			// Fault-free, a missing output falsifies the paper's central
			// claim and must panic.  With faults armed the wave balance is
			// broken by design (a down link removes its port from the
			// schedule), so the stranded packet enters recovery instead.
			if f.Faults != nil {
				f.DropOrRetry(p, now)
				continue
			}
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("surfbless: no same-domain output at %v cycle %d for %v — wave balance violated",
				n.C, now, p))
		}
		taken[d] = true
		f.Forward(fx, id, n, p, d, now)
	}

	// Injection: only on the SE sub-wave, only for the domain owning it,
	// and only at the lowest priority (a free same-domain output must
	// remain, §4.3).
	if seStart {
		if p := n.NI.Head(seDom); p != nil {
			if d := f.pickOutput(id, n, p, now, &taken); d >= 0 {
				n.NI.Pop(seDom)
				f.Injected(fx, p, now)
				f.BufferRead(fx, p.Size)
				taken[d] = true
				f.Forward(fx, id, n, p, d, now)
			}
		}
	}
}

// eligible reports whether output d may carry p's head this cycle.
func (f *Fabric) eligible(id int, n *router.Node, p *packet.Packet, d geom.Dir, now int64, taken *[geom.NumLinkDirs]bool) bool {
	return d != geom.Local && !taken[d] && f.Usable(id, n, d, now) && f.plan.Opens(n.C, d, now, p.Domain)
}

// pickOutput implements Step 2 of §4.3.  It returns -1 when no
// same-domain output is free (legal only for injection attempts).
func (f *Fabric) pickOutput(id int, n *router.Node, p *packet.Packet, now int64, taken *[geom.NumLinkDirs]bool) geom.Dir {
	if d := geom.XYFirst(n.C, p.Dst); d != geom.Local && f.eligible(id, n, p, d, now, taken) {
		return d
	}
	if !f.pol.DisableYX {
		if d := geom.YXFirst(n.C, p.Dst); d != geom.Local && f.eligible(id, n, p, d, now, taken) {
			return d
		}
	}
	// Random deflection among the remaining same-domain outputs.  The
	// choice is a pure hash of (packet, cycle): no shared RNG state, so
	// one domain's traffic can never perturb another domain's draws.
	// A fixed-size candidate array keeps this off the heap.
	var free [geom.NumLinkDirs]geom.Dir
	nf := 0
	for _, d := range geom.LinkDirs {
		if f.eligible(id, n, p, d, now, taken) {
			free[nf] = d
			nf++
		}
	}
	if nf == 0 {
		return -1
	}
	if f.pol.DisableRandom {
		return free[0]
	}
	return free[router.Hash64(p.ID, uint64(now))%uint64(nf)]
}

var _ network.Fabric = (*Fabric)(nil)
