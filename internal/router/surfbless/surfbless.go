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
// where the decoder reports CanStart(w, L) (the "begin of the wave
// sets"), which makes window occupancy self-synchronizing — no
// explicit output reservation is needed because mid-window waves never
// satisfy CanStart for a new head.
//
// The fabric is a router.Kernel: it supplies the per-node collect and
// resolve functions and their two tile roots, and the kernel steps them
// serially or sharded across node tiles with bit-identical results
// (SetShards; DESIGN.md §17).
package surfbless

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/link"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
	"surfbless/internal/shard"
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
	router.Kernel
	cfg   config.Config
	sched *wave.Schedule
	dec   *wave.Decoder
	slot  []int // per-domain slot width (window length in waves)
	pol   Policy
	nodes []*node
}

type node struct {
	c   geom.Coord
	ni  *router.NI
	in  [geom.NumLinkDirs]*link.Line[*packet.Packet]
	out [geom.NumLinkDirs]*link.Line[*packet.Packet]

	// Per-cycle scratch reused across cycles (DESIGN.md §12).  A dense
	// array of (packet, arrival direction) pairs replaces the former
	// per-cycle map[*packet.Packet]geom.Dir — at most one arrival per
	// input port, so four slots cover every cycle with zero heap work.
	arrivals [geom.NumLinkDirs]arrival
	nArr     int
	rbuf     []*packet.Packet // per-link receive scratch
}

// arrival is one packet collected from an input link this cycle,
// remembering the port it came in on (used in invariant diagnostics).
type arrival struct {
	p    *packet.Packet
	from geom.Dir
}

// New builds a Surf-Bless mesh for cfg with the paper's routing
// algorithm.  slotWidths gives the window length per domain (nil means
// 1 for every domain); packets of a domain must not exceed its slot
// width.  Wave→domain decoding follows cfg.WaveSets when set, else
// round-robin.
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
	var err error
	if f.Kernel, err = router.NewKernel(cfg, sink, col, meter, f.collectTile, f.resolveTile); err != nil {
		return nil, err
	}
	mesh := f.Mesh
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
		return nil, fmt.Errorf("surfbless: %d slot widths for %d domains", len(slotWidths), cfg.Domains)
	}
	for dom, w := range slotWidths {
		if w < 1 {
			return nil, fmt.Errorf("surfbless: domain %d slot width %d", dom, w)
		}
		if dec.StartableSlots(dom, w) == 0 {
			return nil, fmt.Errorf("surfbless: domain %d has no startable window of %d waves", dom, w)
		}
	}

	f.sched, f.dec, f.slot = sched, dec, slotWidths
	f.nodes = make([]*node, mesh.Nodes())
	for id := range f.nodes {
		f.nodes[id] = &node{c: mesh.CoordOf(id), ni: f.NIs[id]}
	}
	p := cfg.HopDelay()
	for _, n := range f.nodes {
		for _, d := range geom.LinkDirs {
			if !mesh.HasNeighbor(n.c, d) {
				continue
			}
			l := link.New[*packet.Packet](p)
			n.out[d] = l
			f.nodes[mesh.ID(n.c.Add(d))].in[d.Opposite()] = l
		}
	}
	return f, nil
}

// Decoder exposes the wave→domain decoder (read-only use).
func (f *Fabric) Decoder() *wave.Decoder { return f.dec }

// Schedule exposes the wave schedule (read-only use).
func (f *Fabric) Schedule() *wave.Schedule { return f.sched }

// Inject offers p to node's per-domain NI queue.  It panics when the
// packet violates the static domain contract (bad domain index, or a
// size exceeding the domain's slot width) and returns false under
// backpressure.
func (f *Fabric) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Domain < 0 || p.Domain >= f.cfg.Domains {
		panic(fmt.Sprintf("surfbless: %v has domain outside [0,%d)", p, f.cfg.Domains))
	}
	if p.Size > f.slot[p.Domain] {
		panic(fmt.Sprintf("surfbless: %v exceeds domain %d slot width %d", p, p.Domain, f.slot[p.Domain]))
	}
	return f.Offer(nodeID, p, now)
}

// collectTile drains one tile's inbound link lines.
//
//shard:phase(receive)
func (f *Fabric) collectTile(t int) {
	lo, hi := shard.Range(len(f.nodes), len(f.FX), t)
	for _, n := range f.nodes[lo:hi] {
		f.collectNode(n, f.Now)
	}
}

// resolveTile runs one tile's ejection, routing and injection.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	lo, hi := shard.Range(len(f.nodes), len(f.FX), t)
	fx := &f.FX[t]
	for id := lo; id < hi; id++ {
		f.resolveNode(id, f.nodes[id], f.Now, fx)
	}
}

// collectNode is the cycle's receive phase for one router: arrivals
// drain into the node's dense scratch array under the confinement
// invariant — a packet must arrive on a wave owned by its own domain,
// at a window start.
func (f *Fabric) collectNode(n *node, now int64) {
	n.nArr = 0
	for _, d := range geom.LinkDirs {
		if n.in[d] == nil || n.in[d].Idle() {
			continue
		}
		n.rbuf = n.in[d].RecvInto(now, n.rbuf[:0])
		for _, p := range n.rbuf {
			w := f.sched.InputWave(n.c, d, now)
			if dom := f.dec.Domain(w); dom != p.Domain {
				//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
				panic(fmt.Sprintf("surfbless: %v arrived at %v/%v cycle %d on wave %d of domain %d",
					p, n.c, d, now, w, dom))
			}
			if !f.dec.CanStart(w, f.slot[p.Domain]) {
				//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
				panic(fmt.Sprintf("surfbless: %v arrived at %v/%v cycle %d mid-window (wave %d)",
					p, n.c, d, now, w))
			}
			n.arrivals[n.nArr] = arrival{p: p, from: d}
			n.nArr++
		}
	}
}

// resolveNode is the cycle's routing phase for one router: ejection,
// old-first arbitration, output selection/forwarding and SE injection
// over the arrivals collectNode gathered.
func (f *Fabric) resolveNode(id int, n *node, now int64, fx *router.FX) {
	arrivals := n.arrivals[:n.nArr]

	// A frozen router's pipeline is dead: the links above were still
	// drained (they demand collection), but every arrival is lost at the
	// input and recovered via source retransmission.  Nothing ejects,
	// forwards or injects here until the freeze repairs.
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		for _, a := range arrivals {
			f.DropOrRetry(a.p, now)
		}
		return
	}

	// Ejection happens only on the south-east sub-wave (§4.2): the
	// ejection port is owned by the SE scheduler's current wave, so a
	// packet at its destination ejects only when that wave belongs to
	// its domain — otherwise it is deflected onward (§5.1.3).
	seWave := f.sched.OutputWave(n.c, geom.Local, now)
	seDom := f.dec.Domain(seWave)
	seStart := seDom >= 0 && f.dec.CanStart(seWave, f.slot[seDom])
	ejected := -1
	if seStart {
		for i, a := range arrivals {
			if a.p.Dst == n.c && a.p.Domain == seDom && (ejected < 0 || a.p.Older(arrivals[ejected].p)) {
				ejected = i
			}
		}
	}
	if ejected >= 0 {
		p := arrivals[ejected].p
		f.Crossbar(fx, p.Size)
		f.Ejected(fx, id, p, now)
		arrivals = append(arrivals[:ejected], arrivals[ejected+1:]...)
	}

	// Step 1 of the routing algorithm: old-first packet order
	// (allocation-free insertion sort; Older is a total order).
	sortArrivalsOldestFirst(arrivals)

	// Step 2: X-Y, then Y-X, then random same-domain deflection.
	var taken [geom.NumLinkDirs]bool
	for _, a := range arrivals {
		d := f.pickOutput(n, a.p, now, &taken)
		if d < 0 {
			// Fault-free, a missing output falsifies the paper's central
			// claim and must panic.  With faults armed the wave balance is
			// broken by design (a down link removes its port from the
			// schedule), so the stranded packet enters recovery instead.
			if f.Faults != nil {
				f.DropOrRetry(a.p, now)
				continue
			}
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("surfbless: no same-domain output at %v cycle %d for %v (arrived %v) — wave balance violated",
				n.c, now, a.p, a.from))
		}
		f.forward(id, n, a.p, d, now, &taken, fx)
	}

	// Injection: only on the SE sub-wave, only for the domain owning it,
	// and only at the lowest priority (a free same-domain output must
	// remain, §4.3).
	if seStart {
		if p := n.ni.Head(seDom); p != nil {
			if d := f.pickOutput(n, p, now, &taken); d >= 0 {
				n.ni.Pop(seDom)
				f.Injected(fx, p, now)
				f.BufferRead(fx, p.Size)
				f.forward(id, n, p, d, now, &taken, fx)
			}
		}
	}
}

// sortArrivalsOldestFirst is router.SortOldestFirst over (packet,
// direction) pairs: old-first arbitration order, ≤4 elements,
// allocation-free insertion sort.
func sortArrivalsOldestFirst(as []arrival) {
	for i := 1; i < len(as); i++ {
		a := as[i]
		j := i - 1
		for ; j >= 0 && a.p.Older(as[j].p); j-- {
			as[j+1] = as[j]
		}
		as[j+1] = a
	}
}

// eligible reports whether output d may carry p's head this cycle.
func (f *Fabric) eligible(n *node, p *packet.Packet, d geom.Dir, now int64, taken *[geom.NumLinkDirs]bool) bool {
	if d == geom.Local || n.out[d] == nil || taken[d] {
		return false
	}
	if f.Faults != nil && f.Faults.LinkDown(f.Mesh.ID(n.c), d, now) {
		return false
	}
	w := f.sched.OutputWave(n.c, d, now)
	return f.dec.Domain(w) == p.Domain && f.dec.CanStart(w, f.slot[p.Domain])
}

// pickOutput implements Step 2 of §4.3.  It returns -1 when no
// same-domain output is free (legal only for injection attempts).
func (f *Fabric) pickOutput(n *node, p *packet.Packet, now int64, taken *[geom.NumLinkDirs]bool) geom.Dir {
	if d := geom.XYFirst(n.c, p.Dst); d != geom.Local && f.eligible(n, p, d, now, taken) {
		return d
	}
	if !f.pol.DisableYX {
		if d := geom.YXFirst(n.c, p.Dst); d != geom.Local && f.eligible(n, p, d, now, taken) {
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
		if f.eligible(n, p, d, now, taken) {
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

func (f *Fabric) forward(id int, n *node, p *packet.Packet, d geom.Dir, now int64, taken *[geom.NumLinkDirs]bool, fx *router.FX) {
	taken[d] = true
	// Single-flit corruption is modeled at link entry: the worm burned
	// the wire but fails its CRC, so it never reaches the neighbor and
	// the wave invariant at the receiver stays intact.
	if f.Faults != nil && f.Faults.Corrupt(p, id, d, now) {
		f.Link(fx, p.Size)
		f.DropOrRetry(p, now)
		return
	}
	p.Hops++
	deflected := !geom.Productive(n.c, p.Dst, d)
	if deflected {
		p.Deflections++
	}
	f.Hop(fx, p.Size)
	f.Traverse(id, d, p, p.Size, deflected, now)
	n.out[d].Send(p, now)
}

// Audit verifies that NI queues plus link occupancy account for every
// in-flight packet (Surf-Bless routers hold no state between cycles).
func (f *Fabric) Audit() error {
	n := f.Backlog()
	for _, nd := range f.nodes {
		for _, l := range nd.out {
			if l != nil {
				n += l.InFlight()
			}
		}
	}
	if n != f.InFlight() {
		return fmt.Errorf("surfbless: %d packets in queues+links, %d in flight", n, f.InFlight())
	}
	return nil
}

var _ network.Fabric = (*Fabric)(nil)
