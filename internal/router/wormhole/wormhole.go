// Package wormhole implements the flit-level virtual-channel router
// engine used by both VC-based comparators of §5:
//
//   - WH — the baseline wormhole network (4-stage pipeline, X-Y DOR,
//     credit-based flow control, Table-1 VC complement), and
//   - Surf — the SurfNoC-style confined-interference network [2],
//     realized by package surf as this engine with per-domain VCs and
//     wave-gated output ports (see Options.WaveGated).
//
// Modelling granularity matches Garnet: packets move flit by flit;
// a head flit performs route computation and VC allocation, every flit
// competes in switch allocation and consumes a credit, and the tail
// flit releases the VC.  The 4-stage router pipeline plus link
// traversal are folded into the hop delay of the flit delay lines
// (Table 1: P = 5 for the VC networks), so a flit that never waits in a
// VC experiences exactly P cycles per hop — which is what lets Surf
// packets "surf" their waves with zero slot-waiting in the steady
// direction.
//
// State layout is structure-of-arrays (DESIGN.md §17): each router
// keeps its VC FIFOs in one flat ring-buffer backing, credits and VC
// ownership in dense arrays indexed by (link dir, VC), and the
// per-cycle scan sets — which VCs hold a routable head, which VCs want
// each output — as bitmasks.  Allocation and switch arbitration then
// walk a handful of mask words per router instead of every VC struct,
// while visiting candidates in exactly the (dir, VC) order of the
// reference implementation, so arbitration outcomes are bit-identical.
//
// The engine is a router.Kernel: it supplies the per-node receive and
// allocate/traverse functions and their two tile roots, and the kernel
// steps them serially or sharded across node tiles with bit-identical
// results (SetShards; DESIGN.md §17).
//
// Faults (SetFaults) manifest as blocking, not drops: a buffered
// credit-flow network cannot lose flits, so a frozen router holds its
// buffers and grants nothing (credit starvation then stalls its
// neighbors), and a down link simply wins no switch allocation.
// Packet-drop (corruption) events are not modeled for WH/Surf —
// retransmitting part of a worm would need an end-to-end protocol the
// paper's comparators don't have; a permanent fault on a used route
// therefore wedges the network by design, which the sim-level watchdog
// converts into a DegradedError.  VC routers never deflect, so a
// probe's (SetProbe) deflection heatmap stays zero for WH and Surf.
package wormhole

import (
	"fmt"
	"math/bits"

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

// VCSpec describes one virtual channel of every input port.
type VCSpec struct {
	Depth int // buffer depth in flits
	Group int // match key (VNet or domain); -1 admits any packet
}

// Key selects what packet field VC groups and NI queues match against.
type Key int

// Matching policies.
const (
	KeyNone   Key = iota // any packet may use any VC (synthetic WH)
	KeyVNet              // VC group must equal the packet's virtual network (protocol WH)
	KeyDomain            // VC group must equal the packet's domain (Surf)
)

// Options configures one engine instance.
type Options struct {
	Cfg config.Config
	VCs []VCSpec // the VC complement of every non-local input port
	Key Key

	// WaveGated enables Surf's TDM: a flit may cross output port o at
	// cycle T only when the wave owning o at T decodes to the flit's
	// domain.  Requires Sched and Dec.
	WaveGated bool
	Sched     *wave.Schedule
	Dec       *wave.Decoder
}

// SharedVCs returns the Table-1 VC complement with every VC open to
// every packet (the synthetic-traffic WH configuration).
func SharedVCs(cfg config.Config) []VCSpec {
	return vcComplement(cfg, -1, -1)
}

// VNetVCs returns the Table-1 complement with control VCs bound to the
// control virtual networks and data VCs to the data virtual networks
// (vnet 0 … ctrl first, then data), the protocol WH configuration.
func VNetVCs(cfg config.Config) []VCSpec {
	var specs []VCSpec
	g := 0
	for i := 0; i < cfg.CtrlVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.CtrlVCDepth, Group: g})
		g++
	}
	for i := 0; i < cfg.DataVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.DataVCDepth, Group: g})
		g++
	}
	return specs
}

// DomainVCs replicates the configured VC complement once per domain,
// binding each copy to its domain — Surf's buffer organization, whose
// 5-ports-×-D-domains growth is the static-energy story of Fig. 6.
func DomainVCs(cfg config.Config) []VCSpec {
	var specs []VCSpec
	for d := 0; d < cfg.Domains; d++ {
		specs = append(specs, vcComplement(cfg, d, d)...)
	}
	return specs
}

func vcComplement(cfg config.Config, ctrlGroup, dataGroup int) []VCSpec {
	var specs []VCSpec
	for i := 0; i < cfg.CtrlVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.CtrlVCDepth, Group: ctrlGroup})
	}
	for i := 0; i < cfg.DataVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.DataVCDepth, Group: dataGroup})
	}
	return specs
}

type flitMsg struct {
	f  packet.Flit
	vc int
}

type creditMsg struct {
	vc int
}

type inPort struct {
	flitsIn   *link.Line[flitMsg]   // nil for absent ports
	creditOut *link.Line[creditMsg] // credits back upstream
}

type outPort struct {
	flitsOut *link.Line[flitMsg]   // nil for Local and absent ports
	creditIn *link.Line[creditMsg] // credits from downstream
}

type injState struct {
	active bool
	outDir geom.Dir
	outVC  int
	sent   int
}

// node is one router.  All per-VC state lives in flat arrays indexed
// pv = dir·V + vc over the four link dirs (Local has no input VCs):
//
//	fifo     one ring-buffer backing for all input VC FIFOs; the FIFO
//	         of (d, v) occupies fifo[d·sumDepth+off[v] : … + depth[v]]
//	         with head/cnt cursors in head[pv]/cnt[pv]
//	outVC    downstream VC granted to the worm holding input VC pv
//	credits  free downstream buffer slots, indexed outDir·V + vc
//	owner    downstream VC holder (nil = allocatable), same index
//
// The scan sets are bitmasks with one bit per input VC, laid out
// dir-major ((V+63)/64 words per dir, ascending word order = ascending
// (dir, VC) order): act marks VCs held by a routed worm, occ marks
// non-empty FIFOs, and want has one block per output dir marking the
// active VCs routed to it.  occ &^ act is exactly the allocation scan;
// want[o] & occ is exactly output o's switch-allocation candidates.
type node struct {
	c  geom.Coord
	id int
	ni *router.NI

	inj       []injState
	injActive int // live injState count; skips the arbitration fallback scan

	in  [geom.NumDirs]inPort // Local unused (injection is the NI)
	out [geom.NumDirs]outPort

	fifo    []packet.Flit
	head    []int32
	cnt     []int32
	outVC   []int32
	credits []int32
	owner   []*packet.Packet

	act  []uint64
	occ  []uint64
	want []uint64 // geom.NumDirs blocks of wper words

	// Bandwidth-lane consumption, stamped with the cycle instead of
	// cleared: lane l of port d is used this cycle iff
	// inUsed[d·lanes+l] == now, so no per-cycle reset loop runs.
	inUsed  []int64 // [port·lanes+lane]: input bandwidth consumed
	injUsed []int64 // [lane]: injection bandwidth consumed

	// Per-cycle scratch, node-owned and reused across cycles
	// (DESIGN.md §12).
	credBuf []creditMsg
	flitBuf []flitMsg
	reqs    []request
	domReqs [][]request // per-domain ejection candidates (lanes > 1 only)
	domList []int       // domains present this arbitration, in arrival order
}

// Engine is a mesh of VC routers.  It implements network.Fabric.
type Engine struct {
	router.Kernel
	opt   Options
	nodes []*node
	lanes int // input-port bandwidth lanes (1, or #domains when wave-gated)

	// SoA geometry shared by every node.
	nvc      int     // V: VCs per input port
	words    int     // mask words per dir, (V+63)/64
	wper     int     // mask words per scan set, NumLinkDirs·words
	sumDepth int     // flit slots per input port
	depth    []int32 // per-VC ring capacity
	vcOff    []int   // per-VC slot offset within a port's backing
}

// New builds the engine.  The caller provides the VC layout and gating;
// use package surf for the Surf configuration or SharedVCs/VNetVCs here
// for WH.
func New(opt Options, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Engine, error) {
	cfg := opt.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.WH && cfg.Model != config.Surf {
		return nil, fmt.Errorf("wormhole: config model is %v", cfg.Model)
	}
	if len(opt.VCs) == 0 {
		return nil, fmt.Errorf("wormhole: no VCs specified")
	}
	for i, s := range opt.VCs {
		if s.Depth < 1 {
			return nil, fmt.Errorf("wormhole: VC %d depth %d", i, s.Depth)
		}
	}
	if opt.WaveGated && (opt.Sched == nil || opt.Dec == nil) {
		return nil, fmt.Errorf("wormhole: wave gating requires a schedule and decoder")
	}

	e := &Engine{opt: opt, lanes: 1}
	var err error
	if e.Kernel, err = router.NewKernel(cfg, sink, col, meter, e.recvTile, e.moveTile); err != nil {
		return nil, err
	}
	if opt.WaveGated {
		// Per-domain input bandwidth removes cross-domain contention at
		// input ports; output TDM already bounds aggregate switch use.
		// See DESIGN.md §2 (modelling conventions for Surf).
		e.lanes = cfg.Domains
	}
	e.nvc = len(opt.VCs)
	e.words = (e.nvc + 63) / 64
	e.wper = geom.NumLinkDirs * e.words
	e.depth = make([]int32, e.nvc)
	e.vcOff = make([]int, e.nvc)
	for v, s := range opt.VCs {
		e.depth[v] = int32(s.Depth)
		e.vcOff[v] = e.sumDepth
		e.sumDepth += s.Depth
	}
	e.nodes = make([]*node, e.Mesh.Nodes())
	for id := range e.nodes {
		n := &node{
			c:       e.Mesh.CoordOf(id),
			id:      id,
			ni:      e.NIs[id],
			inj:     make([]injState, cfg.Domains),
			fifo:    make([]packet.Flit, geom.NumLinkDirs*e.sumDepth),
			head:    make([]int32, geom.NumLinkDirs*e.nvc),
			cnt:     make([]int32, geom.NumLinkDirs*e.nvc),
			outVC:   make([]int32, geom.NumLinkDirs*e.nvc),
			credits: make([]int32, geom.NumLinkDirs*e.nvc),
			owner:   make([]*packet.Packet, geom.NumLinkDirs*e.nvc),
			act:     make([]uint64, e.wper),
			occ:     make([]uint64, e.wper),
			want:    make([]uint64, geom.NumDirs*e.wper),
		}
		n.inUsed = make([]int64, geom.NumDirs*e.lanes)
		n.injUsed = make([]int64, e.lanes)
		for i := range n.inUsed {
			n.inUsed[i] = -1 // cycle 0 must not read as "used"
		}
		for i := range n.injUsed {
			n.injUsed[i] = -1
		}
		if e.lanes > 1 {
			n.domReqs = make([][]request, cfg.Domains)
		}
		e.nodes[id] = n
	}
	// Wire flit and credit lines, and initialize per-output credit state
	// mirroring the downstream VC layout.
	hop := cfg.HopDelay()
	for _, n := range e.nodes {
		for _, d := range geom.LinkDirs {
			if !e.Mesh.HasNeighbor(n.c, d) {
				continue
			}
			peer := e.nodes[e.Mesh.ID(n.c.Add(d))]
			fl := link.New[flitMsg](hop)
			cl := link.New[creditMsg](1)
			n.out[d].flitsOut = fl
			n.out[d].creditIn = cl
			for v, s := range opt.VCs {
				n.credits[int(d)*e.nvc+v] = int32(s.Depth)
			}
			peer.in[d.Opposite()].flitsIn = fl
			peer.in[d.Opposite()].creditOut = cl
		}
	}
	return e, nil
}

// key returns the packet field VC groups match against.
func (e *Engine) key(p *packet.Packet) int {
	switch e.opt.Key {
	case KeyVNet:
		return p.VNet
	case KeyDomain:
		return p.Domain
	default:
		return -1
	}
}

func (e *Engine) vcAdmits(spec VCSpec, p *packet.Packet) bool {
	return spec.Group < 0 || e.opt.Key == KeyNone || spec.Group == e.key(p)
}

// gate reports whether a flit of p may cross output o of router c at
// cycle now (always true unless wave-gated).  The Local (ejection)
// port is never gated: the NI's per-domain sinks are not a shared mesh
// resource, and arbitrateOutput gives Local one grant lane per domain,
// so ungated ejection cannot couple domains.
func (e *Engine) gate(c geom.Coord, o geom.Dir, p *packet.Packet, now int64) bool {
	if !e.opt.WaveGated || o == geom.Local {
		return true
	}
	w := e.opt.Sched.OutputWave(c, o, now)
	return e.opt.Dec.Domain(w) == p.Domain
}

// lane returns the input-bandwidth lane a packet uses at an input port.
func (e *Engine) lane(p *packet.Packet) int {
	if e.lanes == 1 {
		return 0
	}
	return p.Domain
}

// Inject offers p to the node's NI.
func (e *Engine) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Domain < 0 || p.Domain >= e.opt.Cfg.Domains {
		panic(fmt.Sprintf("wormhole: %v has domain outside [0,%d)", p, e.opt.Cfg.Domains))
	}
	if e.opt.Key == KeyVNet && p.VNet < 0 {
		panic(fmt.Sprintf("wormhole: %v has no virtual network in KeyVNet mode", p))
	}
	return e.Offer(nodeID, p, now)
}

// recvTile drains one tile's inbound link lines into router FIFOs.
//
//shard:phase(receive)
func (e *Engine) recvTile(t int) {
	lo, hi := shard.Range(len(e.nodes), len(e.FX), t)
	fx := &e.FX[t]
	for _, n := range e.nodes[lo:hi] {
		e.receive(n, e.Now, fx)
	}
}

// moveTile allocates, switches, and forwards one tile's routers.
//
//shard:phase(resolve)
func (e *Engine) moveTile(t int) {
	lo, hi := shard.Range(len(e.nodes), len(e.FX), t)
	fx := &e.FX[t]
	for _, n := range e.nodes[lo:hi] {
		// A frozen router still receives (upstream credits bound what can
		// arrive) but allocates and grants nothing until it thaws.
		if e.Faults != nil && e.Faults.Frozen(n.id, e.Now) {
			continue
		}
		e.allocate(n, e.Now, fx)
		e.switchTraversal(n, e.Now, fx)
	}
}

// receive drains credit and flit lines into router state.
func (e *Engine) receive(n *node, now int64, fx *router.FX) {
	for _, d := range geom.LinkDirs {
		if cl := n.out[d].creditIn; cl != nil && !cl.Idle() {
			n.credBuf = cl.RecvInto(now, n.credBuf[:0])
			for _, m := range n.credBuf {
				cr := &n.credits[int(d)*e.nvc+m.vc]
				*cr++
				if *cr > e.depth[m.vc] {
					//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
					panic(fmt.Sprintf("wormhole: credit overflow at %v/%v vc %d", n.c, d, m.vc))
				}
			}
		}
		if fl := n.in[d].flitsIn; fl != nil && !fl.Idle() {
			n.flitBuf = fl.RecvInto(now, n.flitBuf[:0])
			for _, m := range n.flitBuf {
				pv := int(d)*e.nvc + m.vc
				dep := e.depth[m.vc]
				if n.cnt[pv] >= dep {
					//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
					panic(fmt.Sprintf("wormhole: buffer overflow at %v/%v vc %d", n.c, d, m.vc))
				}
				slot := int(n.head[pv]) + int(n.cnt[pv])
				if slot >= int(dep) {
					slot -= int(dep)
				}
				n.fifo[int(d)*e.sumDepth+e.vcOff[m.vc]+slot] = m.f
				n.cnt[pv]++
				n.occ[int(d)*e.words+m.vc>>6] |= 1 << uint(m.vc&63)
				e.BufferWrite(fx, 1)
			}
		}
	}
}

// vcHead returns the flit at the front of input VC pv.
func (e *Engine) vcHead(n *node, d geom.Dir, v int) packet.Flit {
	pv := int(d)*e.nvc + v
	return n.fifo[int(d)*e.sumDepth+e.vcOff[v]+int(n.head[pv])]
}

// allocate performs route computation and downstream-VC allocation for
// every head flit at the front of an idle VC, and for NI head packets.
// The scan walks occ &^ act — exactly the idle non-empty VCs — in
// ascending (dir, VC) order, matching the reference nested loop.
func (e *Engine) allocate(n *node, now int64, fx *router.FX) {
	for wi := 0; wi < e.wper; wi++ {
		m := n.occ[wi] &^ n.act[wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			d := geom.Dir(wi / e.words)
			v := (wi%e.words)*64 + b
			head := e.vcHead(n, d, v)
			if !head.Head() {
				//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
				panic(fmt.Sprintf("wormhole: body flit of %v at idle VC head (%v/%v vc %d)", head.Pkt, n.c, d, v))
			}
			if o, ovc, ok := e.routeClaim(n, head.Pkt, fx); ok {
				pv := int(d)*e.nvc + v
				bit := uint64(1) << uint(v&63)
				n.act[wi] |= bit
				n.want[int(o)*e.wper+wi] |= bit
				n.outVC[pv] = int32(ovc)
			}
		}
	}
	for dom := range n.inj {
		st := &n.inj[dom]
		if st.active {
			continue
		}
		p := n.ni.Head(dom)
		if p == nil {
			continue
		}
		st.sent = 0
		if o, ovc, ok := e.routeClaim(n, p, fx); ok {
			st.active, st.outDir, st.outVC = true, o, ovc
			n.injActive++
		}
	}
}

// routeClaim routes p and claims a downstream VC; on success it
// returns the output dir and downstream VC (-1 for Local).
func (e *Engine) routeClaim(n *node, p *packet.Packet, fx *router.FX) (geom.Dir, int, bool) {
	d := geom.XYFirst(n.c, p.Dst)
	if d == geom.Local {
		e.Alloc(fx)
		return geom.Local, -1, true
	}
	if n.out[d].flitsOut == nil {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("wormhole: X-Y route of %v leaves the mesh at %v", p, n.c))
	}
	// Prefer a VC deep enough to hold the whole packet — parking a
	// 5-flit worm in a 1-flit control VC would throttle it to one flit
	// per credit round-trip.  Fall back to any admitting VC.
	base := int(d) * e.nvc
	pick := -1
	for v, s := range e.opt.VCs {
		if n.owner[base+v] != nil || !e.vcAdmits(s, p) {
			continue
		}
		if s.Depth >= p.Size {
			pick = v
			break
		}
		if pick < 0 {
			pick = v
		}
	}
	if pick < 0 {
		return 0, 0, false
	}
	n.owner[base+pick] = p
	e.Alloc(fx)
	return d, pick, true
}

// switchTraversal arbitrates each output port and moves winning flits.
func (e *Engine) switchTraversal(n *node, now int64, fx *router.FX) {
	// Idle fast path: with every input FIFO empty there are no VC
	// candidates (arbitration needs want ∧ occ), and with no active
	// injection worm there are no NI candidates either — nothing can be
	// granted, so skip the per-output scans entirely.
	occAny := uint64(0)
	for _, w := range n.occ {
		occAny |= w
	}
	if occAny == 0 && n.injActive == 0 {
		return
	}

	for _, o := range geom.OutputDirs {
		if o != geom.Local && n.out[o].flitsOut == nil {
			continue
		}
		// A killed output link wins no allocation: flits wait in their
		// VCs and credit backpressure spreads the stall upstream.
		if o != geom.Local && e.Faults != nil && e.Faults.LinkDown(n.id, o, now) {
			continue
		}
		e.arbitrateOutput(n, o, now, fx)
	}
}

// request is one switch-allocation candidate.
type request struct {
	fromInj bool
	port    geom.Dir // input port (ignored for injection)
	vc      int      // input VC index (or NI domain for injection)
}

func (e *Engine) arbitrateOutput(n *node, o geom.Dir, now int64, fx *router.FX) {
	reqs := n.reqs[:0]
	base := int(o) * e.wper
	for wi := 0; wi < e.wper; wi++ {
		m := n.want[base+wi] & n.occ[wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			d := geom.Dir(wi / e.words)
			v := (wi%e.words)*64 + b
			p := e.vcHead(n, d, v).Pkt
			if n.inUsed[int(d)*e.lanes+e.lane(p)] == now || !e.gate(n.c, o, p, now) {
				continue
			}
			if o != geom.Local && n.credits[int(o)*e.nvc+int(n.outVC[int(d)*e.nvc+v])] == 0 {
				continue
			}
			reqs = append(reqs, request{port: d, vc: v})
		}
	}
	// In-network flits outrank injection (injection has the lowest
	// priority); consider NI candidates only when no VC wants o.
	if len(reqs) == 0 && n.injActive > 0 {
		for dom := range n.inj {
			st := &n.inj[dom]
			if !st.active || st.outDir != o {
				continue
			}
			p := n.ni.Head(dom)
			if p == nil {
				//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
				panic(fmt.Sprintf("wormhole: injection state active with empty queue (%v dom %d)", n.c, dom))
			}
			if n.injUsed[e.lane(p)] == now || !e.gate(n.c, o, p, now) {
				continue
			}
			if o != geom.Local && n.credits[int(o)*e.nvc+st.outVC] == 0 {
				continue
			}
			reqs = append(reqs, request{fromInj: true, vc: dom})
		}
	}
	n.reqs = reqs // hand the (possibly grown) scratch back to the node
	if len(reqs) == 0 {
		return
	}
	if o == geom.Local && e.lanes > 1 {
		// Ungated ejection with one grant lane per domain: pick at most
		// one flit per domain, rotating within each domain's candidates
		// so the choice never depends on other domains' presence.  The
		// per-domain buckets are pre-sized scratch (a map here would
		// allocate on every ejection-contended cycle).
		doms := n.domList[:0]
		for _, r := range reqs {
			d := e.reqPacket(n, r).Domain
			if len(n.domReqs[d]) == 0 {
				doms = append(doms, d)
			}
			n.domReqs[d] = append(n.domReqs[d], r)
		}
		n.domList = doms
		for _, d := range doms {
			cand := n.domReqs[d]
			e.grant(n, o, cand[int(now%int64(len(cand)))], now, fx)
			n.domReqs[d] = cand[:0]
		}
		return
	}
	// One grant per output per cycle, rotating priority for fairness.
	// Under wave gating all candidates belong to the wave's one domain,
	// so the shared rotation cannot couple domains.
	e.grant(n, o, reqs[int(now%int64(len(reqs)))], now, fx)
}

// reqPacket returns the packet a request would move.
func (e *Engine) reqPacket(n *node, r request) *packet.Packet {
	if r.fromInj {
		return n.ni.Head(r.vc)
	}
	return e.vcHead(n, r.port, r.vc).Pkt
}

// grant moves one flit of request r through output o.
func (e *Engine) grant(n *node, o geom.Dir, r request, now int64, fx *router.FX) {
	var f packet.Flit
	var outVC int
	if r.fromInj {
		st := &n.inj[r.vc]
		p := n.ni.Head(r.vc)
		f = packet.Flit{Pkt: p, Seq: st.sent}
		outVC = st.outVC
		if f.Head() {
			e.Injected(fx, p, now)
		}
		st.sent++
		e.BufferRead(fx, 1)
		e.FlitIn(fx)
		n.injUsed[e.lane(p)] = now
		if f.Tail() {
			n.ni.Pop(r.vc)
			st.active = false
			n.injActive--
		}
	} else {
		pv := int(r.port)*e.nvc + r.vc
		dep := e.depth[r.vc]
		slot := int(r.port)*e.sumDepth + e.vcOff[r.vc] + int(n.head[pv])
		f = n.fifo[slot]
		outVC = int(n.outVC[pv])
		n.fifo[slot] = packet.Flit{} // unpin the forwarded flit's packet
		h := n.head[pv] + 1
		if h == dep {
			h = 0
		}
		n.head[pv] = h
		n.cnt[pv]--
		wi := int(r.port)*e.words + r.vc>>6
		bit := uint64(1) << uint(r.vc&63)
		if n.cnt[pv] == 0 {
			n.occ[wi] &^= bit
		}
		e.BufferRead(fx, 1)
		n.in[r.port].creditOut.Send(creditMsg{vc: r.vc}, now)
		n.inUsed[int(r.port)*e.lanes+e.lane(f.Pkt)] = now
		if f.Tail() {
			n.act[wi] &^= bit
			n.want[int(o)*e.wper+wi] &^= bit
		}
	}
	e.Crossbar(fx, 1)

	if o == geom.Local {
		e.FlitOut(fx)
		if f.Tail() {
			p := f.Pkt
			p.Hops = e.Mesh.Hops(p.Src, p.Dst)
			e.Ejected(fx, n.id, p, now)
		}
		return
	}

	n.credits[int(o)*e.nvc+outVC]--
	e.Link(fx, 1)
	e.Traverse(n.id, o, f.Pkt, 1, false, now)
	n.out[o].flitsOut.Send(flitMsg{f: f, vc: outVC}, now)
	if f.Tail() {
		n.owner[int(o)*e.nvc+outVC] = nil
	}
}

// Audit verifies flit conservation: flits buffered in VCs plus flits on
// links must equal flits injected minus flits ejected, and NI queues
// plus partially/fully buffered packets must equal InFlight.
func (e *Engine) Audit() error {
	buffered := int64(0)
	for _, n := range e.nodes {
		for _, c := range n.cnt {
			buffered += int64(c)
		}
		for d := geom.Dir(0); d < geom.NumDirs; d++ {
			if fl := n.in[d].flitsIn; fl != nil {
				buffered += int64(fl.InFlight())
			}
		}
	}
	if got := e.Flits(); got != buffered {
		return fmt.Errorf("wormhole: %d flits in network, %d buffered+in-flight", got, buffered)
	}
	// Packet-level: every in-flight packet is either still (partially)
	// in an NI queue or fully inside the network awaiting ejection.
	if queued := e.Backlog(); queued > e.InFlight() {
		return fmt.Errorf("wormhole: %d packets queued exceeds %d in flight", queued, e.InFlight())
	}
	return nil
}

var _ network.Fabric = (*Engine)(nil)
