// Package traffic provides the open-loop synthetic workload generators
// of §5.1: per-node, per-domain Bernoulli injection processes over the
// classic patterns of Dally & Towles [12].  The paper's experiments use
// uniform random traffic; the other patterns are provided for the
// confinement stress tests and ablations.
//
// Determinism contract: each (node, domain) pair owns an independent
// RNG stream and an independent packet-ID sequence, so the complete
// packet population of one domain — IDs, creation times, destinations —
// is bit-identical regardless of what any other domain does.  The
// headline non-interference test relies on this.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
)

// Pattern selects the destination distribution.
type Pattern int

// Destination patterns.
const (
	// UniformRandom sends each packet to a destination drawn uniformly
	// from all other nodes (the paper's pattern).
	UniformRandom Pattern = iota
	// Transpose sends (x,y) → (y,x); diagonal nodes generate nothing.
	Transpose
	// BitComplement sends node i → (N−1)−i.
	BitComplement
	// Hotspot sends 20% of packets to node 0 and the rest uniformly.
	Hotspot
	// Corner sends packets from node (0,0) to the opposite corner
	// (W−1,H−1); every other node generates nothing.  The single
	// deterministic flow makes it the zero-contention scenario the
	// wcta conformance oracle uses to check bound tightness.
	Corner
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bitcomp"
	case Hotspot:
		return "hotspot"
	case Corner:
		return "corner"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

const hotspotFraction = 0.2

// Source describes one domain's injection process.
//
// Burst and OnOff select regulated variants whose offered load obeys a
// token-bucket arrival curve — the property the analytical worst-case
// engine (internal/wcta) needs to bound in-flight populations.  Both
// fields serialize with omitempty so the zero value (plain Bernoulli)
// keeps pre-existing cache fingerprints byte-identical.
type Source struct {
	Rate  float64      // packets/node/cycle, Bernoulli per node per cycle
	Class packet.Class // packet class injected by this domain
	VNet  int          // virtual network stamped on packets; -1 if unused

	// Burst, when ≥1, regulates the stream with a per-(node,domain)
	// token bucket of that depth refilled at Rate tokens/cycle: every
	// window of τ cycles offers at most Burst + ⌊Rate·τ⌋ packets.
	// 0 leaves the stream an unregulated Bernoulli process.
	Burst int `json:",omitempty"`
	// OnOff, with Burst ≥1, switches the regulated stream from
	// Bernoulli-thinned to greedy: the stream emits whenever a full
	// token is available, producing back-to-back bursts of Burst
	// packets separated by ≈Burst/Rate idle cycles.  Ignored when
	// Burst is 0.
	OnOff bool `json:",omitempty"`
}

// EvenSplit returns the sources of a synthetic sweep point: domains
// unregulated control-class streams that share rate equally, each
// offering rate/domains packets/node/cycle on no virtual network.
func EvenSplit(rate float64, domains int) []Source {
	ss := make([]Source, domains)
	for i := range ss {
		ss[i] = Source{Rate: rate / float64(domains), Class: packet.Ctrl, VNet: -1}
	}
	return ss
}

// Look-ahead bounds.  A stream draws ahead in one burst until it holds
// depth pending offers or has covered horizon ticks, whichever comes
// first; so a run's last burst draws at most horizon ticks past its
// last Tick.
const (
	depth   = 8
	horizon = 256
)

// never is the due tick of a stream that offers nothing.
const never = math.MaxInt64

// Generator drives one fabric with per-domain Bernoulli traffic.
//
// Each (node, domain) stream draws its random sequence ahead of time:
// when it runs dry it simulates its next ticks in one burst — the
// token-bucket refill, the Bernoulli draw and the destination draw,
// tick by tick, exactly as a per-tick sweep would — and buffers the
// offers it finds.  Streams are independent and the draws of one
// stream happen in the same order either way, so look-ahead changes
// when a draw is made but never what it returns.  Tick then only
// scans the dense due-tick slice and touches the streams that offer
// this tick; a burst keeps each stream's generator state hot instead
// of pulling all of it through the cache every cycle.
type Generator struct {
	mesh    geom.Mesh
	pattern Pattern
	sources []Source
	streams []stream // [node*len(sources)+domain]
	due     []int64  // [node*len(sources)+domain] tick of the stream's next event
	ticks   int64    // Tick calls so far
	fl      *packet.FreeList
}

// stream is one (node, domain) injection process.  Ticks are counted
// in Tick calls; the cycle number only stamps CreatedAt.
type stream struct {
	rng    *rand.Rand
	tokens float64 // token-bucket fill (Burst ≥1 streams)
	ahead  int64   // ticks drawn so far
	seq    uint64  // offers emitted so far: the packet sequence

	// pend[next:count] are the drawn but not yet emitted offers, in
	// tick order.
	pend        [depth]offer
	next, count int32
}

// offer is one drawn packet: the tick that emits it and its
// destination node.
type offer struct {
	tick int64
	dst  int32
}

// New returns a generator for the given mesh and per-domain sources.
// Seed fixes every stream; equal seeds give bit-identical populations.
// New only seeds the streams; the first draws happen in the first Tick.
func New(mesh geom.Mesh, pattern Pattern, sources []Source, seed int64) *Generator {
	if len(sources) == 0 {
		panic("traffic: no sources")
	}
	for d, s := range sources {
		if s.Rate < 0 || s.Rate > 1 {
			panic(fmt.Sprintf("traffic: domain %d rate %g outside [0,1]", d, s.Rate))
		}
		if s.Burst < 0 {
			panic(fmt.Sprintf("traffic: domain %d burst %d negative", d, s.Burst))
		}
	}
	nd := len(sources)
	g := &Generator{
		mesh:    mesh,
		pattern: pattern,
		sources: sources,
		streams: make([]stream, mesh.Nodes()*nd),
		due:     make([]int64, mesh.Nodes()*nd),
	}
	for n := 0; n < mesh.Nodes(); n++ {
		_, silent := pattern.FixedDestination(mesh, n)
		for d, s := range sources {
			i := n*nd + d
			// A stream that can never offer — rate 0, or a pattern that
			// gives its node no destination — has no observable draws.
			if s.Rate == 0 || silent {
				g.due[i] = never
				continue
			}
			// Mix (seed, node, domain) so streams are independent.
			st := &g.streams[i]
			st.rng = rand.New(rand.NewSource(int64(mix(uint64(seed), uint64(n)<<20|uint64(d)))))
			// Regulated buckets start full, so the very first window
			// already honours the Burst + ⌊Rate·τ⌋ curve.
			st.tokens = float64(s.Burst)
		}
	}
	return g
}

func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// PacketID encodes (node, domain, seq) so that a stream's IDs do not
// depend on any other stream's activity.
func PacketID(node, domain int, seq uint64) uint64 {
	return uint64(node)<<48 | uint64(domain)<<40 | seq
}

// Tick generates this cycle's offers for every node and domain and
// injects them into the fabric, in (node, domain) order.  Offers
// refused by a full NI queue are dropped (open-loop load); the fabric
// records them as refused.
func (g *Generator) Tick(f network.Fabric, now int64) {
	t := g.ticks
	g.ticks++
	nd := len(g.sources)
	for i, due := range g.due {
		if due != t {
			continue
		}
		s, node, dom := &g.streams[i], i/nd, i%nd
		if s.next == s.count {
			g.lookAhead(s, node, dom)
		}
		if s.next < s.count && s.pend[s.next].tick == t {
			g.emit(f, s, node, dom, int(s.pend[s.next].dst), now)
			s.next++
		}
		if s.next < s.count {
			g.due[i] = s.pend[s.next].tick
		} else {
			g.due[i] = s.ahead
		}
	}
}

// lookAhead refills an empty stream: it draws the stream's next ticks
// until depth offers are pending or horizon ticks are drawn.
func (g *Generator) lookAhead(s *stream, node, dom int) {
	src := g.sources[dom]
	rng := s.rng
	burst := float64(src.Burst)
	k, end, n := s.ahead, s.ahead+horizon, int32(0)
	for ; k < end && n < depth; k++ {
		if src.Burst > 0 {
			// Token-bucket regulation: refill at Rate/cycle up to
			// Burst, emit only on a full token.  The Bernoulli draw
			// still thins emissions unless the stream is greedy
			// (OnOff), so arrivals in any τ-cycle window never
			// exceed Burst + ⌊Rate·τ⌋ either way.
			if s.tokens < burst {
				s.tokens += src.Rate
				if s.tokens > burst {
					s.tokens = burst
				}
			}
			if s.tokens < 1 {
				continue
			}
			if !src.OnOff && rng.Float64() >= src.Rate {
				continue
			}
			s.tokens--
		} else if rng.Float64() >= src.Rate {
			continue
		}
		s.pend[n] = offer{tick: k, dst: int32(g.destination(node, rng))}
		n++
	}
	s.ahead, s.next, s.count = k, 0, n
}

// emit injects one drawn offer of stream (node, dom) as the stream's
// next packet.
func (g *Generator) emit(f network.Fabric, s *stream, node, dom, dst int, now int64) {
	src := g.sources[dom]
	id := PacketID(node, dom, s.seq)
	from, to := g.mesh.CoordOf(node), g.mesh.CoordOf(dst)
	var p *packet.Packet
	if g.fl != nil {
		p = g.fl.New(id, from, to, dom, src.Class, now)
	} else {
		p = packet.New(id, from, to, dom, src.Class, now)
	}
	s.seq++
	p.VNet = src.VNet
	f.Inject(node, p, now)
}

// destination draws the destination node of an offer from node.  Only
// the random patterns draw; the others have a fixed destination, and
// New silences streams without one.
func (g *Generator) destination(node int, rng *rand.Rand) int {
	switch g.pattern {
	case Transpose, BitComplement, Corner:
		dst, _ := g.pattern.FixedDestination(g.mesh, node)
		return dst
	case Hotspot:
		if rng.Float64() < hotspotFraction && node != 0 {
			return 0
		}
	}
	// Uniform over the other nodes (UniformRandom, and the rest of
	// Hotspot's draws).
	d := rng.Intn(g.mesh.Nodes() - 1)
	if d >= node {
		d++
	}
	return d
}

// FixedDestination returns the destination the deterministic patterns
// give node on mesh; silent reports a node the pattern gives none
// (transpose diagonal, the corner pattern off node 0).  Random patterns
// have no fixed destination and report (-1, false).
func (p Pattern) FixedDestination(mesh geom.Mesh, node int) (dst int, silent bool) {
	src := mesh.CoordOf(node)
	switch p {
	case Transpose:
		to := geom.Coord{X: src.Y, Y: src.X}
		if to == src || !mesh.Contains(to) {
			return -1, true
		}
		return mesh.ID(to), false
	case BitComplement:
		dst = mesh.Nodes() - 1 - node
		return dst, dst == node
	case Corner:
		if node != 0 {
			return -1, true
		}
		return mesh.ID(geom.Coord{X: mesh.Width - 1, Y: mesh.Height - 1}), false
	}
	return -1, false
}

// SetFreeList makes Tick draw packets from fl instead of the heap (nil
// restores plain allocation).  Recycling is observably equivalent to
// fresh allocation — FreeList.New resets every field — so the packet
// population is bit-identical either way.
func (g *Generator) SetFreeList(fl *packet.FreeList) { g.fl = fl }

// Offered returns how many packets the (node, domain) stream has
// generated so far.
func (g *Generator) Offered(node, domain int) uint64 {
	return g.streams[node*len(g.sources)+domain].seq
}
