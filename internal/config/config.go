// Package config holds every simulation parameter of the reproduction.
// The defaults mirror Table 1 of the paper: an 8×8 mesh, 2-stage
// bufferless / 4-stage virtual-channel router pipelines, one 1-flit
// control VC plus two 5-flit data VCs per port for the wormhole
// baseline, 128-bit links, a two-level MESI hierarchy with four corner
// memory controllers.
package config

import (
	"errors"
	"fmt"
	"strings"

	"surfbless/internal/fault"
	"surfbless/internal/geom"
	"surfbless/internal/wave"
)

// Model selects which router microarchitecture the network instantiates.
type Model int

// The four networks compared in the paper's evaluation (§5).
const (
	// WH is the baseline wormhole virtual-channel network.  It does not
	// support confined-interference communication.
	WH Model = iota
	// BLESS is the baseline bufferless deflection network [9].  It does
	// not support confined-interference communication.
	BLESS
	// Surf is the SurfNoC-style confined-interference network [2]:
	// per-domain VCs at every input port plus wave-scheduled links.
	Surf
	// SB is Surf-Bless: confined-interference communication on a
	// bufferless network (this paper's contribution).
	SB
	// CHIPPER is the low-complexity bufferless deflection router of
	// Fallin et al. [10] (permutation deflection network, golden-packet
	// livelock freedom).  It is an extension of this reproduction — the
	// paper discusses it as related work but does not evaluate it.
	CHIPPER
	// RUNAHEAD is the dropping single-cycle bufferless network of Li et
	// al. [11], another related-work extension; lost packets are
	// recovered by source retransmission (see package runahead).
	RUNAHEAD
)

var modelNames = map[Model]string{
	WH: "WH", BLESS: "BLESS", Surf: "Surf", SB: "SB",
	CHIPPER: "CHIPPER", RUNAHEAD: "RUNAHEAD",
}

// String returns the paper's abbreviation for the model.
func (m Model) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// ParseModel resolves a model name in any case ("sb", "Surf",
// "RUNAHEAD") to its constant.  Every -model flag and config file goes
// through it.
func ParseModel(name string) (Model, error) {
	for m, s := range modelNames {
		if strings.EqualFold(s, name) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("config: unknown model %q (want WH, BLESS, Surf, SB, CHIPPER or RUNAHEAD)", name)
}

// Bufferless reports whether the model has no in-network VCs (only
// injection-side buffering), i.e. BLESS, SB, CHIPPER or RUNAHEAD.
func (m Model) Bufferless() bool {
	return m == BLESS || m == SB || m == CHIPPER || m == RUNAHEAD
}

// ConfinedInterference reports whether the model isolates domains.
func (m Model) ConfinedInterference() bool { return m == Surf || m == SB }

// Config is the complete parameter set for one simulation.
type Config struct {
	// Topology.
	Width  int // mesh columns (Table 1: 8)
	Height int // mesh rows (Table 1: 8)

	Model Model

	// Domains is the number of interference domains (D_1 … D_9 in §5.1.2).
	// Must be ≥ 1.  Only Surf and SB confine interference between them;
	// WH and BLESS accept Domains > 1 but merely label packets.
	Domains int

	// Router pipelines, in cycles (Table 1: 2-stage and 4-stage).
	BufferlessPipeline int // router delay for BLESS / SB
	VCPipeline         int // router delay for WH / Surf
	LinkDelay          int // cycles to traverse one link

	// Virtual-channel shape for WH/Surf (Table 1: 1 ctrl VC @1 flit,
	// 2 data VCs @5 flits per input port, per domain for Surf).
	CtrlVCsPerPort int
	CtrlVCDepth    int
	DataVCsPerPort int
	DataVCDepth    int

	// InjectionVCDepth is the per-domain injection VC depth for the
	// bufferless models (§5.1.2 uses 4-flit VCs).
	InjectionVCDepth int

	// InjectionQueueCap bounds the per-node network-interface queue that
	// feeds the injection VCs; source queueing beyond it applies
	// back-pressure to the generator (queue latency in Fig. 9).
	InjectionQueueCap int

	// LinkBits is the link width in bits (Table 1: 128).
	LinkBits int

	// ClockHz is the network clock (§5.1.2: 1 GHz).
	ClockHz float64

	// WaveSets optionally assigns explicit wave index sets to domains
	// (§5.2's multi-class configuration).  When nil, waves are assigned
	// round-robin: wave w belongs to domain w mod Domains.
	WaveSets [][]int

	// Faults optionally schedules deterministic fault injection (see
	// package fault).  It lives in the Config — not beside the probe —
	// because an armed plan changes simulation results and must be part
	// of the result-cache fingerprint; nil keeps fault-free
	// serialization (and therefore fingerprints) unchanged.
	Faults *fault.Plan `json:",omitempty"`
}

// Default returns the Table-1 configuration for the given model with a
// single domain.
func Default(m Model) Config {
	return Config{
		Width:  8,
		Height: 8,

		Model:   m,
		Domains: 1,

		BufferlessPipeline: 2,
		VCPipeline:         4,
		LinkDelay:          1,

		CtrlVCsPerPort: 1,
		CtrlVCDepth:    1,
		DataVCsPerPort: 2,
		DataVCDepth:    5,

		InjectionVCDepth:  4,
		InjectionQueueCap: 64,

		LinkBits: 128,
		ClockHz:  1e9,
	}
}

// HopDelay returns P, the hop delay in clock cycles: the delay of a
// packet through one router and one link (Section 4.2).
func (c Config) HopDelay() int {
	if c.Model.Bufferless() {
		return c.BufferlessPipeline + c.LinkDelay
	}
	return c.VCPipeline + c.LinkDelay
}

// Smax returns the maximal number of waves, Smax = 2·P·(N−1), where N is
// the number of routers in one dimension (Section 4.2).  For
// non-square meshes the larger dimension is used so every sub-wave
// closes its reverberation period.
func (c Config) Smax() int {
	n := c.Width
	if c.Height > n {
		n = c.Height
	}
	return 2 * c.HopDelay() * (n - 1)
}

// Mesh returns the topology described by the configuration.
func (c Config) Mesh() geom.Mesh { return geom.NewMesh(c.Width, c.Height) }

// Nodes returns the number of network nodes.
func (c Config) Nodes() int { return c.Width * c.Height }

// FlitBytes returns the payload bytes carried per flit.
func (c Config) FlitBytes() int { return c.LinkBits / 8 }

// BufferFlitsPerRouter returns the total in-router buffer capacity in
// flits, the quantity that drives static buffer power (Fig. 6's
// structural argument).  For VC models every non-local input port holds
// the full VC complement (times Domains for Surf); bufferless models
// buffer only at injection (one VC per domain) plus one pipeline
// register per link input port.
func (c Config) BufferFlitsPerRouter() int {
	perPortVC := c.CtrlVCsPerPort*c.CtrlVCDepth + c.DataVCsPerPort*c.DataVCDepth
	switch c.Model {
	case WH:
		return geom.NumDirs * perPortVC
	case Surf:
		return geom.NumDirs * perPortVC * c.Domains
	case BLESS, CHIPPER, RUNAHEAD:
		return geom.NumLinkDirs + c.InjectionVCDepth
	case SB:
		return geom.NumLinkDirs + c.Domains*c.InjectionVCDepth
	default:
		return 0
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Width < 2 || c.Height < 2:
		return fmt.Errorf("config: mesh %dx%d too small (need ≥2 per dimension)", c.Width, c.Height)
	case c.Domains < 1:
		return fmt.Errorf("config: Domains = %d, need ≥1", c.Domains)
	case c.BufferlessPipeline < 1 || c.VCPipeline < 1:
		return errors.New("config: router pipelines must be ≥1 cycle")
	case c.LinkDelay < 1:
		return errors.New("config: LinkDelay must be ≥1 cycle")
	case c.CtrlVCsPerPort < 0 || c.DataVCsPerPort < 0:
		return errors.New("config: VC counts must be non-negative")
	case c.CtrlVCsPerPort+c.DataVCsPerPort == 0 && !c.Model.Bufferless():
		return errors.New("config: VC router needs at least one VC per port")
	case c.CtrlVCsPerPort > 0 && c.CtrlVCDepth < 1,
		c.DataVCsPerPort > 0 && c.DataVCDepth < 1:
		return errors.New("config: VC depths must be ≥1 flit")
	case c.InjectionVCDepth < 1:
		return errors.New("config: InjectionVCDepth must be ≥1 flit")
	case c.InjectionQueueCap < 1:
		return errors.New("config: InjectionQueueCap must be ≥1 packet")
	case c.LinkBits < 8 || c.LinkBits%8 != 0:
		return fmt.Errorf("config: LinkBits = %d, need a positive multiple of 8", c.LinkBits)
	case c.ClockHz <= 0:
		return errors.New("config: ClockHz must be positive")
	}
	if c.Model.ConfinedInterference() {
		if c.Width != c.Height {
			return fmt.Errorf("config: %v requires a square mesh (wave border rules close only on N×N), got %dx%d",
				c.Model, c.Width, c.Height)
		}
		if c.Domains > c.Smax() {
			return fmt.Errorf("config: %d domains exceed Smax = %d waves", c.Domains, c.Smax())
		}
	}
	if err := c.validateWaveSets(); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.Width, c.Height); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

func (c Config) validateWaveSets() error {
	if c.WaveSets == nil {
		return nil
	}
	if len(c.WaveSets) != c.Domains {
		return fmt.Errorf("config: %d wave sets for %d domains", len(c.WaveSets), c.Domains)
	}
	// Waves left unassigned are legal: they simply carry no traffic
	// (useful for ablations that waste schedule slots on purpose).
	if _, err := wave.FromSets(c.Smax(), c.WaveSets); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}
