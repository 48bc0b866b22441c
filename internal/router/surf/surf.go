// Package surf implements the Surf comparator of §5: a SurfNoC-style
// [2] confined-interference network built on buffered VC routers.
//
// Isolation in space comes from dedicating one full VC complement per
// domain at every input port (the 5-ports-×-D-domains buffer growth of
// Fig. 6); isolation in time from wave-gating every output port with
// the same three-scheduler wave schedule Surf-Bless uses, at the VC
// routers' hop delay (Table 1: 4-stage pipeline + link ⇒ P = 5,
// Smax = 2·5·7 = 70 on the 8×8 mesh).  A packet that keeps moving with
// its wave experiences no slot wait; a packet that turns against the
// wave or waits for ejection is buffered in its domain's VC until the
// next slot of its domain — buffered, not deflected, which is why Surf
// degrades more gracefully than Surf-Bless at awkward domain counts
// (Fig. 7(b) vs 7(a)).
//
// Modelling choice (documented in DESIGN.md): input ports and the
// injection port have one bandwidth lane per domain, so cross-domain
// contention cannot arise on the port that feeds the crossbar.  Output
// links, the crossbar columns and ejection remain strictly
// time-multiplexed by the wave schedule.
//
// Observability: the returned engine is the shared wormhole.Engine, so
// SetProbe (per-router/per-link flit heatmaps; see internal/probe)
// works on Surf exactly as on WH.
//
// Fault injection: likewise inherited from wormhole.Engine via
// SetFaults — router freezes and link kills manifest as credit-flow
// blocking (no flit is ever lost), so a permanent fault on a used
// route wedges the network and surfaces as a sim.DegradedError through
// the livelock watchdog; packet-drop events are not modeled for the
// buffered comparators (see package wormhole).
package surf

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/network"
	"surfbless/internal/power"
	"surfbless/internal/router/wormhole"
	"surfbless/internal/stats"
	"surfbless/internal/wave"
)

// New builds a Surf mesh for cfg.  The VC complement configured in cfg
// (CtrlVCsPerPort/DataVCsPerPort and depths) is replicated per domain;
// wave→domain decoding follows cfg.WaveSets when set, else round-robin.
func New(cfg config.Config, sink network.Sink, col *stats.Collector, meter *power.Meter) (*wormhole.Engine, error) {
	if cfg.Model != config.Surf {
		return nil, fmt.Errorf("surf: config model is %v", cfg.Model)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := wave.New(cfg.Mesh(), cfg.HopDelay())
	dec, err := wave.NewDecoder(sched.Smax(), cfg.Domains, cfg.WaveSets)
	if err != nil {
		return nil, err
	}
	// Every domain must own at least one wave or its traffic never moves.
	for d := 0; d < cfg.Domains; d++ {
		if len(dec.Owned(d)) == 0 {
			return nil, fmt.Errorf("surf: domain %d owns no waves", d)
		}
	}
	return wormhole.New(wormhole.Options{
		Cfg:       cfg,
		VCs:       wormhole.DomainVCs(cfg),
		Key:       wormhole.KeyDomain,
		WaveGated: true,
		Sched:     sched,
		Dec:       dec,
	}, sink, col, meter)
}
