package traffic

import (
	"strings"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/router/bless"
	"surfbless/internal/router/surfbless"
	"surfbless/internal/stats"
	"surfbless/internal/trace"
)

func TestReplayerParses(t *testing.T) {
	in := trace.Header() + "\n" +
		"3,created,42,1,0:0,3:2,0,0\n" +
		"3,injected,42,1,0:0,3:2,0,0\n" + // skipped: not a creation
		"5,created,43,0,7:7,1:1,0,0\n"
	rp, err := NewReplayer(strings.NewReader(in), geom.NewMesh(8, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Events() != 2 {
		t.Fatalf("Events = %d, want 2", rp.Events())
	}
}

func TestReplayerRejects(t *testing.T) {
	mesh := geom.NewMesh(4, 4)
	cases := map[string]string{
		"field count":  "1,created,1,0,0:0\n",
		"bad cycle":    "x,created,1,0,0:0,1:1,0,0\n",
		"bad coord":    "1,created,1,0,zero,1:1,0,0\n",
		"off mesh":     "1,created,1,0,0:0,9:9,0,0\n",
		"out of order": "5,created,1,0,0:0,1:1,0,0\n3,created,2,0,0:0,1:1,0,0\n",
	}
	for name, in := range cases {
		if _, err := NewReplayer(strings.NewReader(in), mesh, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The record/replay loop: trace a BLESS run through a tap on its event
// ring, replay the identical population into an SB fabric, and check
// every packet is delivered.
func TestRecordReplayRoundTrip(t *testing.T) {
	// Record.
	recCfg := config.Default(config.BLESS)
	recCfg.Domains = 2
	recCol := stats.NewCollector(2, 0, 0)
	var buf strings.Builder
	tw := trace.New(&buf)
	events := &probe.Probe{}
	events.Arm(probe.Config{Mesh: recCfg.Mesh(), Domains: 2}, tw)
	recMeter := power.NewMeter(recCfg, power.Default45nm())
	recFab, err := bless.New(recCfg, nil, recCol, recMeter)
	if err != nil {
		t.Fatal(err)
	}
	recFab.SetProbe(events)
	gen := New(recCfg.Mesh(), UniformRandom, []Source{
		{Rate: 0.03, Class: packet.Ctrl, VNet: -1},
		{Rate: 0.03, Class: packet.Ctrl, VNet: -1},
	}, 31)
	now := int64(0)
	for ; now < 400; now++ {
		gen.Tick(recFab, now)
		recFab.Step(now)
	}
	for ; recFab.InFlight() > 0; now++ {
		recFab.Step(now)
	}
	events.Flush()
	tw.Flush()

	// Replay into SB.
	rp, err := NewReplayer(strings.NewReader(buf.String()), recCfg.Mesh(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rp.Events()) != recCol.AllCreated {
		t.Fatalf("replayer parsed %d creations, recorder made %d", rp.Events(), recCol.AllCreated)
	}
	sbCfg := config.Default(config.SB)
	sbCfg.Domains = 2
	sbCol := stats.NewCollector(2, 0, 0)
	sbMeter := power.NewMeter(sbCfg, power.Default45nm())
	sbFab, err := surfbless.New(sbCfg, nil, nil, sbCol, sbMeter)
	if err != nil {
		t.Fatal(err)
	}
	mesh := sbCfg.Mesh()
	for now = 0; !rp.Done() || sbFab.InFlight() > 0; now++ {
		rp.Tick(sbFab, now, mesh)
		sbFab.Step(now)
		if now > 100000 {
			t.Fatal("replay never drained")
		}
	}
	if rp.Refused != 0 {
		t.Errorf("%d replayed offers refused at this load", rp.Refused)
	}
	if sbCol.AllEjected != recCol.AllCreated {
		t.Errorf("SB delivered %d of %d replayed packets", sbCol.AllEjected, recCol.AllCreated)
	}
	// The populations are identical packet-for-packet, so per-domain
	// counts must match the recording.
	for d := 0; d < 2; d++ {
		if sbCol.Domain(d).Ejected != recCol.Domain(d).Ejected {
			t.Errorf("domain %d: replay delivered %d, recording %d",
				d, sbCol.Domain(d).Ejected, recCol.Domain(d).Ejected)
		}
	}
}
