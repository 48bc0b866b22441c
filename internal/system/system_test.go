package system

import (
	"testing"

	"surfbless/internal/coherence"
	"surfbless/internal/config"
	"surfbless/internal/cpu"
)

func swaptions(t *testing.T) cpu.Profile {
	t.Helper()
	p, err := cpu.ProfileByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func shortRun(t *testing.T, model config.Model, app string, instr int64) Result {
	t.Helper()
	prof, err := cpu.ProfileByName(app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Model:        model,
		App:          prof,
		InstrPerCore: instr,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("%v/%s: %v", model, app, err)
	}
	return res
}

func TestCfgFor(t *testing.T) {
	for _, m := range []config.Model{config.WH, config.Surf, config.SB} {
		cfg, err := cfgFor(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if cfg.Domains != coherence.NumVNets {
			t.Errorf("%v: %d domains, want %d virtual networks", m, cfg.Domains, coherence.NumVNets)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: invalid cfg: %v", m, err)
		}
	}
	if _, err := cfgFor(config.BLESS); err == nil {
		t.Error("BLESS accepted — the paper excludes it from §5.2")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{Model: config.WH, App: swaptions(t), InstrPerCore: 0}); err == nil {
		t.Error("zero instructions accepted")
	}
	if _, err := Run(Options{Model: config.BLESS, App: swaptions(t), InstrPerCore: 10}); err == nil {
		t.Error("BLESS accepted")
	}
	if _, err := Run(Options{Model: config.WH, App: cpu.Profile{}, InstrPerCore: 10}); err == nil {
		t.Error("invalid profile accepted")
	}
}

// Every §5.2 model must run a small workload to completion with all
// conservation/confinement assertions live.
func TestAllModelsComplete(t *testing.T) {
	for _, m := range []config.Model{config.WH, config.Surf, config.SB} {
		res := shortRun(t, m, "swaptions", 3000)
		if !res.Finished {
			t.Fatalf("%v did not finish", m)
		}
		if res.ExecCycles < 3000 {
			t.Errorf("%v: exec %d cycles for 3000 instructions — impossible", m, res.ExecCycles)
		}
		if res.Total.Ejected == 0 {
			t.Errorf("%v: no NoC traffic generated", m)
		}
		if res.Total.Created != res.Total.Ejected {
			t.Errorf("%v: created %d != ejected %d after quiescence",
				m, res.Total.Created, res.Total.Ejected)
		}
		t.Logf("%v: exec=%d cycles, pkts=%d, L1 miss=%.3f, lat=%.1f (q %.1f + n %.1f), energy=%v",
			m, res.ExecCycles, res.Total.Ejected, res.L1MissRate,
			res.Total.AvgTotalLatency(), res.Total.AvgQueueLatency(),
			res.Total.AvgNetworkLatency(), res.Energy)
	}
}

// The three virtual networks must all carry traffic, with the expected
// classes: vnet0 control (1 flit/packet), vnets 1-2 data (5).
func TestVNetTrafficMix(t *testing.T) {
	res := shortRun(t, config.SB, "dedup", 2000)
	for v, d := range res.VNets {
		if d.Ejected == 0 {
			t.Errorf("vnet %d carried nothing", v)
			continue
		}
		flitsPerPkt := float64(d.FlitsMoved) / float64(d.Ejected)
		want := 5.0
		if v == 0 {
			want = 1.0
		}
		if flitsPerPkt != want {
			t.Errorf("vnet %d: %.2f flits/packet, want %g", v, flitsPerPkt, want)
		}
	}
}

// Determinism: same options, same result.
func TestRunDeterministic(t *testing.T) {
	a := shortRun(t, config.SB, "swaptions", 1500)
	b := shortRun(t, config.SB, "swaptions", 1500)
	if a.ExecCycles != b.ExecCycles || a.Total != b.Total {
		t.Errorf("identical runs diverged: %d vs %d cycles", a.ExecCycles, b.ExecCycles)
	}
}

// Application differentiation: the cache-hostile canneal must produce
// far more NoC traffic per instruction than the compute-bound
// swaptions.
func TestAppProfilesDiffer(t *testing.T) {
	sw := shortRun(t, config.WH, "swaptions", 2000)
	ca := shortRun(t, config.WH, "canneal", 2000)
	if ca.L1MissRate <= sw.L1MissRate {
		t.Errorf("canneal miss rate %.3f not above swaptions %.3f", ca.L1MissRate, sw.L1MissRate)
	}
	if ca.Total.Ejected <= sw.Total.Ejected {
		t.Errorf("canneal packets %d not above swaptions %d", ca.Total.Ejected, sw.Total.Ejected)
	}
	if ca.ExecCycles <= sw.ExecCycles {
		t.Errorf("canneal exec %d not above swaptions %d", ca.ExecCycles, sw.ExecCycles)
	}
}

// The Fig-10 headline: SB consumes much less NoC energy than WH on the
// same workload, and Surf does not beat WH.
func TestEnergyOrdering(t *testing.T) {
	wh := shortRun(t, config.WH, "dedup", 2000)
	sb := shortRun(t, config.SB, "dedup", 2000)
	surf := shortRun(t, config.Surf, "dedup", 2000)
	if sb.Energy.Total() >= 0.8*wh.Energy.Total() {
		t.Errorf("SB energy %v not well below WH %v", sb.Energy, wh.Energy)
	}
	if surf.Energy.Total() <= wh.Energy.Total() {
		t.Errorf("Surf energy %v should exceed WH %v (extra VCs + TDM logic)",
			surf.Energy, wh.Energy)
	}
}

// TestFingerprintPinned pins a cache key recorded before the key
// derivation moved into simcache.KeyOf, so entries already on disk
// under results/.simcache stay reachable.
func TestFingerprintPinned(t *testing.T) {
	k, err := Fingerprint(Options{Model: config.SB, App: swaptions(t), InstrPerCore: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := "e44611d595a86d767a75d11bfad06aba2841c6846db12af2233a76bc09b69ab9"; k.String() != want {
		t.Errorf("fingerprint %s, want %s", k, want)
	}
}

// The MESI invariants hold on the §5.2 system itself, not only on the
// coherence package's small test cluster: canneal, the profile with
// the most misses and L2 evictions, runs cycle by cycle on each NoC,
// with CheckSWMR and CheckDirectory every 50 cycles and at quiescence.
func TestInvariantsHoldOnSystem(t *testing.T) {
	prof, err := cpu.ProfileByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []config.Model{config.WH, config.Surf, config.SB} {
		s, err := newSys(Options{Model: m, App: prof, InstrPerCore: 400, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for now := int64(0); ; now++ {
			if now == s.opt.MaxCycles {
				t.Fatalf("%v: no quiescence within %d cycles", m, now)
			}
			over := s.cycle(now) && s.quiescent()
			if now%50 == 0 || over {
				if err := coherence.CheckSWMR(s.l1s); err != nil {
					t.Fatalf("%v cycle %d: %v", m, now, err)
				}
				if err := coherence.CheckDirectory(s.l1s, s.l2s); err != nil {
					t.Fatalf("%v cycle %d: %v", m, now, err)
				}
			}
			if over {
				break
			}
		}
	}
}
