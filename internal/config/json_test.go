package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestModelJSONRoundTrip(t *testing.T) {
	for _, m := range []Model{WH, BLESS, Surf, SB, CHIPPER, RUNAHEAD} {
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var back Model
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if back != m {
			t.Errorf("round trip %v → %s → %v", m, raw, back)
		}
	}
	var m Model
	if err := json.Unmarshal([]byte(`"NOPE"`), &m); err == nil {
		t.Error("unknown model name accepted")
	}
	if err := json.Unmarshal([]byte(`"runahead"`), &m); err != nil || m != RUNAHEAD {
		t.Errorf("lower-case name decoded to %v, %v; want RUNAHEAD", m, err)
	}
	if _, err := json.Marshal(Model(99)); err == nil {
		t.Error("unknown model value encoded")
	}
}

// TestParseModel: every model parses from its name in any case, and an
// unknown name fails with an error listing all six.
func TestParseModel(t *testing.T) {
	for name, want := range map[string]Model{
		"WH": WH, "wh": WH, "Wh": WH,
		"BLESS": BLESS, "bless": BLESS, "Bless": BLESS,
		"Surf": Surf, "surf": Surf, "SURF": Surf,
		"SB": SB, "sb": SB, "Sb": SB,
		"CHIPPER": CHIPPER, "chipper": CHIPPER, "Chipper": CHIPPER,
		"RUNAHEAD": RUNAHEAD, "runahead": RUNAHEAD, "RunAhead": RUNAHEAD,
	} {
		if got, err := ParseModel(name); err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseModel("MinBD")
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, m := range []Model{WH, BLESS, Surf, SB, CHIPPER, RUNAHEAD} {
		if !strings.Contains(err.Error(), m.String()) {
			t.Errorf("error %q does not name %v", err, m)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := Default(SB)
	cfg.Domains = 3
	cfg.WaveSets = [][]int{{0, 1}, {2, 3}, {4, 5}}
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != SB || got.Domains != 3 || len(got.WaveSets) != 3 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.Width != 8 || got.LinkBits != 128 {
		t.Errorf("defaults lost: %+v", got)
	}
}

// A minimal file keeps the decoded model's Table-1 defaults.
func TestLoadMinimalFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "min.json")
	if err := os.WriteFile(path, []byte(`{"Model":"Surf","Domains":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model != Surf || cfg.Domains != 4 {
		t.Errorf("explicit fields wrong: %+v", cfg)
	}
	if cfg.VCPipeline != 4 || cfg.DataVCDepth != 5 || cfg.ClockHz != 1e9 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestLoadRejects(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"Model":"SB","Domains":0}`), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("invalid config accepted")
	}
	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte(`{{{`), 0o644)
	if _, err := Load(garbage); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	cfg := Default(WH)
	cfg.Domains = 0
	if err := cfg.Save(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Error("invalid config saved")
	}
}
