package config

import (
	"encoding/json"
	"fmt"
	"os"
)

// MarshalJSON encodes the model by its paper abbreviation so config
// files read naturally ("Model": "SB").
func (m Model) MarshalJSON() ([]byte, error) {
	s, ok := modelNames[m]
	if !ok {
		return nil, fmt.Errorf("config: cannot encode unknown model %d", int(m))
	}
	return json.Marshal(s)
}

// UnmarshalJSON accepts the paper abbreviations in any case.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseModel(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Load reads and validates a configuration from a JSON file.  Fields
// absent from the file keep the Table-1 defaults of the decoded model,
// so a minimal file like {"Model":"SB","Domains":3} works: the file is
// decoded twice — once to learn the model, once over its defaults.
func Load(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	var probe struct{ Model Model }
	if err := json.Unmarshal(raw, &probe); err != nil {
		return Config{}, fmt.Errorf("config: %s: %w", path, err)
	}
	cfg := Default(probe.Model)
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return Config{}, fmt.Errorf("config: %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("config: %s: %w", path, err)
	}
	return cfg, nil
}

// Save writes the configuration as indented JSON.
func (c Config) Save(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
