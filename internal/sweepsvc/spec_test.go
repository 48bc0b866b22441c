package sweepsvc

import (
	"math"
	"strings"
	"testing"
)

// Validate must reject every rate range that cannot run or never ends
// before a single point is admitted.
func TestSpecValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		edit    func(*Spec)
		wantErr string // "" = valid
	}{
		{"valid", func(*Spec) {}, ""},
		{"single point", func(s *Spec) { s.From, s.To = 0.05, 0.05 }, ""},
		{"rate 1 per domain", func(s *Spec) { s.From, s.To, s.Step = 1.9, 2, 0.1 }, ""},
		{"from NaN", func(s *Spec) { s.From = nan }, "invalid rate range"},
		{"to NaN", func(s *Spec) { s.To = nan }, "invalid rate range"},
		{"step NaN", func(s *Spec) { s.Step = nan }, "invalid rate range"},
		{"to Inf", func(s *Spec) { s.To = inf }, "invalid rate range"},
		{"step Inf", func(s *Spec) { s.Step = inf }, "invalid rate range"},
		{"from -Inf", func(s *Spec) { s.From = math.Inf(-1) }, "invalid rate range"},
		{"zero step", func(s *Spec) { s.Step = 0 }, "invalid rate range"},
		{"to below from", func(s *Spec) { s.From, s.To = 0.1, 0.05 }, "invalid rate range"},
		{"huge finite to", func(s *Spec) { s.To = 1e300 }, "exceeds 1 packet/node/cycle"},
		{"rate above 1 per domain", func(s *Spec) { s.From, s.To = 2.4, 2.5 }, "exceeds 1 packet/node/cycle"},
		{"too many points", func(s *Spec) { s.From, s.To, s.Step = 0.001, 1, 1e-5 }, "more than 10000 points"},
		{"step below the rate's precision", func(s *Spec) { s.From, s.To, s.Step = 0.05, 0.05, 1e-300 }, "more than 10000 points"},
	} {
		s := testSpec()
		tc.edit(&s)
		err := s.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
