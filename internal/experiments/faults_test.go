package experiments

import (
	"strings"
	"testing"
)

// Confinement under faults: every (model, scenario) cell must produce
// a row — healthy or degraded — and the fault scenarios must actually
// exercise the loss machinery somewhere.
func TestConfinementUnderFaultsShape(t *testing.T) {
	r := counted(t, 3*int64(len(FaultScenarios())), ConfinementUnderFaults)
	if len(r.Rows) != 3*len(FaultScenarios()) {
		t.Fatalf("%d rows, want %d", len(r.Rows), 3*len(FaultScenarios()))
	}
	losses := int64(0)
	degraded := 0
	for _, row := range r.Rows {
		if row.Scenario == "none" {
			if row.Status != "ok" {
				t.Errorf("%s/none: fault-free run degraded: %s", row.Model, row.Status)
			}
			if row.Dropped != 0 || row.Retransmits != 0 {
				t.Errorf("%s/none: loss counters nonzero: %+v", row.Model, row)
			}
		}
		if row.VictimLatency <= 0 && row.Status == "ok" {
			t.Errorf("%s/%s: empty victim stats on a healthy run", row.Model, row.Scenario)
		}
		losses += row.Dropped + row.Retransmits
		if strings.HasPrefix(row.Status, "degraded") {
			degraded++
		}
	}
	if losses == 0 {
		t.Error("no scenario produced a drop or retransmission")
	}
	// The permanent link kill must wedge the wormhole baseline (XY
	// routing cannot avoid it) and surface as a degraded row rather
	// than an error — the point of the subsystem.
	for _, row := range r.Rows {
		if row.Model == "WH" && row.Scenario == "link-kill" {
			if !strings.HasPrefix(row.Status, "degraded") && row.LeftInFlight == 0 {
				t.Errorf("WH/link-kill neither degraded nor stuck: %+v", row)
			}
		}
	}
	t.Logf("%d/%d rows degraded, %d total losses", degraded, len(r.Rows), losses)
	for _, tab := range r.Tables() {
		if tab.Rows() != len(r.Rows) {
			t.Errorf("table rows %d != result rows %d", tab.Rows(), len(r.Rows))
		}
	}
}
