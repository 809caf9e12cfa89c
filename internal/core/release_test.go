package core

import (
	"reflect"
	"testing"

	"softsec/internal/harness"
	"softsec/internal/telemetry"
)

// TestReleasedColdTrialsRepeat replays one reseeded ASLR+canary cold
// trial with telemetry on, interleaved with trials of other cold cells.
// Every cold trial releases its process, so each replay loads into pages,
// page tables and code-cache arrays a different victim just handed back:
// the result and the metrics snapshot must not change.
func TestReleasedColdTrialsRepeat(t *testing.T) {
	spec := &telemetry.Spec{Events: true}
	var target harness.Scenario
	var others []harness.Scenario
	for _, a := range Attacks() {
		if a.Name == "leak-assisted-ret2libc" {
			// Its victim re-executes code, so the trial warms the decode
			// and block caches and releases their arrays too.
			target = TrialScenario(a, Mitigations{Canary: true, CanarySeed: 7, DEP: true, ASLR: true}, true)
			continue
		}
		others = append(others,
			TrialScenario(a, Mitigations{ASLR: true}, true),
			canarySweep(a, "inverted-locals"))
	}
	trial := harness.Trial{Scenario: target.Name, Index: 3, Seed: 0x5eed, Telemetry: spec}
	want := target.Run(trial)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if want.Telemetry.Counters["cpu.decode.hits"] == 0 || want.Telemetry.Counters["cpu.block.builds"] == 0 {
		t.Fatalf("the target warmed no code cache: %v", want.Telemetry.Counters)
	}
	for i, o := range others {
		r := o.Run(harness.Trial{Scenario: o.Name, Index: i, Seed: int64(i + 1), Telemetry: spec})
		if r.Err != nil {
			t.Fatalf("%s: %v", o.Name, r.Err)
		}
		if got := target.Run(trial); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after %s differs:\n got %+v\nwant %+v", o.Name, got, want)
		}
	}
}
