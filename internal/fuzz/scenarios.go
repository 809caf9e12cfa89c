package fuzz

import (
	"softsec/internal/harness"
	"softsec/internal/layout"
)

// Harness integration: every (victim, mitigation stack) pair is one
// campaign cell, registered under group "fuzz". A trial is a complete
// independent campaign whose Seed is the trial seed, so the standard
// harness determinism contract holds: the sweep's aggregate (and JSON)
// is byte-identical for -jobs 1 and -jobs N, and a cell's success rate
// reads as "fraction of campaigns that discovered a crash or exploit
// within the budget".

// Fuzzing victims. These mirror the shapes of the core attack catalog
// (the package is deliberately independent of internal/core, which
// imports this one), but from the fuzzer's perspective: no hand-written
// payload, just a program with a reachable bug.

// fuzzVictimEcho is the Figure 1 echo server bug: read 128 bytes into a
// 16-byte stack buffer. Any sufficiently long input smashes the frame.
const fuzzVictimEcho = `
void main() {
	char buf[16];
	read(0, buf, 128); // spatial vulnerability: buf holds only 16
	write(1, buf, 4);
}`

// fuzzVictimArbWrite is the attacker-indexed array write: idx and val
// both come from input, so mutated word pairs write all over the space.
const fuzzVictimArbWrite = `
void main() {
	int v[4];
	int idx = 0;
	int val = 0;
	while (read(0, &idx, 4) == 4) {
		if (read(0, &val, 4) != 4) return;
		v[idx] = val; // unchecked attacker-controlled index
	}
	puts("bye");
}`

// fuzzVictimFnPtr keeps a function pointer above an overflowable static
// buffer; the later indirect call runs whatever the overflow planted.
const fuzzVictimFnPtr = `
char name[16];
int *handler;

int greet() {
	write(1, "hi ", 3);
	return 0;
}
void main() {
	handler = greet;
	read(0, name, 24); // overflows into handler
	int *f = handler;
	f(); // control-flow hijack point
}`

// CampaignSpec names one fuzzable victim.
type CampaignSpec struct {
	Name   string
	Source string
}

// Victims is the catalog of fuzzing victims.
func Victims() []CampaignSpec {
	return []CampaignSpec{
		{Name: "echo", Source: fuzzVictimEcho},
		{Name: "arbwrite", Source: fuzzVictimArbWrite},
		{Name: "fnptr", Source: fuzzVictimFnPtr},
	}
}

// mitConfig is one deployed mitigation stack for the campaign grid.
type mitConfig struct {
	canary, dep, aslr, shadow bool
	cfi                       string
}

func campaignConfigs() []mitConfig {
	return []mitConfig{
		{},                        // none
		{canary: true},            // canary
		{dep: true},               // dep
		{canary: true, dep: true}, // canary+dep
		{dep: true, shadow: true}, // dep+shadowstack
		// The CFI precision ladder (internal/cfi): same victims, no
		// other mitigation, so the campaign numbers isolate how each
		// precision level changes discovery cost and time-to-exploit —
		// the fuzzing view of the coarse-vs-fine bypass grid.
		{cfi: "coarse"},             // cfi-coarse
		{cfi: "fine"},               // cfi-fine
		{cfi: "fine", shadow: true}, // shadowstack+cfi-fine
	}
}

// ScenarioExecs is the per-trial campaign budget used by the registered
// scenarios: small enough for CI sweeps, large enough that the seeded
// stack smash is found reliably on the unmitigated configs.
const ScenarioExecs = 1500

// config is victim v's campaign under this stack, with the given
// budget and layout profile.
func (mc mitConfig) config(v CampaignSpec, execs int, profile string) Config {
	return Config{
		Name:        v.Name,
		Source:      v.Source,
		Canary:      mc.canary,
		DEP:         mc.dep,
		ASLR:        mc.aslr,
		ShadowStack: mc.shadow,
		CFI:         mc.cfi,
		MaxExecs:    execs,
		Profile:     profile,
	}
}

// ScenariosFor returns the "fuzz" group cells (core.RegisterScenarios
// includes them) with the named layout profile (empty = classic) baked
// into every campaign. Cell names are unchanged — the profile is
// platform identity, like running the suite on different hardware — so
// per-trial seeds (derived from names) stay comparable across profiles.
func ScenariosFor(profile string) []harness.Scenario {
	var out []harness.Scenario
	for _, v := range Victims() {
		for _, mc := range campaignConfigs() {
			cfg := mc.config(v, ScenarioExecs, profile)
			label := cfg.MitLabel()
			out = append(out, campaignCell("fuzz/"+v.Name+"/"+label, "fuzz",
				map[string]string{"victim": v.Name, "mitigation": label, "workload": "fuzz-campaign"},
				cfg))
		}
	}
	return out
}

// ProfileExecs is the per-trial budget of the profile-spanning "fuzzp"
// cells: smaller than ScenarioExecs because the group multiplies every
// cell by the profile count, and the question it answers — does discovery
// cost shift when frame geometry moves? — shows up well before the full
// budget.
const ProfileExecs = 600

// ProfileScenarios returns the profile-spanning campaign grid, group
// "fuzzp": every fuzzing victim × {none, canary} × every layout profile,
// named "fuzzp/<profile>/<victim>/<mitigation>". Where the "fuzz" group
// fixes the classic platform, this grid varies it — the discovery-cost
// analogue of the matrix's t1p group.
func ProfileScenarios() []harness.Scenario {
	var out []harness.Scenario
	for _, p := range layout.Profiles() {
		for _, v := range Victims() {
			for _, mc := range []mitConfig{{}, {canary: true}} {
				cfg := mc.config(v, ProfileExecs, p.Name)
				label := cfg.MitLabel()
				out = append(out, campaignCell("fuzzp/"+p.Name+"/"+v.Name+"/"+label, "fuzzp",
					map[string]string{"victim": v.Name, "mitigation": label, "profile": p.Name, "workload": "fuzz-campaign"},
					cfg))
			}
		}
	}
	return out
}

// campaignCell wraps one campaign config as a harness cell: the trial
// seed becomes the campaign seed, and the discovery outcome maps to the
// harness outcome vocabulary.
func campaignCell(name, group string, meta map[string]string, cfg Config) harness.Scenario {
	run := func(t harness.Trial) harness.TrialResult {
		c := cfg
		c.Seed = t.Seed
		res, snap, err := RunCollected(c, t.Telemetry)
		if err != nil {
			return harness.TrialResult{Err: err}
		}
		// Severity order: exploit > crash > detected > none. Success
		// means the campaign discovered an input that crashes or
		// exploits the victim — the fuzz-discovery cost the cell
		// measures.
		outcome, code, success := "no-findings", 0, false
		switch {
		case res.Exploits > 0:
			outcome, code, success = "found-exploit", 3, true
		case res.Crashes > 0:
			outcome, code, success = "found-crash", 2, true
		case res.Detections > 0:
			outcome, code = "detected-only", 1
		}
		return harness.TrialResult{
			Outcome:   outcome,
			Code:      code,
			Success:   success,
			Detail:    res.Summary(),
			Telemetry: snap,
		}
	}
	return harness.Scenario{Name: name, Group: group, Meta: meta, Run: run}
}
