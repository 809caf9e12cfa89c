package core

import (
	"bytes"
	"testing"

	"softsec/internal/fuzz"
	"softsec/internal/harness"
)

func TestRegisterScenariosCatalog(t *testing.T) {
	r := harness.NewRegistry()
	if err := RegisterScenarios(r); err != nil {
		t.Fatal(err)
	}
	attacks, configs := Attacks(), StandardConfigs()
	if got, want := len(r.Group("t1")), len(attacks)*len(configs); got != want {
		t.Fatalf("t1 cells %d, want %d", got, want)
	}
	if got, want := len(r.Group("t3")), len(IsolationMechanisms)*len(AttackerModels); got != want {
		t.Fatalf("t3 cells %d, want %d", got, want)
	}
	if got, want := len(r.Group("mc-aslr")), len(attacks); got != want {
		t.Fatalf("mc-aslr cells %d, want %d", got, want)
	}
	if len(r.Group("mc-canary")) == 0 {
		t.Fatal("no canary sweeps registered")
	}
	if _, ok := r.Lookup("t1/rop-chain/canary+dep+aslr"); !ok {
		t.Fatal("expected cell name missing — naming scheme changed?")
	}
	if got, want := len(r.Group("fuzz")), len(fuzz.ScenariosFor("")); got != want || got == 0 {
		t.Fatalf("fuzz cells %d, want %d (all campaign cells registered)", got, want)
	}
	if _, ok := r.Lookup("fuzz/echo/none"); !ok {
		t.Fatal("fuzz campaign cell name missing — naming scheme changed?")
	}
	// Registering twice must fail loudly, not silently double the catalog.
	if err := RegisterScenarios(r); err == nil {
		t.Fatal("duplicate catalog registration accepted")
	}
}

// TestWarmEligibilityPerGroup pins, per catalog group, how many cells
// there are and how many offer a warm snapshot path. A cell is warm
// exactly when its victim cannot change between trials, so a moved
// count means either a reseeding rule or a warm decision changed.
func TestWarmEligibilityPerGroup(t *testing.T) {
	r := harness.NewRegistry()
	if err := RegisterScenarios(r); err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{ // group -> {cells, warm cells}
		"cfi":       {32, 32},
		"t1":        {66, 33},
		"t1p":       {99, 33},
		"mc-aslr":   {11, 0},
		"mc-canary": {4, 0},
		"t3":        {10, 0},
		"fuzz":      {24, 0},
		"fuzzp":     {18, 0},
	}
	for _, g := range r.Groups() {
		if _, ok := want[g]; !ok {
			t.Errorf("unexpected group %q", g)
		}
	}
	for g, w := range want {
		var got [2]int
		for _, sc := range r.Group(g) {
			got[0]++
			if sc.Warm != nil {
				got[1]++
			}
		}
		if got != w {
			t.Errorf("group %s: (cells, warm) = %v, want %v", g, got, w)
		}
	}
}

// TestReseedRule pins the one per-trial reseeding rule every
// per-trial-seeded attack cell applies, and that warmReseeds agrees
// with it: a config is warm-ineligible exactly when reseed changes it.
func TestReseedRule(t *testing.T) {
	const seed = int64(0x1234_5678)
	// The canary mix constant is restated on purpose: the benchmark's
	// replay rebuilds per-trial configs with the same literal.
	mixed := seed ^ 0x5eed_caba_11ed_c0de
	type reseedCase struct {
		name string
		m    Mitigations
		seed int64
		want Mitigations
	}
	cases := []reseedCase{
		{"aslr", Mitigations{ASLR: true}, seed, Mitigations{ASLR: true, ASLRSeed: seed}},
		{"aslr-configured", Mitigations{ASLR: true, ASLRSeed: 42}, seed, Mitigations{ASLR: true, ASLRSeed: seed}},
		{"canary", Mitigations{Canary: true, CanarySeed: 7}, seed, Mitigations{Canary: true, CanarySeed: mixed}},
		{"canary-predictable", Mitigations{Canary: true}, seed, Mitigations{Canary: true}},
		{"canary-mix-seed", Mitigations{Canary: true, CanarySeed: 7}, canaryMix, Mitigations{Canary: true, CanarySeed: 1}},
		{"default-stack",
			Mitigations{Canary: true, CanarySeed: 7, DEP: true, ASLR: true, ASLRSeed: 42},
			seed, Mitigations{Canary: true, CanarySeed: mixed, DEP: true, ASLR: true, ASLRSeed: seed}},
		{"dep", Mitigations{DEP: true}, seed, Mitigations{DEP: true}},
		{"checked", Mitigations{Checked: true, DEP: true}, seed, Mitigations{Checked: true, DEP: true}},
	}
	for _, lv := range CFILevels() {
		m := cfiMitigations(lv)
		cases = append(cases, reseedCase{"cfi/" + lv.Name, m, seed, m})
	}
	for _, c := range cases {
		got := reseed(c.m, c.seed)
		if got != c.want {
			t.Errorf("%s: reseed(%+v, %#x) = %+v, want %+v", c.name, c.m, c.seed, got, c.want)
		}
		if changed := got != c.m; warmReseeds(c.m) != changed {
			t.Errorf("%s: warmReseeds = %v, but reseed changes the config: %v", c.name, warmReseeds(c.m), changed)
		}
	}
}

// TestHarnessDeterminismAcrossJobs is the acceptance property: the same
// sweep aggregated from 1 worker and from many workers must serialize to
// byte-identical reports.
func TestHarnessDeterminismAcrossJobs(t *testing.T) {
	scs := []harness.Scenario{
		TrialScenario(Attacks()[0], Mitigations{ASLR: true}, true),
		TrialScenario(Attacks()[0], Mitigations{Canary: true, CanarySeed: 7, DEP: true}, true),
	}
	run := func(jobs int) []byte {
		rep := harness.Run(scs, harness.Options{Trials: 8, Jobs: jobs, BaseSeed: 99})
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	many := run(8)
	if !bytes.Equal(one, many) {
		t.Fatalf("jobs=1 vs jobs=8 reports differ:\n%s\nvs\n%s", one, many)
	}
}

// TestASLRSweepViaHarness replaces the old 8-seed loop with a harness
// sweep: the nominal-layout exploit must fail for every randomized
// layout in the window.
func TestASLRSweepViaHarness(t *testing.T) {
	sc := aslrSweep(Attacks()[0], "") // stack-smash-inject, classic layout
	rep := harness.Run([]harness.Scenario{sc}, harness.Options{Trials: 16, Jobs: 4, BaseSeed: 1})
	c := rep.Cells[0]
	if c.Errors > 0 {
		t.Fatalf("sweep errors: %s", c.FirstError)
	}
	if c.Successes != 0 {
		t.Fatalf("exploit survived ASLR in %d/%d trials", c.Successes, c.Trials)
	}
}

// TestScenarioRerunsAreIndependent re-runs one Scenario value through
// core.Run twice — the ScriptInput cloning in the loader must make the
// second run see the same input as the first.
func TestScenarioRerunsAreIndependent(t *testing.T) {
	a := Attacks()[0]
	m := Mitigations{}
	s, err := a.Scenario(m)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(s, m)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != Compromised || second.Outcome != first.Outcome {
		t.Fatalf("rerun diverged: first %v, second %v", first.Outcome, second.Outcome)
	}
}
