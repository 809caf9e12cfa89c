package main

import (
	"fmt"
	"strings"

	"softsec/internal/asm"
	"softsec/internal/buildcache"
	"softsec/internal/core"
	"softsec/internal/fuzz"
	"softsec/internal/harness"
	"softsec/internal/kernel"
	"softsec/internal/minc"
)

// Stage replay: the benchmark re-runs recorded (cell, trial) pairs by
// calling each stage's public function in pipeline order, with a span
// around each call, and checks that every replayed trial reproduces the
// outcome the harness recorded. The cell's mitigation config and the
// per-trial reseeding are rebuilt from the cell name with the catalog's
// public constructors; the two private rules of the catalog that this
// needs (canaryMix and nonzeroSeed in internal/core/matrix.go) are
// restated below, and outcome agreement proves they still match.

// Span names of the replay, one per stage.
const (
	stageTrial     = "replay.trial"
	stageRecon     = "core.recon"   // AttackSpec.Scenario
	stageBuild     = "core.build"   // core.BuildVictim
	stageCompile   = "minc.compile" // minc.Compile
	stageLink      = "kernel.link"  // kernel.Link
	stageLoad      = "kernel.load"  // kernel.Load
	stageCFI       = "cfi.install"  // core.InstallCFI
	stageSnapshot  = "kernel.snapshot"
	stageRestore   = "kernel.restore"
	stageRun       = "kernel.run" // Process.Run
	stageClassify  = "core.classify"
	stageIsolation = "core.isolation" // a t3 cell's Run, which has no public stages
	stageFuzzNew   = "fuzz.new"
	stageFuzz      = "fuzz.campaign" // Campaign.Fuzz
)

// canaryMix and nonzeroSeed restate the catalog's per-trial canary
// reseeding (internal/core/matrix.go).
const canaryMix = int64(0x5eed_caba_11ed_c0de)

func nonzeroSeed(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

// replayer replays trials and totals what the per-layer metrics need
// beyond the spans.
type replayer struct {
	t       *tracer
	attacks map[string]core.AttackSpec
	// steps and runNs total guest instructions and kernel.run (or, in a
	// campaign, fuzz.campaign) time, for host ns per guest instruction.
	steps, runNs float64
	execs        float64 // fuzz executions replayed
	failed       int     // trials that did not reproduce
	mismatches   []string
}

func newReplayer(t *tracer) *replayer {
	r := &replayer{t: t, attacks: map[string]core.AttackSpec{}}
	for _, a := range core.Attacks() {
		r.attacks[a.Name] = a
	}
	return r
}

// replayRound replays the first k trials of every cell of one
// repetition's reports, starting each group with an empty build cache
// as harness.Run does. It returns the number of trials replayed.
func (r *replayer) replayRound(groups [][]harness.Scenario, reps []*harness.Report, seed int64, k int) int {
	n := 0
	for gi, g := range groups {
		buildcache.ResetAll()
		for si, sc := range g {
			var warm *warmProc
			for ti := range min(k, len(reps[gi].Results[si])) {
				want := reps[gi].Results[si][ti]
				tseed := harness.TrialSeed(seed, sc.Name, ti)
				got, err := r.replayTrial(sc, ti, tseed, &warm)
				n++
				switch {
				case err != nil:
					r.mismatch("%s trial %d: replay: %v", sc.Name, ti, err)
				case got.Outcome != want.Outcome || got.Code != want.Code || got.Success != want.Success:
					r.mismatch("%s trial %d: replay outcome %q, harness recorded %q", sc.Name, ti, got.Outcome, want.Outcome)
				}
			}
		}
	}
	return n
}

func (r *replayer) mismatch(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// warmProc is a warm-eligible cell's loaded process and its pristine
// snapshot, built on the cell's first replayed trial.
type warmProc struct {
	s    core.Scenario
	p    *kernel.Process
	snap *kernel.Snapshot
}

func (r *replayer) replayTrial(sc harness.Scenario, ti int, tseed int64, warm **warmProc) (harness.TrialResult, error) {
	parent := r.t.open(stageTrial, 0, sc.Name, ti)
	defer r.t.close(parent)
	parts := strings.Split(sc.Name, "/")
	switch parts[0] {
	case "t3":
		var res harness.TrialResult
		r.t.timed(stageIsolation, parent, sc.Name, ti, func() {
			res = sc.Run(harness.Trial{Scenario: sc.Name, Index: ti, Seed: tseed})
		})
		return res, res.Err
	case "fuzz":
		return r.replayCampaign(parts, parent, sc.Name, ti, tseed)
	}
	a, m, err := r.cellConfig(parts, tseed)
	if err != nil {
		return harness.TrialResult{}, err
	}
	if sc.Warm != nil {
		if *warm == nil {
			wp, err := r.build(a, m, parent, sc.Name, ti, true)
			if err != nil {
				return harness.TrialResult{}, err
			}
			*warm = wp
			if wp.snap == nil {
				// Not reset-safe: the harness's Warm.New refuses the
				// cell and every trial runs cold.
				return r.runClassify(wp.s, wp.p, parent, sc.Name, ti), nil
			}
		}
		if wp := *warm; wp.snap != nil {
			var rerr error
			r.t.timed(stageRestore, parent, sc.Name, ti, func() { rerr = wp.p.Restore(wp.snap) })
			if rerr != nil {
				return harness.TrialResult{}, rerr
			}
			return r.runClassify(wp.s, wp.p, parent, sc.Name, ti), nil
		}
	}
	wp, err := r.build(a, m, parent, sc.Name, ti, false)
	if err != nil {
		return harness.TrialResult{}, err
	}
	return r.runClassify(wp.s, wp.p, parent, sc.Name, ti), nil
}

// warmSafe restates the gate of core's warm instances
// (internal/core/warm.go): no PostLoad hook, and an input that clones.
func warmSafe(s core.Scenario) bool {
	if s.PostLoad != nil {
		return false
	}
	_, ok := s.Attacker.(interface{ CloneInput() kernel.InputSource })
	return s.Attacker == nil || ok
}

// build runs recon, compile, link, load and CFI installation for one
// trial, and for a reset-safe warm cell takes the pristine snapshot.
// Compile and link are called explicitly, never through the build
// cache, so their spans time a cache miss; core.build times BuildVictim
// as the trial's own path takes it, and its process is discarded.
func (r *replayer) build(a core.AttackSpec, m core.Mitigations, parent int, cell string, ti int, snapshot bool) (*warmProc, error) {
	if snapshot {
		// Warm-instance construction builds without filling the build
		// cache (internal/core/cache.go): its recon is a full probe
		// however many trials came before, and it leaves nothing behind.
		defer buildcache.SetEnabled(buildcache.SetEnabled(false))
	}
	var (
		s   core.Scenario
		err error
	)
	r.t.timed(stageRecon, parent, cell, ti, func() { s, err = a.Scenario(m) })
	if err != nil {
		return nil, err
	}
	r.t.timed(stageBuild, parent, cell, ti, func() { _, err = core.BuildVictim(s, m) })
	if err != nil {
		return nil, err
	}
	prof, err := m.LayoutProfile()
	if err != nil {
		return nil, err
	}
	var img *asm.Image
	r.t.timed(stageCompile, parent, cell, ti, func() {
		img, err = minc.Compile("victim", s.Source, minc.Options{Canary: m.Canary, BoundsCheck: m.Checked, Layout: prof})
	})
	if err != nil {
		return nil, err
	}
	var ld *kernel.Linked
	r.t.timed(stageLink, parent, cell, ti, func() {
		ld, err = kernel.Link(append([]*asm.Image{kernel.Libc(), img}, s.ExtraModules...)...)
	})
	if err != nil {
		return nil, err
	}
	var p *kernel.Process
	r.t.timed(stageLoad, parent, cell, ti, func() {
		p, err = kernel.Load(ld, kernel.Config{
			ShadowStack: m.ShadowStack, DEP: m.DEP, ASLR: m.ASLR, ASLRSeed: m.ASLRSeed,
			CanarySeed: m.CanarySeed, CheckedLibc: m.Checked, Input: s.Attacker,
			MaxSteps: s.MaxSteps, Profile: prof,
		})
	})
	if err != nil {
		return nil, err
	}
	if m.CFI != "" {
		prec, ok := core.CFIPrecisionByName(m.CFI)
		if !ok {
			return nil, fmt.Errorf("unknown CFI precision %q", m.CFI)
		}
		r.t.timed(stageCFI, parent, cell, ti, func() { err = core.InstallCFI(p, prec) })
		if err != nil {
			return nil, err
		}
	}
	wp := &warmProc{s: s, p: p}
	if snapshot && warmSafe(s) {
		r.t.timed(stageSnapshot, parent, cell, ti, func() { wp.snap = p.Snapshot() })
	}
	return wp, nil
}

func (r *replayer) runClassify(s core.Scenario, p *kernel.Process, parent int, cell string, ti int) harness.TrialResult {
	before := p.CPU.Steps
	start := r.t.now()
	st := p.Run()
	end := r.t.now()
	r.t.add(span{Parent: parent, Name: stageRun, Start: start, End: end, Cell: cell, Trial: ti})
	r.steps += float64(p.CPU.Steps - before)
	r.runNs += float64(end - start)
	var o core.Outcome
	r.t.timed(stageClassify, parent, cell, ti, func() { o = core.Classify(p, st, s.Goal) })
	return harness.TrialResult{Outcome: o.String(), Code: int(o), Success: o == core.Compromised}
}

// cellConfig rebuilds a core cell's attack and this trial's mitigations
// from the cell name, applying the catalog's per-trial reseeding.
func (r *replayer) cellConfig(parts []string, tseed int64) (core.AttackSpec, core.Mitigations, error) {
	bad := fmt.Errorf("no replay rule for cell %q", strings.Join(parts, "/"))
	reseed := func(m core.Mitigations) core.Mitigations {
		if m.ASLR {
			m.ASLRSeed = tseed
		}
		if m.Canary && m.CanarySeed != 0 {
			m.CanarySeed = nonzeroSeed(tseed ^ canaryMix)
		}
		return m
	}
	byLabel := func(configs []core.Mitigations, label string) (core.Mitigations, bool) {
		for _, c := range configs {
			if c.String() == label {
				return c, true
			}
		}
		return core.Mitigations{}, false
	}
	var (
		attack string
		m      core.Mitigations
		ok     bool
	)
	switch {
	case parts[0] == "t1" && len(parts) == 3:
		attack = parts[1]
		m, ok = byLabel(core.StandardConfigs(), parts[2])
		m = reseed(m)
	case parts[0] == "t1p" && len(parts) == 4:
		attack = parts[2]
		m, ok = byLabel(core.ProfileGridConfigs(), parts[3])
		m.Profile = parts[1]
		m = reseed(m)
	case parts[0] == "cfi" && len(parts) == 3:
		attack = parts[1]
		var lv core.CFILevel
		lv, ok = core.CFILevelByName(parts[2])
		m.ShadowStack = lv.ShadowStack
		if lv.Enabled {
			m.CFI = lv.Precision.String()
		}
	case parts[0] == "mc" && len(parts) == 3 && parts[1] == "aslr":
		attack, ok = parts[2], true
		m = core.Mitigations{ASLR: true, ASLRSeed: tseed}
	case parts[0] == "mc" && len(parts) == 3 && parts[1] == "canary":
		attack, ok = parts[2], true
		m = core.Mitigations{Canary: true, CanarySeed: nonzeroSeed(tseed ^ canaryMix), DEP: true}
	}
	a, found := r.attacks[attack]
	if !ok || !found {
		return core.AttackSpec{}, core.Mitigations{}, bad
	}
	return a, m, nil
}

// replayCampaign replays one fuzz cell trial: fuzz.New, then the whole
// Campaign.Fuzz budget, classified as the fuzz group classifies it.
func (r *replayer) replayCampaign(parts []string, parent int, cell string, ti int, tseed int64) (harness.TrialResult, error) {
	cfg, ok := campaignConfig(cell)
	if !ok || len(parts) != 3 {
		return harness.TrialResult{}, fmt.Errorf("no replay rule for cell %q", cell)
	}
	cfg.Seed = tseed
	var (
		c   *fuzz.Campaign
		err error
	)
	r.t.timed(stageFuzzNew, parent, cell, ti, func() { c, err = fuzz.New(cfg) })
	if err != nil {
		return harness.TrialResult{}, err
	}
	start := r.t.now()
	err = c.Fuzz(cfg.MaxExecs)
	end := r.t.now()
	r.t.add(span{Parent: parent, Name: stageFuzz, Start: start, End: end, Cell: cell, Trial: ti})
	if err != nil {
		return harness.TrialResult{}, err
	}
	res := c.Result()
	r.steps += float64(res.TotalSteps)
	r.runNs += float64(end - start)
	r.execs += float64(res.Execs)
	// The fuzz group's severity order: exploit > crash > detected > none.
	switch {
	case res.Exploits > 0:
		return harness.TrialResult{Outcome: "found-exploit", Code: 3, Success: true}, nil
	case res.Crashes > 0:
		return harness.TrialResult{Outcome: "found-crash", Code: 2, Success: true}, nil
	case res.Detections > 0:
		return harness.TrialResult{Outcome: "detected-only", Code: 1}, nil
	}
	return harness.TrialResult{Outcome: "no-findings"}, nil
}

// campaignConfig finds the fuzz.Config whose cell name is cell among
// every mitigation combination a campaign accepts.
func campaignConfig(cell string) (fuzz.Config, bool) {
	for _, v := range fuzz.Victims() {
		for bits := range 16 {
			for _, cfi := range []string{"", "coarse", "fine"} {
				cfg := fuzz.Config{
					Name: v.Name, Source: v.Source,
					Canary: bits&1 != 0, DEP: bits&2 != 0, ASLR: bits&4 != 0, ShadowStack: bits&8 != 0,
					CFI: cfi, MaxExecs: fuzz.ScenarioExecs,
				}
				if "fuzz/"+v.Name+"/"+cfg.MitLabel() == cell {
					return cfg, true
				}
			}
		}
	}
	return fuzz.Config{}, false
}
