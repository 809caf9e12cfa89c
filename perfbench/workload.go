package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"softsec/internal/buildcache"
	"softsec/internal/core"
	"softsec/internal/cpu"
	"softsec/internal/harness"
	"softsec/internal/telemetry"
)

// workload is one fixed-size input set. One repetition is one
// harness.Run per group, back to back, each at trials trials per cell.
//
// Why these three (README.md has the full rationale):
//   - t1-sweep is the headline sweep: reseeded ASLR/canary cells make
//     about half of its trials cold kernel.Loads, the rest warm restores.
//   - fuzz-campaign is guest execution: one trial is a whole campaign,
//     nearly all of it cpu.Run on restored snapshots, with a single Load.
//   - catalog-cold is the one-shot default matrix: one trial per cell,
//     so compile, recon and warm-instance set-up are paid and never
//     amortised. It is the only workload reaching t3 and cfi.
type workload struct {
	name   string
	groups []string
	trials int
	// refTrials is how many leading trials of every cell the reference
	// engine re-runs to check the seed, golden or not.
	refTrials int
	// replayTrials is how many leading trials of every cell one round of
	// the stage replay re-runs; a campaign trial is long, so fewer.
	replayTrials int
}

var workloads = []workload{
	{name: "t1-sweep", groups: []string{"t1"}, trials: 100, refTrials: 8, replayTrials: 8},
	{name: "fuzz-campaign", groups: []string{"fuzz"}, trials: 8, refTrials: 8, replayTrials: 2},
	{name: "catalog-cold", groups: []string{"t1", "t1p", "cfi", "t3", "mc-aslr", "mc-canary"}, trials: 1, refTrials: 1, replayTrials: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setup registers the catalog and selects the workload's cells, one
// slice per group in run order: the work a user's sweep does before its
// first trial.
func setup(w workload) ([][]harness.Scenario, error) {
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		return nil, fmt.Errorf("register scenarios: %w", err)
	}
	out := make([][]harness.Scenario, len(w.groups))
	for i, g := range w.groups {
		out[i] = reg.Group(g)
		if len(out[i]) == 0 {
			return nil, fmt.Errorf("workload %s: group %q has no cells", w.name, g)
		}
	}
	return out, nil
}

// production pins the configuration users run: the trace engine, the
// build cache on, and (by leaving Scenario.Warm in place) warm workers.
func production() {
	cpu.UseBlockEngine, cpu.UseTraceEngine = true, true
	buildcache.SetEnabled(true)
}

// runRep runs one repetition: one harness.Run per group.
func runRep(groups [][]harness.Scenario, trials, jobs int, seed int64, spec *telemetry.Spec) []*harness.Report {
	reps := make([]*harness.Report, len(groups))
	for i, g := range groups {
		reps[i] = harness.Run(g, harness.Options{Trials: trials, Jobs: jobs, BaseSeed: seed, Telemetry: spec})
	}
	return reps
}

// reference runs the workload on the engine the repository's
// differential tests treat as ground truth: the single-step interpreter,
// no build cache, no warm instances, one worker. Every fast path a
// performance change may touch is off, so agreement with it checks the
// fast paths on any seed.
func reference(groups [][]harness.Scenario, trials int, seed int64, spec *telemetry.Spec) []*harness.Report {
	defer production()
	cpu.UseBlockEngine, cpu.UseTraceEngine = false, false
	buildcache.SetEnabled(false)
	cold := make([][]harness.Scenario, len(groups))
	for i, g := range groups {
		cold[i] = slices.Clone(g)
		for j := range cold[i] {
			cold[i][j].Warm = nil
		}
	}
	return runRep(cold, trials, 1, seed, spec)
}

// mergedCounters sums the telemetry counters of a repetition's reports.
func mergedCounters(reps []*harness.Report) map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range reps {
		if r.Telemetry == nil {
			continue
		}
		for k, v := range r.Telemetry.File().Counters {
			out[k] += v
		}
	}
	return out
}

// checker is the correctness gate. A cell fails, and all its trials
// count as failed, when any trial errs, when its histogram differs from
// the golden for the seed, when a leading trial's outcome differs from
// the reference engine's, or when its report entry differs from the
// first repetition's (every repetition, traced or not, must produce
// byte-identical reports).
type checker struct {
	golden   *golden
	ref      []*harness.Report
	first    [][]byte // per group: the first repetition's report JSON
	problems []string
}

func (c *checker) fail(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// check gates one repetition and returns its attempted and failed
// trial counts.
func (c *checker) check(reps []*harness.Report) (attempted, failed int) {
	first := c.first == nil
	for gi, rep := range reps {
		b, err := rep.JSON()
		if err != nil {
			c.fail("report JSON: %v", err)
		}
		if first {
			c.first = append(c.first, b)
		}
		var firstCells []harness.CellStats
		differs := string(b) != string(c.first[gi])
		if differs {
			var fr harness.Report
			if json.Unmarshal(c.first[gi], &fr) == nil && len(fr.Cells) == len(rep.Cells) {
				firstCells = fr.Cells
			}
		}
		groupFailed := 0
		for si, cell := range rep.Cells {
			attempted += cell.Trials
			if why := c.cellProblem(gi, si, rep, firstCells); why != "" {
				groupFailed += cell.Trials
				c.fail("%s: %s", cell.Scenario, why)
			}
		}
		if differs && groupFailed == 0 {
			// The difference is outside the cells (seed, trial count):
			// nothing in the group can be trusted.
			groupFailed = rep.Trials * len(rep.Cells)
			c.fail("group %s: report differs from the first repetition", rep.Cells[0].Group)
		}
		failed += groupFailed
	}
	return attempted, failed
}

func (c *checker) cellProblem(gi, si int, rep *harness.Report, firstCells []harness.CellStats) string {
	cell := rep.Cells[si]
	if cell.Errors > 0 {
		return "trial error: " + cell.FirstError
	}
	if c.golden != nil {
		if why := c.golden.cellMismatch(cell); why != "" {
			return why
		}
	}
	if c.ref != nil {
		want := c.ref[gi].Results[si]
		for ti := range min(len(want), len(rep.Results[si])) {
			got := rep.Results[si][ti]
			if got.Outcome != want[ti].Outcome || got.Code != want[ti].Code || got.Success != want[ti].Success {
				return fmt.Sprintf("trial %d outcome %q, reference engine %q", ti, got.Outcome, want[ti].Outcome)
			}
		}
	}
	if firstCells != nil {
		a, _ := json.Marshal(cell)
		b, _ := json.Marshal(firstCells[si])
		if string(a) != string(b) {
			return "report differs from the first repetition"
		}
	}
	return ""
}
