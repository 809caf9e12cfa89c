package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"softsec/internal/harness"
)

// Goldens are recorded with the reference engine (see reference in
// workload.go) and checked into golden/. They are the benchmark's only
// external statement of what the simulator should output: the model is
// not validated against real hardware, so "correct" means "agrees with
// the recorded reference run".
//
//go:embed golden/*.json
var goldenFS embed.FS

// golden is the recorded outcome of one workload at one seed.
type golden struct {
	Workload      string                `json:"workload"`
	Seed          int64                 `json:"seed"`
	TrialsPerCell int                   `json:"trials_per_cell"`
	Cells         map[string]goldenCell `json:"cells"`
	// Counters holds the simulated counters of a telemetry run (see
	// simulatedCounter). Simulator-internal counters are left out, so a
	// change that only speeds a layer up cannot trip the gate.
	Counters map[string]uint64 `json:"counters"`
}

// goldenCell is one cell's outcome histogram.
type goldenCell struct {
	Outcomes map[string]int `json:"outcomes"`
	Errors   int            `json:"errors,omitempty"`
}

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// loadGolden returns the embedded golden for (workload, seed), or nil
// when none was recorded for that seed.
func loadGolden(workload string, seed int64) (*golden, error) {
	b, err := goldenFS.ReadFile("golden/" + goldenName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(workload, seed), err)
	}
	return &g, nil
}

// simulatedCounter reports whether a telemetry counter describes the
// simulated execution (instructions retired, faults, outcomes, what a
// campaign found) rather than how the simulator produced it (caches,
// decode/block/trace tiers, page stamps, warm/cold serving).
func simulatedCounter(name string) bool {
	return name == "cpu.steps.retired" || name == "harness.trials" ||
		strings.HasPrefix(name, "cpu.fault.") ||
		strings.HasPrefix(name, "harness.outcome.") ||
		strings.HasPrefix(name, "fuzz.")
}

// makeGolden records reports (one per harness.Run of a repetition) and
// the counters of a telemetry run of the same workload.
func makeGolden(w workload, seed int64, trials int, reps []*harness.Report, counters map[string]uint64) *golden {
	g := &golden{Workload: w.name, Seed: seed, TrialsPerCell: trials, Cells: map[string]goldenCell{}, Counters: map[string]uint64{}}
	for _, rep := range reps {
		for _, c := range rep.Cells {
			g.Cells[c.Scenario] = goldenCell{Outcomes: c.Outcomes, Errors: c.Errors}
		}
	}
	for k, v := range counters {
		if simulatedCounter(k) {
			g.Counters[k] = v
		}
	}
	return g
}

func writeGolden(dir string, g *golden) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, goldenName(g.Workload, g.Seed))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write golden: %w", err)
	}
	return nil
}

// cellMismatch describes how a cell's histogram differs from the
// golden, or returns "" when it matches.
func (g *golden) cellMismatch(c harness.CellStats) string {
	want, ok := g.Cells[c.Scenario]
	if !ok {
		return "cell not in golden"
	}
	if c.Errors != want.Errors || !maps.Equal(c.Outcomes, want.Outcomes) {
		return fmt.Sprintf("outcomes %v errors %d, golden %v errors %d", c.Outcomes, c.Errors, want.Outcomes, want.Errors)
	}
	return ""
}

// counterMismatches lists every simulated counter that differs from the
// golden, in name order.
func (g *golden) counterMismatches(counters map[string]uint64) []string {
	names := map[string]bool{}
	for k := range g.Counters {
		names[k] = true
	}
	for k := range counters {
		if simulatedCounter(k) {
			names[k] = true
		}
	}
	var out []string
	for _, k := range slices.Sorted(maps.Keys(names)) {
		if counters[k] != g.Counters[k] {
			out = append(out, fmt.Sprintf("counter %s = %d, golden %d", k, counters[k], g.Counters[k]))
		}
	}
	return out
}
