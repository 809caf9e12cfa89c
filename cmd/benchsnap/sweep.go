package main

// -sweep mode: harness trial throughput over the attack grids, the
// headline number of the build-cache + warm-worker layer. Unlike the
// trace-tier cells (ns/instr of the execution engine), these cells
// measure the full per-trial pipeline — recon, build, load, run,
// classify — which is exactly what content-keyed build caching and
// snapshot-warmed workers amortize. The record holds, per grid, the
// trials/sec plus the build-cache and warm/cold counters that prove the
// number was produced by the cached pipeline, and the same t1 grid with
// the cache layer disabled and warm reuse stripped (the pre-cache
// pipeline) that the cache speedup is measured against.

import (
	"fmt"
	"runtime"
	"time"

	"softsec/internal/buildcache"
	"softsec/internal/core"
	"softsec/internal/harness"
)

// sweepGrids are the groups a sweep snapshot measures through the
// cached pipeline, in order.
var sweepGrids = []string{"t1", "cfi", "t1p"}

// uncachedGrid names the t1 reference run through the pre-cache pipeline.
const uncachedGrid = "t1-uncached"

// measureSweep times every grid with identical budgets and the t1
// uncached reference.
func measureSweep(s *snapshot, quick bool) error {
	// Enough trials per cell that the one-time toolchain misses amortize
	// the way they do in a real sweep (the motivating workloads run
	// hundreds of trials per cell).
	trials := 64
	if quick {
		trials = 4
	}
	s.reg.Count("bench.trials", uint64(trials))

	catalog := harness.NewRegistry()
	if err := core.RegisterScenarios(catalog); err != nil {
		return err
	}
	for _, g := range sweepGrids {
		scs := catalog.Group(g)
		if len(scs) == 0 {
			return fmt.Errorf("grid %s: no scenarios", g)
		}
		if err := timeSweep(s, g, scs, trials); err != nil {
			return fmt.Errorf("grid %s: %w", g, err)
		}
	}

	// The uncached reference: same t1 budgets through the pre-cache
	// pipeline (cache layer off, every trial a cold load).
	prev := buildcache.SetEnabled(false)
	err := timeSweep(s, uncachedGrid, stripWarm(catalog.Group("t1")), trials)
	buildcache.SetEnabled(prev)
	if err != nil {
		return fmt.Errorf("grid %s: %w", uncachedGrid, err)
	}
	return nil
}

// timeSweep runs one grid on one worker per CPU and records its
// trials/sec and the run's cache and warm counters (harness.Run resets
// the build caches at start, so TotalStats after the run describes
// exactly this run).
func timeSweep(s *snapshot, grid string, scs []harness.Scenario, trials int) error {
	start := time.Now()
	rep := harness.Run(scs, harness.Options{Trials: trials, Jobs: runtime.NumCPU(), BaseSeed: 1})
	elapsed := time.Since(start).Seconds()
	for _, c := range rep.Cells {
		if c.Errors > 0 {
			return fmt.Errorf("cell %s: %d trial errors (%s)", c.Scenario, c.Errors, c.FirstError)
		}
	}
	st := buildcache.TotalStats()
	s.time("trials_per_sec."+grid, float64(len(scs)*trials)/elapsed)
	for name, v := range map[string]uint64{
		"scenarios":       uint64(len(scs)),
		"cache_hits":      st.Hits,
		"cache_misses":    st.Misses,
		"cache_evictions": st.Evictions,
		"warm_restores":   uint64(rep.WarmRestores),
		"cold_loads":      uint64(rep.ColdLoads),
	} {
		s.reg.Count("bench."+name+"."+grid, v)
	}
	return nil
}

// stripWarm copies the scenarios without their warm hooks, forcing the
// cold per-trial path.
func stripWarm(scs []harness.Scenario) []harness.Scenario {
	out := append([]harness.Scenario(nil), scs...)
	for i := range out {
		out[i].Warm = nil
	}
	return out
}
