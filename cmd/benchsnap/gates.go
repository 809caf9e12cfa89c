package main

// The gates every benchsnap record must pass, per cell. They live here,
// in code, never in the data file: a snapshot carries numbers, and
// -validate decides what those numbers must satisfy. Sanity gates are
// hardware-relative and hold on any machine at any budget. Floors are
// the absolute acceptance numbers the committed full-budget snapshots
// ship with; validation only re-reads recorded values, so they hold on
// any machine that re-reads them, but a fresh quick snapshot from a
// loaded CI box may legitimately miss them, so quick records skip them.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"softsec/internal/layout"
	"softsec/internal/runlog"
)

// gate is one named check on a bench record.
type gate struct {
	name  string
	floor bool // absolute acceptance floor: full-budget records only
	check func(r *runlog.Record) error
}

// checkGates runs the gates of the record's group and names every gate
// that fails.
func checkGates(r *runlog.Record) error {
	c, ok := cells[r.Config.Group]
	if !ok {
		return fmt.Errorf("benchsnap record of unknown group %q", r.Config.Group)
	}
	var errs []error
	for _, g := range c.gates {
		if g.floor && r.Config.Profile == quickProfile {
			continue
		}
		if err := g.check(r); err != nil {
			errs = append(errs, fmt.Errorf("gate %s: %w", g.name, err))
		}
	}
	return errors.Join(errs...)
}

// wall reads a headline timing by its group-relative key.
func wall(r *runlog.Record, key string) float64 {
	return r.Wall[r.Config.Group+"."+key]
}

// counter reads a metrics counter; absent reads as 0, as in the registry.
func counter(r *runlog.Record, name string) uint64 {
	if r.Metrics == nil {
		return 0
	}
	return r.Metrics.Counters[name]
}

// positiveCounters passes when every named counter is non-zero.
func positiveCounters(names ...string) func(*runlog.Record) error {
	return func(r *runlog.Record) error {
		var errs []error
		for _, n := range names {
			if counter(r, n) == 0 {
				errs = append(errs, fmt.Errorf("%s = 0, want positive", n))
			}
		}
		return errors.Join(errs...)
	}
}

// positiveTimings passes when every named timing is positive and finite.
func positiveTimings(keys ...string) func(*runlog.Record) error {
	return func(r *runlog.Record) error {
		var errs []error
		for _, k := range keys {
			if v, ok := r.Wall[r.Config.Group+"."+k]; !ok {
				errs = append(errs, fmt.Errorf("%s missing", k))
			} else if !(v > 0) || math.IsInf(v, 0) {
				errs = append(errs, fmt.Errorf("%s = %v, want positive finite", k, v))
			}
		}
		return errors.Join(errs...)
	}
}

// --- trace ----------------------------------------------------------------

var traceGates = []gate{
	{"work-counts", false, positiveCounters("bench.chain_instrs", "bench.fuzz_execs", "bench.restore_cycles")},
	{"timings", false, positiveTimings(
		"ns_per_instr.step_loop", "ns_per_instr.block_loop", "ns_per_instr.block_chain8", "ns_per_instr.trace_chain8",
		"execs_per_sec.fuzz_micro", "execs_per_sec.fuzz_parser", "execs_per_sec.fuzz_cfi_coarse", "execs_per_sec.fuzz_cfi_fine",
		"ns_per_op.snapshot_restore")},
	// The trace_chain8 number must actually have measured superblocks.
	{"trace-formed", false, positiveCounters("cpu.trace.formed")},
	{"trace-dispatched", false, positiveCounters("cpu.trace.dispatches")},
	{"trace-avg-len", false, func(r *runlog.Record) error {
		avg, err := traceAvgLen(r)
		if err != nil {
			return err
		}
		if avg < 2 || avg > 16 {
			return fmt.Errorf("average trace length %.2f, want within [2, 16]", avg)
		}
		return nil
	}},
	{"trace-side-exit-rate", false, func(r *runlog.Record) error {
		if rate := traceSideExitRate(r); rate < 0 || rate > 1 {
			return fmt.Errorf("side-exit rate %.3f, want within [0, 1]", rate)
		}
		return nil
	}},
	// The trace tier must pay off on its target workload.
	{"trace-beats-block", false, func(r *runlog.Record) error {
		bc, tc := wall(r, "ns_per_instr.block_chain8"), wall(r, "ns_per_instr.trace_chain8")
		if bc > 0 && tc > 0 && tc >= bc {
			return fmt.Errorf("trace_chain8 %.2f ns/instr >= block_chain8 %.2f: superblocks are not paying off", tc, bc)
		}
		return nil
	}},
	{"trace-speedup", true, func(r *runlog.Record) error {
		bc, tc := wall(r, "ns_per_instr.block_chain8"), wall(r, "ns_per_instr.trace_chain8")
		if bc > 0 && tc > 0 && tc > bc/2 {
			return fmt.Errorf("trace_chain8 %.2f ns/instr > half of block_chain8 %.2f, want a >=2x superblock speedup", tc, bc)
		}
		return nil
	}},
	{"fuzz-throughput", true, func(r *runlog.Record) error {
		if best := math.Max(wall(r, "execs_per_sec.fuzz_micro"), wall(r, "execs_per_sec.fuzz_parser")); best < 1e6 {
			return fmt.Errorf("best no-policy fuzz cell %.0f execs/sec, want >= 1000000", best)
		}
		return nil
	}},
	{"trace-ns-per-instr", true, func(r *runlog.Record) error {
		if tc := wall(r, "ns_per_instr.trace_chain8"); tc > 5.9 {
			return fmt.Errorf("trace_chain8 %.2f ns/instr, want <= 5.9", tc)
		}
		return nil
	}},
}

// traceAvgLen is the mean superblock length (in member blocks) over the
// cpu.trace.len histogram, as cpu.TraceStats.AvgLen computes it.
func traceAvgLen(r *runlog.Record) (float64, error) {
	var h map[string]uint64
	if r.Metrics != nil {
		h = r.Metrics.Hists["cpu.trace.len"]
	}
	n, sum := uint64(0), uint64(0)
	for b, c := range h {
		l, err := strconv.Atoi(b)
		if err != nil {
			return 0, fmt.Errorf("cpu.trace.len bucket %q: %w", b, err)
		}
		n += c
		sum += uint64(l) * c
	}
	if n == 0 {
		return 0, nil
	}
	return float64(sum) / float64(n), nil
}

// traceSideExitRate is the share of trace dispatches that left early,
// as cpu.TraceStats.SideExitRate computes it.
func traceSideExitRate(r *runlog.Record) float64 {
	d := counter(r, "cpu.trace.dispatches")
	if d == 0 {
		return 0
	}
	return float64(counter(r, "cpu.trace.side_exits")+counter(r, "cpu.trace.stale_exits")) / float64(d)
}

// --- profiles -------------------------------------------------------------

// profileTimings returns the per-profile execs/sec entries by profile name.
func profileTimings(r *runlog.Record) map[string]float64 {
	prefix := r.Config.Group + ".execs_per_sec."
	out := map[string]float64{}
	for k, v := range r.Wall {
		if name, ok := strings.CutPrefix(k, prefix); ok {
			out[name] = v
		}
	}
	return out
}

func bestProfile(r *runlog.Record) float64 {
	best := 0.0
	for _, v := range profileTimings(r) {
		best = math.Max(best, v)
	}
	return best
}

var profileGates = []gate{
	{"work-counts", false, positiveCounters("bench.fuzz_execs")},
	{"profiles-measured", false, func(r *runlog.Record) error {
		keys := make([]string, 0, len(layout.Names()))
		for _, name := range layout.Names() {
			keys = append(keys, "execs_per_sec."+name)
		}
		return positiveTimings(keys...)(r)
	}},
	{"profiles-known", false, func(r *runlog.Record) error {
		var errs []error
		for name := range profileTimings(r) {
			if _, err := layout.ByName(name); err != nil {
				errs = append(errs, fmt.Errorf("unknown profile %q", name))
			}
		}
		return errors.Join(errs...)
	}},
	{"profile-throughput", true, func(r *runlog.Record) error {
		if best := bestProfile(r); best > 0 && best < 2e5 {
			return fmt.Errorf("best profile cell %.0f execs/sec, want >= 200000", best)
		}
		return nil
	}},
	// Layout is configuration, not a hot-path cost: no profile may run
	// at less than a quarter of the fastest.
	{"profile-spread", true, func(r *runlog.Record) error {
		best := bestProfile(r)
		var errs []error
		for name, v := range profileTimings(r) {
			if v > 0 && v < best/4 {
				errs = append(errs, fmt.Errorf("profile %q %.0f execs/sec < quarter of best %.0f: layout should not cost throughput", name, v, best))
			}
		}
		return errors.Join(errs...)
	}},
}

// --- sweep ----------------------------------------------------------------

var sweepGates = []gate{
	{"work-counts", false, func(r *runlog.Record) error {
		if counter(r, "bench.trials") == 0 || r.Env.Jobs <= 0 {
			return fmt.Errorf("bench.trials = %d, env.jobs = %d, want both positive", counter(r, "bench.trials"), r.Env.Jobs)
		}
		return nil
	}},
	{"grid-throughput", false, func(r *runlog.Record) error {
		var errs []error
		for _, g := range sweepGrids {
			if n := counter(r, "bench.scenarios."+g); n == 0 {
				errs = append(errs, fmt.Errorf("bench.scenarios.%s = 0, want positive", g))
			}
		}
		keys := []string{"trials_per_sec." + uncachedGrid}
		for _, g := range sweepGrids {
			keys = append(keys, "trials_per_sec."+g)
		}
		return errors.Join(append(errs, positiveTimings(keys...)(r))...)
	}},
	// The measured grids ran through the cached, warm pipeline.
	{"grid-cached", false, func(r *runlog.Record) error {
		var errs []error
		for _, g := range sweepGrids {
			hits, misses, warm := counter(r, "bench.cache_hits."+g), counter(r, "bench.cache_misses."+g), counter(r, "bench.warm_restores."+g)
			if hits == 0 || misses == 0 || warm == 0 {
				errs = append(errs, fmt.Errorf("%s: cache hits=%d misses=%d warm restores=%d, want all non-zero (was the cache layer on?)", g, hits, misses, warm))
			}
		}
		return errors.Join(errs...)
	}},
	// The reference ran through the pre-cache pipeline.
	{"uncached-reference", false, func(r *runlog.Record) error {
		g := uncachedGrid
		hits, misses, warm := counter(r, "bench.cache_hits."+g), counter(r, "bench.cache_misses."+g), counter(r, "bench.warm_restores."+g)
		if hits != 0 || misses != 0 || warm != 0 {
			return fmt.Errorf("%s ran with caching active (hits=%d misses=%d warm restores=%d)", g, hits, misses, warm)
		}
		return nil
	}},
	// A ratio of two numbers measured on the same machine in the same run.
	{"cache-speedup", true, func(r *runlog.Record) error {
		if sp := wall(r, "trials_per_sec.t1") / wall(r, "trials_per_sec."+uncachedGrid); sp < 5 {
			return fmt.Errorf("t1 cache speedup %.2fx over the uncached pipeline, want >= 5x", sp)
		}
		return nil
	}},
}
