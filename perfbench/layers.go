package main

import (
	"maps"
	"math"
	"slices"
)

// attributionTolerance bounds the attribution residual: how far, as a
// share of the measured trial time, the estimate may fall from it. The
// replay runs one stage at a time on an otherwise idle process, while
// the harness runs two workers side by side with the collector, and
// medians leave out the slow samples where contention lands, so the
// estimate is expected to fall somewhat short; a residual beyond the
// tolerance means a stage is missing from the replay or miscounted.
const attributionTolerance = 0.4

// stageGC is the attribution term for the garbage collector: the CPU it
// takes per repetition, measured on the untraced repetitions. Its
// background workers and assists run on the workers' CPUs inside the
// trial spans, and no replayed stage includes them.
const stageGC = "runtime.gc"

// stageCount says how many times per repetition the production path
// runs a replayed stage on a cell, given how the span pass saw the cell
// served: cold trials, warm trials and warm instances built. A cold
// trial's compile and link run inside its recon (on a cache miss) or
// not at all (on a hit), and a campaign's inside fuzz.New, so only warm
// instance construction, which compiles and links outside the cache,
// counts them. core.build is a probe that repeats what the explicit
// stages do, so it never counts.
var stageCount = map[string]func(c cellWork) float64{
	stageCompile:   func(c cellWork) float64 { return c.news },
	stageLink:      func(c cellWork) float64 { return c.news },
	stageRecon:     func(c cellWork) float64 { return c.cold + c.news },
	stageLoad:      func(c cellWork) float64 { return c.cold + c.news },
	stageCFI:       func(c cellWork) float64 { return c.cold + c.news },
	stageSnapshot:  func(c cellWork) float64 { return c.news },
	stageRestore:   func(c cellWork) float64 { return c.warm },
	stageRun:       func(c cellWork) float64 { return c.cold + c.warm },
	stageClassify:  func(c cellWork) float64 { return c.cold + c.warm },
	stageIsolation: func(c cellWork) float64 { return c.cold + c.warm },
	stageFuzzNew:   func(c cellWork) float64 { return c.cold },
	stageFuzz:      func(c cellWork) float64 { return c.cold },
}

// perLayer fills the traced run's metrics. Harness-layer numbers come
// from the span pass, stage numbers from the replay, counts and ratios
// of simulated work from the counter pass, runtime numbers from the
// untraced pass.
func perLayer(res *runResult, plain, spanned measured, agg *spanAgg, rp *replayer, replay []span, counters map[string]uint64) {
	self := selfTimes(replay)
	stageUs := map[string][]float64{}
	cellStageNs := map[[2]string][]float64{}
	for _, s := range replay {
		stageUs[s.Name] = append(stageUs[s.Name], float64(self[s.ID])/1e3)
		cellStageNs[[2]string{s.Name, s.Cell}] = append(cellStageNs[[2]string{s.Name, s.Cell}], float64(self[s.ID]))
	}
	stage := func(name string) dist { return summarize(stageUs[name]) }
	c := func(name string) float64 { return float64(counters[name]) }
	trials := c("harness.trials")

	// harness
	res.addDist("harness.trial_cold_us", "us", summarize(agg.durUs[spanTrialCold]), 1, true, "harness.trial_cold_us.n")
	res.addDist("harness.trial_warm_us", "us", summarize(agg.durUs[spanTrialWarm]), 1, true, "harness.trial_warm_us.n")
	res.addDist("harness.warm_new_us", "us", summarize(agg.durUs[spanWarmNew]), 1, false, "harness.warm_new.n")
	res.add("harness.warm_trials_per_instance", "ratio", ratio(float64(len(agg.durUs[spanTrialWarm])), float64(len(agg.durUs[spanWarmNew]))))
	res.add("harness.cold_frac", "frac", ratio(c("harness.cold_loads"), trials))
	res.Metrics = append(res.Metrics,
		metric{Name: "harness.worker_busy_frac", Unit: "frac", Value: median(agg.busy), N: len(agg.busy)},
		metric{Name: "harness.tail_ms", Unit: "ms", Value: median(agg.tail), N: len(agg.tail)})

	// buildcache
	hits, misses := c("buildcache.hits"), c("buildcache.misses")
	res.add("buildcache.hits", "count", hits)
	res.add("buildcache.misses", "count", misses)
	res.add("buildcache.hit_ratio", "frac", ratio(hits, hits+misses))

	// core, minc, kernel, cfi: the replayed stages
	res.addDist("core.recon_us", "us", stage(stageRecon), 1, false, "")
	res.addDist("core.build_us", "us", stage(stageBuild), 1, false, "")
	res.addDist("core.classify_us", "us", stage(stageClassify), 1, false, "")
	res.addDist("minc.compile_us", "us", stage(stageCompile), 1, false, "minc.compile.n")
	res.addDist("kernel.link_us", "us", stage(stageLink), 1, false, "kernel.link.n")
	res.addDist("kernel.load_us", "us", stage(stageLoad), 1, true, "kernel.load.n")
	res.addDist("kernel.run_us", "us", stage(stageRun), 1, false, "")
	res.addDist("kernel.restore_us", "us", stage(stageRestore), 1, false, "kernel.restore.n")
	res.addDist("cfi.install_us", "us", stage(stageCFI), 1, false, "")

	// cpu, isa, mem: simulated work from the counter pass
	res.add("cpu.steps_per_trial", "count", ratio(c("cpu.steps.retired"), trials))
	res.add("cpu.host_ns_per_guest_instr", "ns", ratio(rp.runNs, rp.steps))
	res.add("cpu.block_builds_per_trial", "count", ratio(c("cpu.block.builds"), trials))
	res.add("cpu.trace_formed_per_trial", "count", ratio(c("cpu.trace.formed"), trials))
	res.add("isa.decode_miss_ratio", "frac", ratio(c("cpu.decode.misses"), c("cpu.decode.hits")+c("cpu.decode.misses")))
	res.add("mem.restore_dirty_pages_per_restore", "count", ratio(c("mem.restore.dirty_pages"), c("mem.restore.cycles")))
	res.add("mem.stamp_bumps_per_trial", "count", ratio(c("mem.stamp.bumps"), trials))

	// fuzz
	res.addDist("fuzz.new_us", "us", stage(stageFuzzNew), 1, false, "")
	res.addDist("fuzz.campaign_ms", "ms", stage(stageFuzz), 1e-3, true, "")
	res.add("fuzz.execs_per_sec", "1/s", ratio(rp.execs, rp.runNs/1e9))

	// runtime, from the untraced pass
	ss := plain.samples
	res.Metrics = append(res.Metrics,
		metric{Name: "runtime.gc_cpu_frac", Unit: "frac", Value: perSample(ss, func(s sample) float64 { return ratio(s.gcCPU, s.cpu) }), N: len(ss)},
		metric{Name: "runtime.gc_cycles_per_ktrial", Unit: "count", Value: perSample(ss, func(s sample) float64 { return 1e3 * s.gcCycles / s.trials }), N: len(ss)},
		metric{Name: "runtime.mallocs_per_trial", Unit: "count", Value: perSample(ss, func(s sample) float64 { return s.mallocs / s.trials }), N: len(ss)})

	// bench: tracing overhead and attribution
	untraced, tracedTps := perSample(plain.samples, sample.tps), perSample(spanned.samples, sample.tps)
	res.add("bench.trace_overhead_frac", "frac", 1-ratio(tracedTps, untraced))
	reps := float64(max(agg.reps, 1))
	for _, name := range slices.Sorted(maps.Keys(agg.cell)) {
		cw := *agg.cell[name]
		cw = cellWork{cold: cw.cold / reps, warm: cw.warm / reps, news: cw.news / reps}
		for _, st := range slices.Sorted(maps.Keys(stageCount)) {
			if xs := cellStageNs[[2]string{st, name}]; len(xs) > 0 {
				res.Attribution = append(res.Attribution, attrPart{Stage: st, Cell: name, P50Ns: median(xs), Count: stageCount[st](cw)})
			}
		}
	}
	gcNs := 1e9 * perSample(plain.samples, func(s sample) float64 { return s.gcCPU })
	res.Attribution = append(res.Attribution, attrPart{Stage: stageGC, P50Ns: gcNs, Count: 1})
	measuredNs := agg.trialNs / reps
	estNs, residual := attribute(res.Attribution, measuredNs)
	within := 0.0
	if math.Abs(residual) <= attributionTolerance {
		within = 1
	}
	res.add("bench.attribution_residual", "frac", residual)

	res.Info = append(res.Info,
		metric{Name: "trials_per_sec.traced", Unit: "1/s", Value: tracedTps, N: len(spanned.samples)},
		metric{Name: "attribution.trial_ms_per_rep", Unit: "ms", Value: measuredNs / 1e6},
		metric{Name: "attribution.estimate_ms_per_rep", Unit: "ms", Value: estNs / 1e6},
		metric{Name: "attribution.tolerance", Unit: "frac", Value: attributionTolerance},
		metric{Name: "attribution.within_tolerance", Unit: "bool", Value: within},
		metric{Name: "failed_frac", Unit: "frac", Value: ratio(float64(res.Failed), float64(res.Attempted))},
	)
	for _, k := range slices.Sorted(maps.Keys(counters)) {
		res.Info = append(res.Info, metric{Name: "counter." + k, Unit: "count", Value: float64(counters[k])})
	}
}
