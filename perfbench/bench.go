package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"softsec/internal/harness"
	"softsec/internal/runlog"
	"softsec/internal/telemetry"
)

// metric is one reported number. N is the number of samples behind it
// (0 for a count or a ratio of totals) and Q the percentile of a tail.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Q     float64 `json:"q,omitempty"`
}

// runResult is one run's outcome, printed as a table and written as the
// run record.
type runResult struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Trace     bool       `json:"trace"`
	Seconds   float64    `json:"seconds"`
	Env       runlog.Env `json:"env"`
	Golden    bool       `json:"golden"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Problems  []string   `json:"problems,omitempty"`
	// Metrics are the JSON line's: end-to-end untraced, per-layer traced.
	Metrics []metric `json:"metrics"`
	// Info holds numbers that are measured but not part of the line.
	Info []metric `json:"info,omitempty"`
	// RepTrialsPerSec is every timed repetition's throughput, in run
	// order, for judging the spread within a run.
	RepTrialsPerSec []float64 `json:"rep_trials_per_sec,omitempty"`
	// RepTrialsPerSecCal is the same in reference seconds.
	RepTrialsPerSecCal []float64  `json:"rep_trials_per_sec_cal,omitempty"`
	Attribution        []attrPart `json:"attribution,omitempty"`
	// Spans are the last traced repetition's harness spans and the last
	// replay round's stage spans.
	Spans []span `json:"spans,omitempty"`
}

func (r *runResult) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v})
}

// addDist adds name.p50 and, when tail is set, name.tail; the sample
// count goes on both and, when count is non-empty, into a metric of its
// own under that name.
func (r *runResult) addDist(name, unit string, d dist, scale float64, tail bool, count string) {
	r.Metrics = append(r.Metrics, metric{Name: name + ".p50", Unit: unit, Value: d.P50 * scale, N: d.N})
	if tail {
		r.Metrics = append(r.Metrics, metric{Name: name + ".tail", Unit: unit, Value: d.Tail * scale, N: d.N, Q: d.TailQ})
	}
	if count != "" {
		r.Metrics = append(r.Metrics, metric{Name: count, Unit: "count", Value: float64(d.N)})
	}
}

// jobs is the worker-pool width: the box's CPUs, at most two, so the
// closed loop has the same shape on any machine with two or more.
func jobs() int { return min(2, runtime.NumCPU()) }

// setupReps is how many times a run times set-up; it reports the
// median, calibrated by the mean of a calibration just before the
// set-ups and one just after.
const setupReps = 101

func runWorkload(o options) (*runResult, error) {
	w, _ := workloadByName(o.workload)
	production()
	res := &runResult{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Env: runlog.CaptureEnv(jobs())}
	cal, err := newCalibrator(jobs())
	if err != nil {
		return nil, err
	}
	defer cal.close()

	var setupS []float64
	var groups [][]harness.Scenario
	calBefore := cal.run()
	for range setupReps {
		t0 := time.Now()
		g, err := setup(w)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		groups = g
	}
	setupRaw := median(setupS)
	setupCal := setupRaw * calRefS / ((calBefore.wall + cal.run().wall) / 2)
	res.Info = append(res.Info, metric{Name: "setup_s_raw", Unit: "s", Value: setupRaw, N: len(setupS)})

	trials := w.trials
	if o.trials > 0 {
		trials = o.trials
	}
	g, err := loadGolden(w.name, o.seed)
	if err != nil {
		return nil, err
	}
	chk := &checker{ref: reference(groups, min(w.refTrials, trials), o.seed, nil)}
	if g != nil && g.TrialsPerCell == trials {
		chk.golden = g
		res.Golden = true
	}

	if o.trace {
		// The traced run's untraced repetitions are shorter and share the
		// machine with traced ones: their end-to-end numbers are printed
		// for reference, not reported.
		plain := traced(res, w, groups, trials, o, chk, cal)
		res.Info = append(append(endToEnd(plain, setupCal, len(setupS)), rawTimes(plain)...), res.Info...)
	} else {
		m := measure(chk, cal, o.seconds, func() []*harness.Report { return runRep(groups, trials, jobs(), o.seed, nil) })[0]
		res.Attempted, res.Failed = m.attempted, m.failed
		res.Metrics = endToEnd(m, setupCal, len(setupS))
		res.Info = append(rawTimes(m), res.Info...)
		res.Info = append(res.Info, metric{Name: "failed_frac", Unit: "frac", Value: ratio(float64(m.failed), float64(m.attempted))})
		for _, s := range m.samples {
			res.RepTrialsPerSec = append(res.RepTrialsPerSec, s.tps())
			res.RepTrialsPerSecCal = append(res.RepTrialsPerSecCal, s.calTps())
		}
	}
	res.Problems = chk.problems
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// sample is one timed repetition.
type sample struct {
	wall, cpu, gcCPU       float64 // seconds
	trials, alloc, mallocs float64
	gcCycles               float64
	mid                    time.Time // the repetition's midpoint
	// calWall and calCPU are the calibration in force at mid.
	calWall, calCPU float64
}

func (s sample) tps() float64 { return s.trials / s.wall }

// calTps is tps in reference seconds (calib.go).
func (s sample) calTps() float64 { return s.tps() * s.calWall / calRefS }

// calCPUs is the repetition's CPU seconds in reference seconds: the
// kernel's reference CPU time is calRefS on each of jobs workers.
func (s sample) calCPUs() float64 { return s.cpu * float64(jobs()) * calRefS / s.calCPU }

// measured is a timed loop's outcome.
type measured struct {
	samples           []sample
	cals              []calSample
	last              []*harness.Report
	attempted, failed int
}

// minReps is the fewest timed repetitions a loop makes, however short
// its budget.
const minReps = 3

// measure runs one untimed warm-up round, then timed rounds until
// seconds have passed, gating every report. A round runs one repetition
// of each kind in turn, so kinds compared with each other (traced and
// untraced) see the same drift of the machine. Each repetition starts
// after a forced GC, so none pays for the garbage of the one before.
// The calibration kernel runs before the first timed round, then
// between rounds at least every calEvery, and after the last; each
// sample carries the calibration interpolated to its midpoint.
func measure(chk *checker, cal *calibrator, seconds float64, kinds ...func() []*harness.Report) []measured {
	ms := make([]measured, len(kinds))
	var cals []calSample
	calibrate := func() { cals = append(cals, cal.run()) }
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i <= minReps || time.Now().Before(deadline); i++ {
		if i > 0 && (len(cals) == 0 || time.Since(cals[len(cals)-1].at) >= calEvery) {
			calibrate()
		}
		for k, rep := range kinds {
			m := &ms[k]
			runtime.GC()
			before := readProc()
			t0 := time.Now()
			reps := rep()
			wall := time.Since(t0).Seconds()
			after := readProc()
			a, f := chk.check(reps)
			m.attempted += a
			m.failed += f
			m.last = reps
			if i == 0 {
				continue
			}
			m.samples = append(m.samples, sample{
				wall: wall, cpu: after.cpu - before.cpu, gcCPU: after.gcCPU - before.gcCPU,
				trials: float64(a), alloc: after.alloc - before.alloc, mallocs: after.mallocs - before.mallocs,
				gcCycles: after.gcCycles - before.gcCycles, mid: t0.Add(time.Duration(wall * float64(time.Second) / 2)),
			})
		}
	}
	calibrate()
	for k := range ms {
		for j := range ms[k].samples {
			s := &ms[k].samples[j]
			s.calWall, s.calCPU = calAt(cals, s.mid)
		}
	}
	ms[0].cals = cals
	return ms
}

// procStats are process-wide counters read around a repetition.
type procStats struct {
	cpu, gcCPU, alloc, mallocs, gcCycles float64
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// readCPU is the process's user+sys CPU seconds.
func readCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readProc() procStats {
	cpu := readCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	gc := 0.0
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return procStats{
		cpu: cpu, gcCPU: gc,
		alloc: float64(ms.TotalAlloc), mallocs: float64(ms.Mallocs), gcCycles: float64(ms.NumGC),
	}
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}

// perSample is the median over samples of f.
func perSample(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics: medians over repetitions,
// times calibrated to reference seconds.
func endToEnd(m measured, setupS float64, setupN int) []metric {
	n := len(m.samples)
	return []metric{
		{Name: "trials_per_sec_cal", Unit: "1/s", Value: perSample(m.samples, sample.calTps), N: n},
		{Name: "cpu_ms_per_trial_cal", Unit: "ms", Value: perSample(m.samples, func(s sample) float64 { return 1e3 * s.calCPUs() / s.trials }), N: n},
		{Name: "alloc_kb_per_trial", Unit: "KiB", Value: perSample(m.samples, func(s sample) float64 { return s.alloc / 1024 / s.trials }), N: n},
		{Name: "max_rss_mb", Unit: "MiB", Value: maxRSSMB()},
		{Name: "setup_s", Unit: "s", Value: setupS, N: setupN},
	}
}

// rawTimes are the uncalibrated times behind the calibrated metrics and
// the calibrations themselves, printed and recorded but not reported.
func rawTimes(m measured) []metric {
	n := len(m.samples)
	calMs := make([]float64, len(m.cals))
	for i, c := range m.cals {
		calMs[i] = 1e3 * c.wall
	}
	return []metric{
		{Name: "trials_per_sec", Unit: "1/s", Value: perSample(m.samples, sample.tps), N: n},
		{Name: "cpu_ms_per_trial", Unit: "ms", Value: perSample(m.samples, func(s sample) float64 { return 1e3 * s.cpu / s.trials }), N: n},
		{Name: "calibration_ms", Unit: "ms", Value: median(calMs), N: len(calMs)},
	}
}

// recordGolden runs the workload on the reference engine with telemetry
// and writes its golden.
func recordGolden(o options, dir string) error {
	w, _ := workloadByName(o.workload)
	groups, err := setup(w)
	if err != nil {
		return err
	}
	trials := w.trials
	if o.trials > 0 {
		trials = o.trials
	}
	reps := reference(groups, trials, o.seed, &telemetry.Spec{})
	for _, r := range reps {
		for _, c := range r.Cells {
			if c.Errors > 0 {
				return fmt.Errorf("%s: reference run failed: %s", c.Scenario, c.FirstError)
			}
		}
	}
	return writeGolden(dir, makeGolden(w, o.seed, trials, reps, mergedCounters(reps)))
}
