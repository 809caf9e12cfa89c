package main

import (
	"time"

	"softsec/internal/harness"
	"softsec/internal/telemetry"
)

// Shares of --seconds the traced run gives each pass. The counter pass
// is one repetition and takes what it takes.
const (
	measureShare = 0.6 // untraced and span repetitions, alternating
	replayShare  = 0.25
)

// spanAgg accumulates the harness spans of the span pass.
type spanAgg struct {
	durUs       map[string][]float64 // span name -> durations
	busy, tail  []float64            // per harness.Run
	cell        map[string]*cellWork // per cell, summed over repetitions
	trialNs     float64              // Σ trial-span time (units, Warm.New included)
	calls, reps int
	last        []span
}

// cellWork counts how the production path served one cell.
type cellWork struct{ cold, warm, news float64 }

func (a *spanAgg) addRep(spans []span, jobs int) {
	a.calls++
	if a.calls == 1 {
		return // measure's warm-up repetition is not a sample
	}
	a.reps++
	a.last = spans
	units := map[int][]span{}
	for _, s := range spans {
		if s.Name == spanRun {
			continue
		}
		a.durUs[s.Name] = append(a.durUs[s.Name], float64(s.dur())/1e3)
		cw := a.cell[s.Cell]
		if cw == nil {
			cw = &cellWork{}
			a.cell[s.Cell] = cw
		}
		switch s.Name {
		case spanTrialCold:
			cw.cold++
		case spanTrialWarm:
			cw.warm++
		case spanWarmNew:
			cw.news++
			continue
		}
		units[s.Parent] = append(units[s.Parent], s)
		a.trialNs += float64(s.End - s.UnitStart)
	}
	for _, s := range spans {
		if s.Name == spanRun {
			b, t := runShape(s, units[s.ID], jobs)
			a.busy = append(a.busy, b)
			a.tail = append(a.tail, float64(t)/1e6)
		}
	}
}

// traced runs the passes of a per-layer run: untraced repetitions (the
// overhead baseline and runtime counters) alternating with span
// repetitions (harness layer), then the stage replay, then one counter
// repetition (telemetry). It returns the untraced repetitions.
func traced(res *runResult, w workload, groups [][]harness.Scenario, trials int, o options, chk *checker, cal *calibrator) measured {
	j := jobs()
	tr := newTracer()
	agg := &spanAgg{durUs: map[string][]float64{}, cell: map[string]*cellWork{}}
	plainRep := func() []*harness.Report { return runRep(groups, trials, j, o.seed, nil) }
	spanRep := func() []*harness.Report {
		reps := make([]*harness.Report, len(groups))
		for gi, g := range groups {
			id := tr.open(spanRun, 0, w.groups[gi], -1)
			reps[gi] = harness.Run(tr.wrap(g, id), harness.Options{Trials: trials, Jobs: j, BaseSeed: o.seed})
			tr.close(id)
		}
		agg.addRep(tr.take(), j)
		return reps
	}
	ms := measure(chk, cal, o.seconds*measureShare, plainRep, spanRep)
	plain, spanned := ms[0], ms[1]
	rp := newReplayer(tr)
	deadline := time.Now().Add(time.Duration(o.seconds * replayShare * float64(time.Second)))
	var replaySpans, lastRound []span
	replayed := 0
	for first := true; first || time.Now().Before(deadline); first = false {
		replayed += rp.replayRound(groups, spanned.last, o.seed, min(w.replayTrials, trials))
		lastRound = tr.take()
		replaySpans = append(replaySpans, lastRound...)
	}
	chk.problems = append(chk.problems, rp.mismatches...)

	counted := runRep(groups, trials, j, o.seed, &telemetry.Spec{})
	ca, cf := chk.check(counted)
	counters := mergedCounters(counted)
	if chk.golden != nil {
		if bad := chk.golden.counterMismatches(counters); len(bad) > 0 {
			cf = ca
			chk.problems = append(chk.problems, bad...)
		}
	}

	res.Attempted = plain.attempted + spanned.attempted + replayed + ca
	res.Failed = plain.failed + spanned.failed + rp.failed + cf
	perLayer(res, plain, spanned, agg, rp, replaySpans, counters)
	res.Spans = append(agg.last, lastRound...)
	return plain
}
