package main

import (
	"slices"
	"sync"
	"time"

	"softsec/internal/harness"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root. Trial spans carry
// the (Cell, Trial) identifier they ran; other spans carry Trial -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cell   string `json:"cell,omitempty"`
	Trial  int    `json:"trial"`
	// UnitStart is when the worker took this trial off the queue: the
	// start of the Warm.New call that built its instance for the
	// instance's first trial, the trial span's own start otherwise.
	UnitStart int64 `json:"unit_start_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	taken int // spans handed out by take; ids keep counting past them
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = t.taken + len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// open starts a span whose children are recorded before it ends.
func (t *tracer) open(name string, parent int, cell string, trial int) int {
	return t.add(span{Parent: parent, Name: name, Start: t.now(), End: -1, Cell: cell, Trial: trial})
}

func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1-t.taken].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, cell string, trial int, fn func()) {
	id := t.open(name, parent, cell, trial)
	fn()
	t.close(id)
}

// take removes and returns every span recorded so far.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	t.taken += len(out)
	return out
}

// Span names of the harness pass.
const (
	spanRun       = "harness.run"
	spanTrialCold = "harness.trial_cold"
	spanTrialWarm = "harness.trial_warm"
	spanWarmNew   = "harness.warm_new"
)

// wrap returns a copy of scen whose Run, Warm.New and
// WarmInstance.RunTrial record spans under the parent run span. The
// wrappers add timing only: every call goes to the scenario's own code
// with the same arguments, so the report is unchanged.
func (t *tracer) wrap(scen []harness.Scenario, parent int) []harness.Scenario {
	out := make([]harness.Scenario, len(scen))
	for i, s := range scen {
		w := s
		run := s.Run
		w.Run = func(tr harness.Trial) harness.TrialResult {
			start := t.now()
			r := run(tr)
			t.add(span{Parent: parent, Name: spanTrialCold, Start: start, End: t.now(), Cell: tr.Scenario, Trial: tr.Index, UnitStart: start})
			return r
		}
		if s.Warm != nil {
			newInst := s.Warm.New
			name := s.Name
			w.Warm = &harness.WarmSpec{New: func() (harness.WarmInstance, error) {
				start := t.now()
				inst, err := newInst()
				t.add(span{Parent: parent, Name: spanWarmNew, Start: start, End: t.now(), Cell: name, Trial: -1})
				if err != nil {
					return nil, err
				}
				return &tracedInstance{t: t, inst: inst, parent: parent, unitStart: start}, nil
			}}
		}
		out[i] = w
	}
	return out
}

// tracedInstance times the trials one worker serves from a warm
// instance. Like the instance it wraps, it belongs to one worker.
type tracedInstance struct {
	t         *tracer
	inst      harness.WarmInstance
	parent    int
	unitStart int64 // the building Warm.New's start, until the first trial
}

func (w *tracedInstance) RunTrial(tr harness.Trial) harness.TrialResult {
	start := w.t.now()
	unit := start
	if w.unitStart != 0 {
		unit, w.unitStart = w.unitStart, 0
	}
	r := w.inst.RunTrial(tr)
	w.t.add(span{Parent: w.parent, Name: spanTrialWarm, Start: start, End: w.t.now(), Cell: tr.Scenario, Trial: tr.Index, UnitStart: unit})
	return r
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]. Children of one span may overlap when workers run them in
// parallel, so overlapping time is counted once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	iv = slices.Clone(iv)
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := [2]int64{0, -1}
	flush := func() {
		a, b := max(cur[0], lo), min(cur[1], hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv {
		if x[0] > cur[1] {
			flush()
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	flush()
	return total
}

// runShape measures one harness.Run span: worker busy fraction (summed
// unit time over jobs × wall) and the tail, from the first worker going
// idle for good to the end of the run. A worker goes idle for good when
// it finishes a unit after the queue's last unit was taken.
func runShape(run span, units []span, jobs int) (busy float64, tail int64) {
	if len(units) == 0 || run.dur() <= 0 {
		return 0, 0
	}
	var busyNs, lastTaken int64
	for _, u := range units {
		busyNs += u.End - u.UnitStart
		lastTaken = max(lastTaken, u.UnitStart)
	}
	firstIdle := run.End
	for _, u := range units {
		if u.End > lastTaken {
			firstIdle = min(firstIdle, u.End)
		}
	}
	return float64(busyNs) / float64(int64(jobs)*run.dur()), run.End - firstIdle
}

// attrPart is one term of the attribution sum: a stage's median time on
// one cell times how often the production path runs that stage there.
type attrPart struct {
	Stage string  `json:"stage"`
	Cell  string  `json:"cell"`
	P50Ns float64 `json:"p50_ns"`
	Count float64 `json:"count"`
}

// attribute sums the parts and returns the estimate with its residual
// against the measured trial time: (measured − estimate) / measured.
func attribute(parts []attrPart, measuredNs float64) (estNs, residual float64) {
	for _, p := range parts {
		estNs += p.P50Ns * p.Count
	}
	return estNs, ratio(measuredNs-estNs, measuredNs)
}
