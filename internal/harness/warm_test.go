package harness

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// warmLedger records every fake warm instance a Run builds, which
// trials ran cold, and how many instances were live at once.
type warmLedger struct {
	mu       sync.Mutex
	insts    []*fakeWarm
	news     map[string]int   // New calls per cell
	cold     map[string][]int // trial indices served by the cold Run
	live     int
	maxLive  int
	panicked int
}

// fakeWarm is a warm instance whose results match the cold path (both
// are parity's), so the report cannot tell which path served a trial.
type fakeWarm struct {
	l        *warmLedger
	cell     string
	panicAt  int // trial index whose RunTrial panics; -1 = never
	released int
	dropped  bool
}

func (w *fakeWarm) RunTrial(t Trial) TrialResult {
	if t.Index == w.panicAt {
		w.l.mu.Lock()
		w.dropped = true
		w.l.live--
		w.l.panicked++
		w.l.mu.Unlock()
		panic("fake warm instance fault")
	}
	return parity(t)
}

func (w *fakeWarm) Release() {
	w.l.mu.Lock()
	defer w.l.mu.Unlock()
	w.released++
	w.l.live--
}

// cell returns a scenario whose cold path logs its trials. With warm
// set it also offers a WarmSpec; failNew makes New return an error and
// panicAt makes that trial index panic inside its instance.
func (l *warmLedger) cell(name string, warm, failNew bool, panicAt int) Scenario {
	s := Scenario{Name: name, Group: "synthetic", Run: func(t Trial) TrialResult {
		l.mu.Lock()
		l.cold[name] = append(l.cold[name], t.Index)
		l.mu.Unlock()
		return parity(t)
	}}
	if !warm {
		return s
	}
	s.Warm = &WarmSpec{New: func() (WarmInstance, error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.news[name]++
		if failNew {
			return nil, errors.New("fake: not warm-safe")
		}
		w := &fakeWarm{l: l, cell: name, panicAt: panicAt}
		l.insts = append(l.insts, w)
		l.live++
		l.maxLive = max(l.maxLive, l.live)
		return w, nil
	}}
	return s
}

// TestWarmInstanceLifecycle runs several warm cells (one failing New,
// one panicking instance) next to a cold one at Jobs 1 and 4: every
// instance is released exactly once, unless it panicked; a worker
// holds at most one live instance; a failed New is not retried on its
// worker; a panicking trial reruns cold; and the report is identical.
func TestWarmInstanceLifecycle(t *testing.T) {
	const trials = 8
	const panicAt = 2
	var reports [][]byte
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			l := &warmLedger{news: map[string]int{}, cold: map[string][]int{}}
			scs := []Scenario{
				l.cell("w/a", true, false, -1),
				l.cell("w/plain", false, false, -1),
				l.cell("w/failnew", true, true, -1),
				l.cell("w/panic", true, false, panicAt),
				l.cell("w/d", true, false, -1),
				l.cell("w/e", true, false, -1),
			}
			rep := Run(scs, Options{Trials: trials, Jobs: jobs, BaseSeed: 5})

			for _, w := range l.insts {
				switch {
				case w.dropped && w.released != 0:
					t.Errorf("%s: panicked instance released %d times", w.cell, w.released)
				case !w.dropped && w.released != 1:
					t.Errorf("%s: instance released %d times, want 1", w.cell, w.released)
				}
			}
			if l.live != 0 {
				t.Errorf("%d instances still live after Run", l.live)
			}
			if l.maxLive > jobs {
				t.Errorf("%d instances live at once, Jobs %d", l.maxLive, jobs)
			}
			if n := l.news["w/failnew"]; n < 1 || n > jobs {
				t.Errorf("failing New called %d times at Jobs %d", n, jobs)
			}
			if n := len(l.cold["w/failnew"]); n != trials {
				t.Errorf("failing-New cell ran %d of %d trials cold", n, trials)
			}
			if l.panicked != 1 {
				t.Errorf("%d instances panicked, want 1", l.panicked)
			}
			ranCold := false
			for _, i := range l.cold["w/panic"] {
				ranCold = ranCold || i == panicAt
			}
			if !ranCold {
				t.Errorf("panicking trial %d did not rerun cold: cold trials %v", panicAt, l.cold["w/panic"])
			}
			for si, s := range scs {
				for ti, r := range rep.Results[si] {
					if want := parity(Trial{Seed: TrialSeed(5, s.Name, ti)}); r != want {
						t.Errorf("%s trial %d: %+v, want %+v", s.Name, ti, r, want)
					}
				}
			}
			if jobs == 1 {
				// One worker: it takes every cell in order, so the counts
				// are exact. The panicking instance serves trials 0 and 1,
				// then the rest of its cell runs cold.
				if l.maxLive != 1 || len(l.insts) != 4 {
					t.Errorf("Jobs 1: %d instances built, %d live at most", len(l.insts), l.maxLive)
				}
				if got := len(l.cold["w/panic"]); got != trials-panicAt {
					t.Errorf("Jobs 1: %d panic-cell trials cold, want %d", got, trials-panicAt)
				}
				if rep.WarmRestores != 3*trials+panicAt || rep.ColdLoads != 3*trials-panicAt {
					t.Errorf("Jobs 1: warm %d cold %d", rep.WarmRestores, rep.ColdLoads)
				}
			}
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, js)
		})
	}
	if len(reports) == 2 && !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("report differs between Jobs 1 and 4:\n%s\n---\n%s", reports[0], reports[1])
	}
}
