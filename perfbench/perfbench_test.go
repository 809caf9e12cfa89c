package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"testing"
	"time"

	"softsec/internal/harness"
	"softsec/internal/telemetry"
)

// tinyTrials keeps the self-tests small: enough trials per cell for warm
// instances to serve a restore, no more.
var tinyTrials = map[string]int{"t1-sweep": 2, "fuzz-campaign": 1, "catalog-cold": 1}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced
// and traced, and checks that the run is correct and emits exactly the
// metrics BENCHMARK.json names, each finite and with the named unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json has workloads %v, the benchmark %d", names, len(workloads))
	}
	for _, name := range names {
		if _, ok := workloadByName(name); !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the benchmark", name)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := runWorkload(options{workload: name, seed: 1, seconds: 0.01, trace: trace, trials: tinyTrials[name]})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d problems=%v", name, trace, res.Correct, res.Attempted, res.Problems)
			}
			got := res.line().Metrics
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json %q", name, trace, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, v.Value)
				}
			}
		}
	}
}

// TestGoldensPass checks the recorded goldens against the production
// engine on both goldened seeds, histograms and simulated counters, and
// that a run at one goldened seed fails the other seed's golden. The
// catalog-cold goldens of seeds 1 and 7 happen to agree (one trial per
// cell, and none of them lands on a seed-dependent outcome), so that
// workload is left out of the cross check.
func TestGoldensPass(t *testing.T) {
	production()
	for _, w := range workloads {
		groups, err := setup(w)
		if err != nil {
			t.Fatal(err)
		}
		goldens := map[int64]*golden{}
		for _, seed := range []int64{1, 7} {
			g, err := loadGolden(w.name, seed)
			if err != nil || g == nil {
				t.Fatalf("%s seed %d: golden %v, %v", w.name, seed, g, err)
			}
			goldens[seed] = g
		}
		for seed, g := range goldens {
			reps := runRep(groups, w.trials, jobs(), seed, &telemetry.Spec{})
			chk := &checker{golden: g}
			if _, failed := chk.check(reps); failed != 0 {
				t.Errorf("%s seed %d: %d trials failed the golden: %v", w.name, seed, failed, chk.problems)
			}
			if bad := g.counterMismatches(mergedCounters(reps)); len(bad) > 0 {
				t.Errorf("%s seed %d: counters differ from the golden: %v", w.name, seed, bad)
			}
			if w.name == "catalog-cold" {
				continue
			}
			other := goldens[8-seed]
			_, failed := (&checker{golden: other}).check(reps)
			if failed == 0 && len(other.counterMismatches(mergedCounters(reps))) == 0 {
				t.Errorf("%s: a run at seed %d passes the seed-%d golden", w.name, seed, 8-seed)
			}
		}
	}
}

// TestGateRejects checks that the gate fails a deliberately wrong
// golden and a run made with a perturbed seed, at a tiny size.
func TestGateRejects(t *testing.T) {
	production()
	w, _ := workloadByName("fuzz-campaign")
	groups, err := setup(w)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 1
	spec := &telemetry.Spec{}
	ref := reference(groups, trials, 1, spec)
	g := makeGolden(w, 1, trials, ref, mergedCounters(ref))
	run := func(seed int64) []*harness.Report { return runRep(groups, trials, jobs(), seed, spec) }

	reps := run(1)
	if _, failed := (&checker{golden: g}).check(reps); failed != 0 {
		t.Fatalf("the matching golden fails %d trials", failed)
	}
	if bad := g.counterMismatches(mergedCounters(reps)); len(bad) > 0 {
		t.Fatalf("the matching golden's counters differ: %v", bad)
	}

	bad := *g
	bad.Cells = maps.Clone(g.Cells)
	cell := groups[0][0].Name
	bad.Cells[cell] = goldenCell{Outcomes: map[string]int{"not-an-outcome": trials}}
	chk := &checker{golden: &bad}
	if _, failed := chk.check(run(1)); failed != trials {
		t.Errorf("wrong golden for %s: %d trials failed, want %d (%v)", cell, failed, trials, chk.problems)
	}
	bad = *g
	bad.Counters = maps.Clone(g.Counters)
	bad.Counters["cpu.steps.retired"]++
	if len(bad.counterMismatches(mergedCounters(reps))) != 1 {
		t.Error("a wrong golden counter passes")
	}

	if len(g.counterMismatches(mergedCounters(run(2)))) == 0 {
		t.Error("a run at seed 2 passes the seed-1 golden's counters")
	}
}

// TestSelfTimeAndAttribution checks the span arithmetic on a synthetic
// tree.
func TestSelfTimeAndAttribution(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}

	parts := []attrPart{{P50Ns: 10, Count: 3}, {P50Ns: 5, Count: 2}}
	if est, res := attribute(parts, 50); est != 40 || math.Abs(res-0.2) > 1e-12 {
		t.Errorf("attribute = %v, %v; want 40, 0.2", est, res)
	}

	// Two workers: A runs [0,40] then [40,90]; B runs [0,50] then [50,70].
	// The last unit is taken at 50, B goes idle for good at 70.
	run := span{Start: 0, End: 100}
	units := []span{
		{Start: 0, End: 40, UnitStart: 0}, {Start: 40, End: 90, UnitStart: 40},
		{Start: 0, End: 50, UnitStart: 0}, {Start: 50, End: 70, UnitStart: 50},
	}
	if busy, tail := runShape(run, units, 2); math.Abs(busy-0.8) > 1e-12 || tail != 30 {
		t.Errorf("runShape = %v, %v; want 0.8, 30", busy, tail)
	}

	for n, q := range map[int]float64{50: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 100000: 0.9999} {
		if got := tailQ(n); got != q {
			t.Errorf("tailQ(%d) = %v, want %v", n, got, q)
		}
	}
	d := summarize([]float64{4, 1, 3, 2})
	if d.P50 != 2.5 || d.N != 4 {
		t.Errorf("summarize = %+v", d)
	}
}

// TestReplayReproduces replays every workload's leading trials and
// checks they reproduce the harness's outcomes, and that a recorded
// outcome the replay cannot reproduce is caught.
func TestReplayReproduces(t *testing.T) {
	production()
	for _, w := range workloads {
		groups, err := setup(w)
		if err != nil {
			t.Fatal(err)
		}
		trials := tinyTrials[w.name]
		reps := runRep(groups, trials, jobs(), 3, nil)
		rp := newReplayer(newTracer())
		n := rp.replayRound(groups, reps, 3, trials)
		if n != cellCount(groups)*trials || rp.failed != 0 {
			t.Errorf("%s: replayed %d of %d trials, %d failed: %v", w.name, n, cellCount(groups)*trials, rp.failed, rp.mismatches)
		}
		reps[0].Results[0][0].Outcome = "not-an-outcome"
		rp = newReplayer(newTracer())
		rp.replayRound(groups, reps, 3, trials)
		if rp.failed != 1 {
			t.Errorf("%s: an altered recorded outcome gave %d failures, want 1", w.name, rp.failed)
		}
	}
}

func cellCount(groups [][]harness.Scenario) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

// TestCalibration checks the calibration arithmetic: a repetition takes
// the median of the calSmooth calibrations nearest to it, and a host
// that runs the kernel k times slower than calRefS scales the raw
// throughput up by k.
func TestCalibration(t *testing.T) {
	t0 := time.Unix(0, 0)
	var cals []calSample
	for i, w := range []float64{1, 9, 2, 8, 3, 7, 4} { // at 0s, 1s, ..., 6s
		cals = append(cals, calSample{at: t0.Add(time.Duration(i) * time.Second), wall: w, cpu: 10 * w})
	}
	for _, c := range []struct {
		at   time.Duration
		wall float64
	}{
		{-time.Second, 3},                         // before all: 1 9 2 8 3
		{2600 * time.Millisecond, 7},              // 1s..5s: 9 2 8 3 7
		{4 * time.Second, 4},                      // 2s..6s: 2 8 3 7 4
		{time.Minute, 4},                          // after all: the last five
		{3*time.Second + 400*time.Millisecond, 7}, // 1s..5s again
	} {
		wall, cpu := calAt(cals, t0.Add(c.at))
		if wall != c.wall || cpu != 10*c.wall {
			t.Errorf("calAt(%v) = %v, %v; want %v, %v", c.at, wall, cpu, c.wall, 10*c.wall)
		}
	}
	if w, _ := calAt(cals[:2], t0); w != 5 {
		t.Errorf("calAt over two calibrations = %v, want their median 5", w)
	}

	s := sample{wall: 2, cpu: 3, trials: 100, calWall: 3 * calRefS, calCPU: 3 * calRefS * float64(jobs())}
	if got := s.calTps(); math.Abs(got-150) > 1e-9 {
		t.Errorf("calTps = %v, want 150 (50/s raw on a host 3x slower than the reference)", got)
	}
	if got := s.calCPUs(); math.Abs(got-1) > 1e-9 {
		t.Errorf("calCPUs = %v, want 1", got)
	}

	c, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if r := c.run(); !(r.wall > 0) || !(r.cpu > 0) {
		t.Errorf("calibration = %+v, want positive times", r)
	}
}
