package fuzz

import (
	"bytes"
	"reflect"
	"testing"

	"softsec/internal/cpu"
	"softsec/internal/harness"
)

// TestFindsSeededCrash is the headline acceptance check: on the
// unmitigated config the fuzzer must discover the stack-smash crash in
// the echo victim within the registered campaign budget, and the
// recorded input must reproduce the crash.
func TestFindsSeededCrash(t *testing.T) {
	res, err := Run(Config{
		Name: "echo", Source: fuzzVictimEcho,
		Seed: 42, MaxExecs: ScenarioExecs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstCrashExec < 0 {
		t.Fatalf("no crash found in %d execs: %s", res.Execs, res.Summary())
	}
	t.Logf("first crash at exec %d: %s", res.FirstCrashExec, res.FirstCrashFault)

	// Reproduce: the recorded input must crash a fresh campaign's victim.
	c, err := New(Config{Name: "echo", Source: fuzzVictimEcho, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Execute(res.FirstCrashInput)
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != Crashed {
		t.Fatalf("recorded crash input did not reproduce: %v (%v)", r.Outcome, r.State)
	}
}

// TestCampaignDeterministic: identical Config (same Seed) must yield an
// identical Result, byte for byte — the foundation of the jobs-
// independence contract.
func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Name: "echo", Source: fuzzVictimEcho, Seed: 7, MaxExecs: 600}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different campaigns:\n%+v\n%+v", a, b)
	}
}

// TestSweepJobsIndependent: a fixed-seed sweep over every registered
// fuzz cell must serialize to byte-identical JSON for -jobs 1 and
// -jobs 4 (the harness determinism contract, acceptance criterion).
func TestSweepJobsIndependent(t *testing.T) {
	scs := ScenariosFor("")
	if len(scs) == 0 {
		t.Fatal("no fuzz scenarios registered")
	}
	run := func(jobs int) []byte {
		rep := harness.Run(scs, harness.Options{Trials: 2, Jobs: jobs, BaseSeed: 99})
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	j1, j4 := run(1), run(4)
	if !bytes.Equal(j1, j4) {
		t.Fatalf("jobs=1 and jobs=4 sweeps differ:\n%s\n----\n%s", j1, j4)
	}
}

// TestMitigationsShiftOutcomes pins the campaign table's story on a
// fixed seed: without mitigations the echo smash is an uncontrolled
// crash; under canary+dep every discovered smash is detected instead;
// under dep+shadowstack the CFI fault catches it.
func TestMitigationsShiftOutcomes(t *testing.T) {
	base := Config{Name: "echo", Source: fuzzVictimEcho, Seed: 42, MaxExecs: ScenarioExecs}

	plain := base
	res, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatalf("none: no crashes: %s", res.Summary())
	}

	guarded := base
	guarded.Canary, guarded.DEP = true, true
	res, err = Run(guarded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Crashes != 0 {
		t.Fatalf("canary+dep: want detections and no crashes: %s", res.Summary())
	}

	cfi := base
	cfi.DEP, cfi.ShadowStack = true, true
	res, err = Run(cfi)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Crashes != 0 {
		t.Fatalf("dep+shadowstack: want detections and no crashes: %s", res.Summary())
	}
}

// TestExploitOracle: an input that plants libc's spawn_shell address in
// the fnptr victim's handler slot must classify as Exploited, not merely
// Crashed — the oracle distinguishes "hijacked" from "fell over".
func TestExploitOracle(t *testing.T) {
	c, err := New(Config{Name: "fnptr", Source: fuzzVictimFnPtr, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spawn, ok := c.Process().SymbolAddr("spawn_shell")
	if !ok {
		t.Fatal("no spawn_shell symbol")
	}
	input := append(bytes.Repeat([]byte{'x'}, 16), le.AppendUint32(nil, spawn)...)
	r, err := c.Execute(input)
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != Exploited {
		t.Fatalf("outcome = %v (%v), want Exploited", r.Outcome, r.State)
	}
}

// TestCorpusAdmission: novel coverage earns a corpus slot; replaying the
// same input does not.
func TestCorpusAdmission(t *testing.T) {
	c, err := New(Config{Name: "echo", Source: fuzzVictimEcho, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("hello")
	r, err := c.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if r.NewEdges == 0 {
		t.Fatal("first input lit no edges")
	}
	c.record(in, r)
	if len(c.corpus) != 1 {
		t.Fatalf("corpus = %d, want 1", len(c.corpus))
	}
	r2, err := c.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NewEdges != 0 {
		t.Fatalf("replay claims %d new edges", r2.NewEdges)
	}
	c.record(in, r2)
	if len(c.corpus) != 1 {
		t.Fatalf("replay admitted to corpus (%d entries)", len(c.corpus))
	}
}

// TestDictionaryScrapesGadgets: the mutation dictionary must contain
// gadget and symbol addresses from the loaded image.
func TestDictionaryScrapesGadgets(t *testing.T) {
	c, err := New(Config{Name: "echo", Source: fuzzVictimEcho, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dict := c.sched.dict
	if len(dict) < 10 {
		t.Fatalf("dictionary too small: %d words", len(dict))
	}
	spawn, _ := c.Process().SymbolAddr("spawn_shell")
	found := false
	for _, w := range dict {
		if le.Uint32(w) == spawn {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("spawn_shell address missing from dictionary")
	}
}

func TestStreamInput(t *testing.T) {
	var s streamInput
	s.reset([]byte("abcdefgh"))
	if got := s.NextInput(3, nil); string(got) != "abc" {
		t.Fatalf("chunk 1 = %q", got)
	}
	if got := s.NextInput(100, nil); string(got) != "defgh" {
		t.Fatalf("chunk 2 = %q", got)
	}
	if got := s.NextInput(4, nil); got != nil {
		t.Fatalf("eof chunk = %q", got)
	}
}

// TestExecResetIsComplete: a crashing execution must leave no trace in
// the next one — same input, same classification, forever.
func TestExecResetIsComplete(t *testing.T) {
	c, err := New(Config{Name: "echo", Source: fuzzVictimEcho, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	smash := bytes.Repeat([]byte{0x41}, 64)
	var first ExecResult
	for i := 0; i < 5; i++ {
		r, err := c.Execute(smash)
		if err != nil {
			t.Fatal(err)
		}
		benign, err := c.Execute([]byte("hi"))
		if err != nil {
			t.Fatal(err)
		}
		if benign.Outcome != Clean {
			t.Fatalf("iter %d: benign input %v after crash (reset leak)", i, benign.Outcome)
		}
		if i == 0 {
			first = r
		} else if !execResultEqual(r, first) {
			t.Fatalf("iter %d: crash drifted: %+v vs %+v", i, r, first)
		}
	}
}

// execResultEqual compares results by value; the Fault field is a
// pointer (a fresh object per fault), so it is compared by rendering.
func execResultEqual(a, b ExecResult) bool {
	fs := func(f *cpu.Fault) string {
		if f == nil {
			return ""
		}
		return f.Error()
	}
	return a.Outcome == b.Outcome && a.State == b.State && a.Sig == b.Sig &&
		a.NewEdges == b.NewEdges && a.Steps == b.Steps && fs(a.Fault) == fs(b.Fault)
}
