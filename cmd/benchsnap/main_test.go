package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"softsec/internal/runlog"
)

func loadCommitted(t *testing.T, file string) (*runlog.Record, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runlog.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	return r, data
}

// TestCommittedSnapshotsRoundTrip loads every committed BENCH_*.json as
// a run record (so its content ID recomputes from its content), checks
// it is the record of the cell that writes that file, re-marshals it
// byte for byte, and runs every gate, floors included: the committed
// numbers must meet their acceptance floors on any machine.
func TestCommittedSnapshotsRoundTrip(t *testing.T) {
	for group, c := range cells {
		t.Run(c.file, func(t *testing.T) {
			r, data := loadCommitted(t, c.file)
			if r.Config.Tool != "benchsnap" || r.Config.Kind != runlog.KindBench || r.Config.Group != group {
				t.Fatalf("config %+v, want a benchsnap bench record of group %s", r.Config, group)
			}
			if r.Config.Profile == quickProfile {
				t.Fatal("committed snapshot was measured with quick budgets")
			}
			out, err := r.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("round-trip diverged from committed file:\n%s\nvs committed:\n%s", out, data)
			}
			if err := validateData(data); err != nil {
				t.Fatalf("validation: %v", err)
			}
		})
	}
}

// TestValidateDispatch: metrics files and run records of other tools
// validate for shape; anything that is not a record — an untagged file,
// an unknown tool tag, the pre-record BENCH format — is rejected, and
// so is a benchsnap record of no known group.
func TestValidateDispatch(t *testing.T) {
	if err := validateData([]byte(`{"schema": 1, "tool": "telemetry-metrics", "counters": {}}`)); err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	sweep := &runlog.Record{
		Config: runlog.Config{Tool: "secsim", Kind: runlog.KindSweep, Group: "t1"},
		Report: []byte(`{"cells":[]}`),
	}
	sweep.Seal()
	b, err := sweep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := validateData(b); err != nil {
		t.Fatalf("secsim sweep record: %v", err)
	}

	r, _ := loadCommitted(t, "BENCH_trace.json")
	r.Config.Group = "martian"
	r.Seal()
	b, err = r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		data, want string
	}{
		"untagged":         {`{"schema": 99}`, "schema 99"},
		"unknown tool":     {`{"schema": 1, "tool": "martian"}`, `tool "martian"`},
		"unknown field":    {`{"schema": 1, "tool": "runlog-record", "bogus": 1}`, `unknown field "bogus"`},
		"pre-record BENCH": {`{"schema": 1, "tool": "benchsnap-sweep", "counts": {"trials": 1, "jobs": 1}}`, `unknown field "counts"`},
		"unknown group":    {string(b), `unknown group "martian"`},
	} {
		err := validateData([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestValidateTraceRejects: the committed trace snapshot, altered only
// in its schema number or by one field the record does not declare, is
// rejected rather than validated.
func TestValidateTraceRejects(t *testing.T) {
	_, data := loadCommitted(t, "BENCH_trace.json")
	good := string(data)
	for name, tc := range map[string]struct {
		old, new, want string
	}{
		"bad schema":    {`"schema": 1,`, `"schema": 99,`, "schema 99"},
		"unknown field": {`"schema": 1,`, `"schema": 1, "bogus": 1,`, `unknown field "bogus"`},
	} {
		bad := strings.Replace(good, tc.old, tc.new, 1)
		if bad == good {
			t.Fatalf("%s: %q not found in BENCH_trace.json", name, tc.old)
		}
		err := validateData([]byte(bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestGatesFire violates each declared gate alone, on a copy of the
// committed record of its cell, and checks that validation names that
// gate and no other. Sanity gates whose violation would also break a
// floor are checked on a quick record, where floors do not apply.
func TestGatesFire(t *testing.T) {
	type mut = func(r *runlog.Record)
	setWall := func(kv ...any) mut {
		return func(r *runlog.Record) {
			for i := 0; i < len(kv); i += 2 {
				r.Wall[r.Config.Group+"."+kv[i].(string)] = kv[i+1].(float64)
			}
		}
	}
	setCounter := func(name string, v uint64) mut {
		return func(r *runlog.Record) {
			if v == 0 {
				delete(r.Metrics.Counters, name)
			} else {
				r.Metrics.Counters[name] = v
			}
		}
	}
	quick := func(m mut) mut {
		return func(r *runlog.Record) { r.Config.Profile = quickProfile; m(r) }
	}
	cases := map[string]map[string]mut{
		"trace": {
			"work-counts": setCounter("bench.chain_instrs", 0),
			"timings": func(r *runlog.Record) {
				delete(r.Wall, "trace.ns_per_op.snapshot_restore")
			},
			"trace-formed":     setCounter("cpu.trace.formed", 0),
			"trace-dispatched": setCounter("cpu.trace.dispatches", 0),
			"trace-avg-len": func(r *runlog.Record) {
				r.Metrics.Hists["cpu.trace.len"] = map[string]uint64{"20": 1}
			},
			"trace-side-exit-rate": setCounter("cpu.trace.side_exits", 3),
			"trace-beats-block":    quick(setWall("ns_per_instr.block_chain8", 6.0, "ns_per_instr.trace_chain8", 6.0)),
			"trace-speedup":        setWall("ns_per_instr.block_chain8", 10.0, "ns_per_instr.trace_chain8", 5.5),
			"fuzz-throughput":      setWall("execs_per_sec.fuzz_micro", 9e5, "execs_per_sec.fuzz_parser", 9e5),
			"trace-ns-per-instr":   setWall("ns_per_instr.block_chain8", 12.0, "ns_per_instr.trace_chain8", 5.95),
		},
		"profiles": {
			"work-counts": setCounter("bench.fuzz_execs", 0),
			"profiles-measured": func(r *runlog.Record) {
				delete(r.Wall, "profiles.execs_per_sec.classic")
			},
			"profiles-known":     setWall("execs_per_sec.martian", 5e5),
			"profile-throughput": setWall("execs_per_sec.classic", 1.5e5, "execs_per_sec.canary-below-vla", 1.6e5, "execs_per_sec.inverted-locals", 1.7e5),
			"profile-spread":     setWall("execs_per_sec.classic", 1e5),
		},
		"sweep": {
			"work-counts":        setCounter("bench.trials", 0),
			"grid-throughput":    setCounter("bench.scenarios.cfi", 0),
			"grid-cached":        setCounter("bench.warm_restores.t1p", 0),
			"uncached-reference": setCounter("bench.cache_hits.t1-uncached", 5),
			"cache-speedup": func(r *runlog.Record) {
				r.Wall["sweep.trials_per_sec.t1-uncached"] = r.Wall["sweep.trials_per_sec.t1"] / 4
			},
		},
	}
	for group, c := range cells {
		for _, g := range c.gates {
			t.Run(group+"/"+g.name, func(t *testing.T) {
				m, ok := cases[group][g.name]
				if !ok {
					t.Fatal("no test case violates this gate")
				}
				r, _ := loadCommitted(t, c.file)
				m(r)
				r.Seal()
				b, err := r.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				err = validateData(b)
				if err == nil {
					t.Fatal("violation validated")
				}
				msg := err.Error()
				if !strings.Contains(msg, "gate "+g.name+":") || strings.Count(msg, "gate ") != 1 {
					t.Fatalf("want exactly gate %s to fire, got:\n%s", g.name, msg)
				}
			})
		}
	}
}
