// Command benchsnap measures the simulator's headline performance
// numbers with fixed work counts and writes them as a machine-readable
// snapshot. Fixed counts — not testing.B calibration — keep the fuzzing
// throughput cells comparable across runs: a campaign's execs/sec
// drifts with the execution budget, so every snapshot runs the same
// budget.
//
//	benchsnap                        # trace-tier cells, write BENCH_trace.json
//	benchsnap -quick -o /tmp/s.json  # reduced counts (smoke/CI)
//	benchsnap -validate              # check the committed snapshot
//	benchsnap -validate -f /tmp/s.json
//	benchsnap -profiles              # per-layout-profile fuzz throughput (BENCH_profiles.json)
//	benchsnap -sweep                 # harness trials/sec over the attack grids (BENCH_sweep.json)
//	benchsnap -runlog runs           # also append the snapshot to a run ledger
//
// A snapshot is a bench-kind run-ledger record (internal/runlog), the
// same format -runlog appends and rundiff compares, so a committed
// BENCH_*.json diffs directly against a fresh one. Config.Group names
// the cell that measured it (trace, profiles or sweep); headline
// timings sit in the record's wall section under "<group>.<metric>.<cell>";
// work counts, the engine counters of the instrumented trace cell and
// the sweep grids' cache and warm/cold counts sit in its metrics
// counters, where they feed the record's content digest.
//
// Each cell declares its gates in code (gates.go). -validate loads the
// record — schema, content ID, embedded metrics — and runs the gates of
// its group: the sanity gates always, the absolute acceptance floors
// (a ≥2× superblock speedup, a no-policy fuzz cell at ≥1M execs/sec,
// the ≥5× build-cache speedup, ...) only on full-budget records. Quick
// records, regenerated on slow or loaded CI machines, carry the
// "quick" profile and are held to the sanity gates alone. -validate
// also accepts telemetry-metrics files and sweep records from
// secsim/attacklab -runlog, which it checks for shape only.
//
// -sweep measures full-pipeline trial throughput (recon, build, load,
// run, classify) over the t1, cfi and t1p grids — the headline cells of
// the content-keyed build cache and the snapshot-warmed trial workers —
// plus the t1 grid through the uncached pipeline, whose ratio to the
// cached t1 grid is the cache speedup.
//
// -profiles measures the echo-victim fuzz campaign once per machine
// layout profile (internal/layout) — the cross-profile throughput
// comparison that shows layout parameterization stays off the hot path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/fuzz"
	"softsec/internal/kernel"
	"softsec/internal/layout"
	"softsec/internal/mem"
	"softsec/internal/minc"
	"softsec/internal/runlog"
	"softsec/internal/telemetry"
)

// quickProfile marks a record measured with reduced work counts: a
// different experiment from the full budget, held to sanity gates only.
const quickProfile = "quick"

// cell is one kind of snapshot: the file it is written to by default,
// how it is measured, and the gates its records must pass.
type cell struct {
	file    string
	measure func(s *snapshot, quick bool) error
	gates   []gate
}

// cells maps a record's Config.Group to its cell.
var cells = map[string]cell{
	"trace":    {"BENCH_trace.json", measureTrace, traceGates},
	"profiles": {"BENCH_profiles.json", measureProfiles, profileGates},
	"sweep":    {"BENCH_sweep.json", measureSweep, sweepGates},
}

func main() {
	var (
		out      = flag.String("o", "", "snapshot file to write (default BENCH_<group>.json)")
		validate = flag.Bool("validate", false, "validate a snapshot instead of measuring")
		file     = flag.String("f", "", "snapshot file to validate (default like -o)")
		quick    = flag.Bool("quick", false, "reduced work counts (smoke runs; validated without the acceptance floors)")
		profiles = flag.Bool("profiles", false, "measure fuzz throughput per machine layout profile instead of the trace-tier cells")
		sweep    = flag.Bool("sweep", false, "measure harness trial throughput over the attack grids (build cache + warm workers)")
		runDir   = flag.String("runlog", "", "also append the snapshot to this run-ledger directory (compare runs with rundiff)")
	)
	flag.Parse()
	group := "trace"
	switch {
	case *profiles && *sweep:
		fmt.Fprintln(os.Stderr, "benchsnap: -profiles and -sweep are separate snapshots; pick one")
		flag.Usage()
		os.Exit(2)
	case *profiles:
		group = "profiles"
	case *sweep:
		group = "sweep"
	}
	if *out == "" {
		*out = cells[group].file
	}
	if *file == "" {
		*file = cells[group].file
	}

	if *validate {
		if err := validateFile(*file); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *file)
		return
	}

	r, err := measure(group, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	b, err := r.Marshal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if *runDir != "" {
		if err := appendRunLog(*runDir, r); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
	}
	for _, k := range sortedKeys(r.Wall) {
		fmt.Printf("  %-36s %14.6g\n", k, r.Wall[k])
	}
	for _, k := range sortedKeys(r.Metrics.Counters) {
		fmt.Printf("  %-36s %14d\n", k, r.Metrics.Counters[k])
	}
}

// validateFile checks a snapshot file. Telemetry-metrics files are
// checked for shape; everything else must load as a run-ledger record,
// and benchsnap records must also pass their group's gates.
func validateFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := validateData(b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func validateData(b []byte) error {
	var peek struct {
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal(b, &peek); err != nil {
		return err
	}
	if peek.Tool == telemetry.MetricsTool {
		return telemetry.ValidateMetrics(b)
	}
	r, err := runlog.Load(b)
	if err != nil {
		return err
	}
	if r.Config.Tool != "benchsnap" {
		return nil
	}
	return checkGates(r)
}

// appendRunLog appends the snapshot record to a run ledger.
func appendRunLog(dir string, r *runlog.Record) error {
	st, err := runlog.Open(dir)
	if err != nil {
		return err
	}
	e, err := st.Append(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "runlog: appended run %d (%s) to %s\n", e.Seq, e.ID, dir)
	return nil
}

// snapshot collects one measurement: headline timings for the record's
// wall section and deterministic counts for its metrics.
type snapshot struct {
	group string
	wall  map[string]float64
	reg   *telemetry.Registry
}

// time records a headline timing under "<group>.<key>".
func (s *snapshot) time(key string, v float64) { s.wall[s.group+"."+key] = v }

// measure runs one cell and seals the result as a bench record.
func measure(group string, quick bool) (*runlog.Record, error) {
	s := &snapshot{group: group, wall: map[string]float64{}, reg: telemetry.NewRegistry()}
	if err := cells[group].measure(s, quick); err != nil {
		return nil, err
	}
	cfg := runlog.Config{Tool: "benchsnap", Kind: runlog.KindBench, Group: group}
	if quick {
		cfg.Profile = quickProfile
	}
	r := &runlog.Record{
		Config:  cfg,
		Env:     runlog.CaptureEnv(runtime.NumCPU()),
		Metrics: s.reg.File(),
		Wall:    s.wall,
	}
	r.Seal()
	return r, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- measurement --------------------------------------------------------

// measureTrace times the execution tiers on a dispatch-bound chain, the
// fuzz campaigns under the production tier, and snapshot restore.
func measureTrace(s *snapshot, quick bool) error {
	chainInstrs, fuzzExecs, restoreCycles := 8<<20, 1<<20, 200000
	if quick {
		chainInstrs, fuzzExecs, restoreCycles = 1<<18, 1<<14, 4096
	}
	s.reg.Count("bench.chain_instrs", uint64(chainInstrs))
	s.reg.Count("bench.fuzz_execs", uint64(fuzzExecs))
	s.reg.Count("bench.restore_cycles", uint64(restoreCycles))

	savedB, savedT := cpu.UseBlockEngine, cpu.UseTraceEngine
	defer func() { cpu.UseBlockEngine, cpu.UseTraceEngine = savedB, savedT }()

	var trace cpu.TraceStats
	for _, cell := range []struct {
		name         string
		block, trace bool
		nblocks      int
		ts           *cpu.TraceStats
	}{
		{"step_loop", false, false, 1, nil},
		{"block_loop", true, false, 1, nil},
		{"block_chain8", true, false, 8, nil},
		{"trace_chain8", true, true, 8, &trace},
	} {
		cpu.UseBlockEngine, cpu.UseTraceEngine = cell.block, cell.trace
		ns, err := timeChain(cell.nblocks, chainInstrs, cell.ts)
		if err != nil {
			return fmt.Errorf("%s: %w", cell.name, err)
		}
		s.time("ns_per_instr."+cell.name, ns)
	}
	if trace.Formed == 0 {
		return fmt.Errorf("trace_chain8: no trace formed (measured the block tier)")
	}
	// The instrumented cell's engine counters prove trace_chain8
	// measured superblocks.
	tsnap := telemetry.NewSnap()
	trace.Publish(tsnap)
	s.reg.AddSnap(tsnap)

	// Fuzz campaign throughput under the production (trace) tier.
	cpu.UseBlockEngine, cpu.UseTraceEngine = true, true
	for _, cell := range []struct {
		name string
		cfg  fuzz.Config
	}{
		{"fuzz_micro", fuzz.Config{Name: "micro", Source: microVictim, Seed: 1, DEP: true}},
		{"fuzz_parser", fuzz.Config{Name: "parser", Source: parserVictim, Seed: 1, DEP: true}},
		{"fuzz_cfi_coarse", fuzz.Config{Name: "echo", Source: echoVictim, Seed: 1, CFI: "coarse"}},
		{"fuzz_cfi_fine", fuzz.Config{Name: "echo", Source: echoVictim, Seed: 1, CFI: "fine"}},
	} {
		eps, err := timeFuzz(cell.cfg, fuzzExecs)
		if err != nil {
			return fmt.Errorf("%s: %w", cell.name, err)
		}
		s.time("execs_per_sec."+cell.name, eps)
	}

	ns, err := timeRestore(restoreCycles)
	if err != nil {
		return fmt.Errorf("snapshot_restore: %w", err)
	}
	s.time("ns_per_op.snapshot_restore", ns)
	return nil
}

// measureProfiles times the echo-victim fuzz campaign (production trace
// tier, DEP on) once per layout profile with identical budgets.
func measureProfiles(s *snapshot, quick bool) error {
	fuzzExecs := 1 << 18
	if quick {
		fuzzExecs = 1 << 13
	}
	s.reg.Count("bench.fuzz_execs", uint64(fuzzExecs))

	savedB, savedT := cpu.UseBlockEngine, cpu.UseTraceEngine
	defer func() { cpu.UseBlockEngine, cpu.UseTraceEngine = savedB, savedT }()
	cpu.UseBlockEngine, cpu.UseTraceEngine = true, true

	for _, name := range layout.Names() {
		cfg := fuzz.Config{Name: "echo", Source: echoVictim, Seed: 1, DEP: true, Profile: name}
		eps, err := timeFuzz(cfg, fuzzExecs)
		if err != nil {
			return fmt.Errorf("profile %s: %w", name, err)
		}
		s.time("execs_per_sec."+name, eps)
	}
	return nil
}

// chainCPU builds a bare machine looping through nblocks two-instruction
// basic blocks (add esi,1; jmp next), the last jumping back to the
// first — the dispatch-bound workload the trace tier targets. nblocks=1
// degenerates to the classic tight loop.
func chainCPU(nblocks int) (*cpu.CPU, error) {
	var src strings.Builder
	src.WriteString("\t.text\n")
	for i := 0; i < nblocks; i++ {
		fmt.Fprintf(&src, "b%d:\n\tadd esi, 1\n\tjmp b%d\n", i, (i+1)%nblocks)
	}
	img := asm.MustAssemble("chain", src.String())
	m := mem.New()
	if err := m.Map(0x1000, mem.PageSize, mem.RX); err != nil {
		return nil, err
	}
	if err := m.LoadRaw(0x1000, img.Text); err != nil {
		return nil, err
	}
	c := cpu.New(m)
	c.IP = 0x1000
	return c, nil
}

// timeChain measures steady-state ns/instr: warm the caches past every
// hotness gate, rewind the architectural state, then time one Run of
// exactly instrs steps.
func timeChain(nblocks, instrs int, ts *cpu.TraceStats) (float64, error) {
	c, err := chainCPU(nblocks)
	if err != nil {
		return 0, err
	}
	c.TraceStats = ts
	saved := c.SaveArch()
	c.Run(2048)
	c.RestoreArch(saved)
	start := time.Now()
	if st := c.Run(uint64(instrs)); st != cpu.StepLimit {
		return 0, fmt.Errorf("state %v fault %v", st, c.Fault())
	}
	return float64(time.Since(start).Nanoseconds()) / float64(instrs), nil
}

func timeFuzz(cfg fuzz.Config, execs int) (float64, error) {
	c, err := fuzz.New(cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := c.Fuzz(execs); err != nil {
		return 0, err
	}
	return float64(execs) / time.Since(start).Seconds(), nil
}

func timeRestore(cycles int) (float64, error) {
	img, err := minc.Compile("victim", echoVictim, minc.Options{})
	if err != nil {
		return 0, err
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		return 0, err
	}
	in := kernel.ScriptInput{[]byte("hello")}
	p, err := kernel.Load(ld, kernel.Config{DEP: true, Input: &in})
	if err != nil {
		return 0, err
	}
	snap := p.Snapshot()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		if st := p.Run(); st != cpu.Exited {
			return 0, fmt.Errorf("state %v fault %v", st, p.CPU.Fault())
		}
		if err := p.Restore(snap); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(cycles), nil
}

// The victims mirror the bench_test.go fuzz cells so the snapshot
// numbers line up with `go test -bench`.
const microVictim = `
void main() {
	char buf[4];
	read(0, buf, 4);
	if (buf[0] == 'F') {
		write(1, buf, 1);
	}
}`

const parserVictim = `
void main() {
	char buf[8];
	int n;
	n = read(0, buf, 8);
	if (n > 1 && buf[0] == 'O' && buf[1] == 'K') {
		write(1, buf, 2);
	}
}`

const echoVictim = `
void main() {
	char buf[16];
	read(0, buf, 64); // spatial memory-safety vulnerability
	write(1, buf, 5);
}`
