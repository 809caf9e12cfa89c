// Command perfbench is the repository benchmark. It runs one workload of
// the scenario catalog through the public harness API in the production
// configuration (trace engine, build cache, warm workers), checks every
// report against the correctness gate, and prints every metric by name
// with its unit, ending with one JSON line:
//
//	perfbench --workload t1-sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// traced passes and reports the per-layer metrics. README.md describes
// the workloads, the metrics and how to read the trace record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// trials overrides the workload's trials per cell; the self-tests
	// use it to run at tiny sizes. Zero keeps the workload's size.
	trials int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the base seed of every trial seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time of the run")
	fs.IntVar(&traceFlag, "trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the run record (with spans when traced); empty writes none")
	goldenDir := fs.String("write-golden", "", "record the workload's golden for --seed into this directory, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadByName(o.workload); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	o.trace = traceFlag == 1

	if *goldenDir != "" {
		if err := recordGolden(o, *goldenDir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout)
	if *out != "" {
		if err := res.write(*out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.Metrics {
		l.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return l
}

// print writes the human-readable table: every metric with its unit and
// sample count, then the correctness verdict.
func (r *runResult) print(w io.Writer) {
	mode := "untraced end-to-end"
	if r.Trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g (%s run)\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "env: %s %s/%s num_cpu=%d jobs=%d\n", r.Env.GoVersion, r.Env.OS, r.Env.Arch, r.Env.NumCPU, r.Env.Jobs)
	table := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			samples := ""
			if m.N > 0 {
				samples = fmt.Sprintf("n=%d", m.N)
				if m.Q > 0 {
					samples += fmt.Sprintf(" at p%g", 100*m.Q)
				}
			}
			fmt.Fprintf(w, "  %-40s %16.6g  %-9s %s\n", m.Name, m.Value, m.Unit, samples)
		}
	}
	table("metrics", r.Metrics)
	table("also measured", r.Info)
	verdict := "CORRECT"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	gate := "reference engine on the leading trials"
	if r.Golden {
		gate = "golden for this seed and " + gate
	}
	fmt.Fprintf(w, "verdict: %s (attempted %d, failed %d; checked against the %s)\n", verdict, r.Attempted, r.Failed, gate)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

// write stores the run record, spans included, under dir.
func (r *runResult) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace%d.json", r.Workload, r.Seed, trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}
