// Command perf is the repository's wall-clock and protocol-cost benchmark.
//
// One invocation measures one workload in a fresh process:
//
//	perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it runs the workload in a closed loop through the runner's
// public entry points for about <s> seconds and prints the end-to-end
// metrics; with --trace 1 it makes the traced pass — a benchmark-built
// cluster of the same shape behind spanNode wrappers, the layer kernels and
// a telemetry run — and prints the per-layer ledger. The last line of
// standard output is always one JSON object {correct, attempted, failed,
// metrics}. Without --workload it re-executes itself once per workload and
// pass, prints every table and writes perf/out/results.json; -compare
// judges two such files against the metrics' own bounds.
//
// Two kinds of number are kept apart everywhere: host metrics (wall clock
// and allocator counters of this Go process — noisy, judged against a
// bound) and simulated metrics (messages, bytes, sim ticks, rounds — a pure
// function of (workload, seed, scale), which must repeat exactly). See
// README.md for every metric and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// outDir receives trace files, per-run records and results.json: perf/out
// from the checkout root (where run.sh runs the program), out from inside
// perf/ (where `go run .` and `go test` run it).
var outDir = func() string {
	if _, err := os.Stat(filepath.Join("perf", "go.mod")); err == nil {
		return filepath.Join("perf", "out")
	}
	return "out"
}()

// options are the inputs of one measured run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
}

func main() {
	var (
		opt       options
		trace     int
		setupOnly bool
		compare   bool
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to measure (empty: every workload, each in a fresh process)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 15, "how long one run measures")
	flag.Float64Var(&opt.scale, "scale", 1, "multiplier on every workload's size (smoke tests use 0.01)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the per-layer ledger")
	flag.BoolVar(&setupOnly, "setup-only", false, "internal: generate inputs, warm up and exit (what setup_s times)")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files given as arguments")
	flag.Parse()
	opt.trace = trace != 0

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case opt.workload == "":
		if err := runAll(opt); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(opt.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", opt.workload))
		}
		if setupOnly {
			if _, err := setUp(w, opt); err != nil {
				fatal(err)
			}
			return
		}
		rec, err := runOne(w, opt)
		if err != nil {
			fatal(err)
		}
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line a measured run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what one measured run leaves in outDir: the contract line plus
// what a comparison needs to judge it.
type record struct {
	result
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// Reps is how many repetitions the host metrics are medians of.
	Reps int `json:"reps"`
	// Spread is, per host metric, the interquartile range of its
	// repetitions as a share of their median.
	Spread map[string]float64 `json:"spread,omitempty"`
	// Why names the first expectation that failed ("" when Correct).
	Why string `json:"why,omitempty"`
}

// runOne measures one workload in this process, prints its table and the
// contract line, and leaves the record in outDir.
func runOne(w workload, opt options) (*record, error) {
	var (
		rec *record
		err error
	)
	if opt.trace {
		rec, err = tracedPass(w, opt)
	} else {
		rec, err = measure(w, opt)
	}
	if err != nil {
		return nil, err
	}
	rec.Workload, rec.Trace = w.name, opt.trace
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	printTable(os.Stdout, rec, defs)
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "perf: %s: INCORRECT: %s\n", w.name, rec.Why)
	}
	if err := writeJSON(recordPath(w.name, opt.trace), rec); err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return rec, nil
}

func recordPath(workload string, trace bool) string {
	pass := "e2e"
	if trace {
		pass = "layers"
	}
	return filepath.Join(outDir, workload+"."+pass+".json")
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// machine is the metadata recorded with each results.json.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// results is the file runAll writes and -compare reads.
type results struct {
	Machine   machine            `json:"machine"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Scale     float64            `json:"scale"`
	Claim     *string            `json:"claim"`
	Workloads map[string]*passes `json:"workloads"`
}

// passes are one workload's two records.
type passes struct {
	EndToEnd *record `json:"end_to_end"`
	PerLayer *record `json:"per_layer"`
}

// runAll measures every workload, each pass in a fresh process so that
// mem_sys_mb and the allocator counters are per workload, then writes
// results.json. The children print their own tables.
func runAll(opt options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := results{Machine: thisMachine(), Seed: opt.seed, Seconds: opt.seconds, Scale: opt.scale, Workloads: map[string]*passes{}}
	failed := false
	for pass, trace := range []bool{false, true} {
		for _, w := range workloads {
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
				"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64),
				"-trace", strconv.Itoa(pass))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				if _, exited := err.(*exec.ExitError); !exited {
					return err
				}
				failed = true
			}
			var rec record
			data, err := os.ReadFile(recordPath(w.name, trace))
			if err != nil {
				return fmt.Errorf("%s left no record: %w", w.name, err)
			}
			if err := json.Unmarshal(data, &rec); err != nil {
				return err
			}
			p := all.Workloads[w.name]
			if p == nil {
				p = &passes{}
				all.Workloads[w.name] = p
			}
			if trace {
				p.PerLayer = &rec
			} else {
				p.EndToEnd = &rec
			}
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed {
		return fmt.Errorf("at least one workload was incorrect")
	}
	return nil
}
