// Command benchmark is the repository's end-to-end benchmark: four workloads
// over an in-process fleet (one cluster.Trainer, two replica serve.Servers on
// loopback HTTP, driven through pkg/neo.Client) or the offline pkg/neo API,
// each measured untraced for the end-to-end metrics and traced for the
// per-layer metrics. See README.md in this directory and BENCHMARK.json at
// the repo root.
//
//	go run ./benchmark -workload all            # every workload, untraced + traced
//	go run ./benchmark -workload serve-miss     # one workload, both runs
//	go run ./benchmark -workload serve-hot -trace 0 -seed 7 -seconds 15
//	go run ./benchmark -selfcheck               # do two runs of the same code agree?
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// processStart anchors setup_s: process start → first timed operation.
var processStart = time.Now()

// referenceSeconds is BENCHMARK.json's run_seconds, the length sample sizes
// were chosen at.
const referenceSeconds = 15

var workloadNames = []string{"serve-hot", "serve-miss", "learn-loop", "train-episodes"}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	outDir    string
	setupOnly bool // internal: set up, report setup_s, exit
	// repeatSetup makes an untraced run measure its set-up setupRepeats times
	// (the command line does; the smoke test does not)
	repeatSetup bool
	sz          sizing
}

// setupRepeats is how many times one untraced run sets the workload up: once
// in its own process and the rest in child processes that exit after set-up.
// setup_s is the median, so one slow page-cache or scheduler hiccup does not
// read as a regression.
const setupRepeats = 3

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", referenceSeconds, "length of the measured part of one run")
		trace     = flag.Int("trace", -1, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), unset = both")
		out       = flag.String("out", "", "also write the reports as JSON to this file")
		outDir    = flag.String("outdir", "benchmark/out", "directory for trace files and the disk engine's temporary heap files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on -seed and once on -seed+1 and compare end-to-end metrics against their bounds")
		setupOnly = flag.Bool("setup-only", false, "internal: set the workload up, print setup_s and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *workload) {
		fatalf("unknown workload %q (want %s or all)", *workload, strings.Join(workloadNames, ", "))
	}

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *outDir))
	case *trace == 0 || *trace == 1:
		if len(names) != 1 {
			fatalf("-trace needs a single -workload")
		}
		o := options{workload: names[0], seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, setupOnly: *setupOnly, repeatSetup: true, sz: full}
		rep, correct, err := runOne(o)
		if err != nil {
			fatalf("%s: %v", o.workload, err)
		}
		if *out != "" {
			writeJSON(*out, []*report{rep})
		}
		rep.print(os.Stdout)
		fmt.Printf("  GOMAXPROCS %d, %s, %d client connections\n", runtime.GOMAXPROCS(0), runtime.Version(), clients)
		fmt.Println(rep.resultLine(correct))
		if !correct {
			os.Exit(1)
		}
	default:
		// Each workload and each of its two runs gets a process of its own,
		// so rss_mb and setup_s belong to that run alone.
		var reports []*report
		failed := false
		for _, name := range names {
			for _, tr := range []int{0, 1} {
				rep, err := runChild(name, *seed, *seconds, tr, *outDir, os.Stdout)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s -trace %d: %v\n", name, tr, err)
					failed = true
				}
				if rep != nil {
					reports = append(reports, rep)
				}
			}
		}
		if *out != "" {
			writeJSON(*out, reports)
		}
		if failed {
			os.Exit(1)
		}
	}
}

// runOne runs one workload once in this process and reports whether every
// output check passed.
func runOne(o options) (*report, bool, error) {
	var rep *report
	var err error
	switch o.workload {
	case "serve-hot", "serve-miss":
		rep, err = runServe(o.workload, o)
	case "learn-loop":
		rep, err = runLearnLoop(o)
	case "train-episodes":
		rep, err = runTrainEpisodes(o)
	}
	if err != nil {
		return nil, false, err
	}
	if o.setupOnly {
		return rep, true, nil
	}
	if !o.trace && o.repeatSetup {
		if err := repeatSetup(o, rep); err != nil {
			return nil, false, err
		}
	}
	return rep, rep.finish(expectedChecks(o)), nil
}

// expectedChecks names the output checks a run of the workload must have
// performed at least once.
func expectedChecks(o options) []string {
	switch o.workload {
	case "serve-hot":
		return []string{"response", "repeat-plan", "served-plan", "rows"}
	case "serve-miss":
		return []string{"response", "served-plan", "rows"}
	case "learn-loop":
		return []string{"response", "served-plan", "rows", "feedback-accepted", "served-version"}
	default:
		return []string{"episodes", "rows"}
	}
}

// repeatSetup runs the workload's set-up setupRepeats-1 more times, each in
// a fresh process, and replaces setup_s with the median of all of them.
func repeatSetup(o options, rep *report) error {
	setups := []float64{rep.Metrics["setup_s"].Value}
	for i := 1; i < setupRepeats; i++ {
		child, err := runChild(o.workload, o.seed, o.seconds, 0, o.outDir, io.Discard, "-setup-only")
		if err != nil {
			return fmt.Errorf("setup repeat %d: %w", i, err)
		}
		setups = append(setups, child.Metrics["setup_s"].Value)
	}
	rep.set("setup_s", median(setups), len(setups))
	return nil
}

// runChild re-executes this binary for one workload and one run, streams its
// human-readable report to w and parses the report it wrote.
func runChild(name string, seed int64, seconds float64, trace int, outDir string, w io.Writer, extra ...string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(ensureDir(outDir), "report-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := append([]string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-outdir", outDir, "-out", tmp.Name()}, extra...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	// Pass the child's report through without its machine-readable last line.
	text := strings.TrimRight(stdout.String(), "\n")
	if i := strings.LastIndex(text, "\n"); i >= 0 {
		fmt.Fprintln(w, text[:i])
	}
	var reps []*report
	if data, err := os.ReadFile(tmp.Name()); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &reps); err != nil {
			return nil, err
		}
	}
	if len(reps) != 1 {
		return nil, fmt.Errorf("child wrote no report (%v)", runErr)
	}
	return reps[0], runErr
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces as the CreateTemp error that follows
	return dir
}

func writeJSON(path string, reports []*report) {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fatalf("writing %s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
