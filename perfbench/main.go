// Command perfbench is the repository benchmark. It drives three named
// workloads through the program's public entry points — the figure
// functions behind cmapbench (experiments.StalenessSweep,
// experiments.OfferedLoad) and the held-open harness behind cmapsim
// (experiments.NewFlowSim/Run/Results) — prints every end-to-end metric
// by name and unit, and checks that the simulated results are right.
// With -trace 1 it instead rebuilds each workload from the layers'
// public constructors with timing and counting wrappers at every
// interface seam and prints the per-layer metrics.
//
//	perfbench --workload static-scale --seed 1 --seconds 35 --trace 0
//	perfbench compare before.json after.json
//	perfbench list
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A correctness failure
// exits 1 after printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if os.Getenv(calibEnv) != "" {
		os.Exit(serveCalibration())
	}
	// Every workload simulates on one goroutine. A single P makes the
	// collector pace against that goroutine through assists instead of
	// racing it from a second CPU, whose availability on a shared host
	// decides how far the heap overshoots and so what max_rss_mb and
	// cpu_s read.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out saves: the result plus the stamp that says where
// and on what it was measured. compare reads two of these.
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "list" {
		fmt.Fprintln(stdout, strings.Join(workloadNames(), "\n"))
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (%d is digest-pinned; %d is the holdout)", defaultSeed, holdoutSeed))
	seconds := fs.Int("seconds", 35, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	out := fs.String("out", "", "also write the stamped result record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second

	var res result
	var report string
	var err error
	if *traced == 1 {
		res, report, err = traceWorkload(w, *seed, dur)
	} else {
		res, report, err = measureWorkload(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	st := newStamp(w.name, *seed, *traced == 1)
	sj, _ := json.Marshal(st)
	fmt.Fprint(stdout, report)
	fmt.Fprintf(stdout, "host %s\n", sj)
	if *out != "" {
		b, _ := json.MarshalIndent(record{Stamp: st, Result: res}, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
