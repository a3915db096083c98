package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostShape is what must match for two results to be comparable.
type hostShape struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

// stamp records where and on what a result was measured.
type stamp struct {
	// Commit is the checked-out commit when the tree is a git checkout,
	// else "unknown"; Source digests the Go sources either way.
	Commit   string    `json:"commit"`
	Source   string    `json:"source"`
	Host     hostShape `json:"host"`
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
}

func newStamp(workload string, seed uint64, trace bool) stamp {
	return stamp{
		Commit: gitCommit("."),
		Source: sourceDigest("."),
		Host: hostShape{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			CPUModel:   cpuModel(),
		},
		Workload: workload,
		Seed:     seed,
		Trace:    trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// dot-directories (the build cache among them).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// compareMain prints metric changes from a base record to a new one.
// It refuses records from different host shapes, workloads, seeds or
// modes: their differences would not be the code's.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <base.json> <new.json>")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if err := comparable(recs[0].Stamp, recs[1].Stamp); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: refusing: %v\n", err)
		return 3
	}
	a, b := recs[0].Result.Metrics, recs[1].Result.Metrics
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s seed %d: %s -> %s\n", recs[0].Stamp.Workload, recs[0].Stamp.Seed, recs[0].Stamp.Commit, recs[1].Stamp.Commit)
	for _, name := range names {
		change := "n/a"
		if a[name].Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(b[name].Value/a[name].Value-1))
		}
		fmt.Fprintf(stdout, "  %-28s %14.6g -> %14.6g %-8s %s\n", name, a[name].Value, b[name].Value, a[name].Unit, change)
	}
	return 0
}

// comparable reports why two stamps may not be compared, if they may not.
func comparable(a, b stamp) error {
	switch {
	case a.Host != b.Host:
		return fmt.Errorf("host shapes differ: %+v vs %+v", a.Host, b.Host)
	case a.Workload != b.Workload || a.Seed != b.Seed || a.Trace != b.Trace:
		return fmt.Errorf("runs differ: %s seed %d trace %v vs %s seed %d trace %v", a.Workload, a.Seed, a.Trace, b.Workload, b.Seed, b.Trace)
	}
	return nil
}
