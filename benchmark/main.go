// Command benchmark is the repository's benchmark: seven named workloads
// driven through the public facade, end-to-end metrics measured with the
// observability hub off, and — in a separate traced run — per-layer probes
// and a round budget. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/tensor"
)

// metric is one reported number and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload invocation prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir receives the span files and budget tables of traced runs; it is
// relative to the repository root, where run.sh starts the binary.
var outDir = "benchmark/out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Uint64("seed", 8, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "measuring time of one workload's long runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, obs hub nil; 1: per-layer metrics, spans and budget table")
		quick   = flag.Bool("quick", false, "tiny runs (K=5, one of each) that only prove every metric is produced")
		out     = flag.String("out", "", "with -workload all: write the set of results to this JSON file")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	pinProcs()
	o := options{seed: *seed, seconds: *seconds, quick: *quick}
	if o.quick {
		o.seconds = 0
	}
	switch *name {
	case "":
		fatalf("-workload is required (one of %s, or all)", strings.Join(workloadNames, ", "))
	case "all":
		os.Exit(runAll(o, *trace, *out))
	}
	fmt.Fprintf(os.Stderr, "environment: %+v\n", currentEnvironment(o.seed))
	res, err := runWorkload(*name, o, *trace == 1)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(*name, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// pinProcs fixes GOMAXPROCS at min(nproc, 4), the width every recorded
// number assumes.
func pinProcs() {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
}

// runWorkload is one invocation's work: the timed protocol, or with trace
// the probes and traced legs.
func runWorkload(name string, o options, trace bool) (result, error) {
	w, err := newWorkload(name, o.seed)
	if err != nil {
		return result{}, err
	}
	var t tally
	var metrics map[string]metric
	if trace {
		metrics = tracedMetrics(w, o, &t)
	} else {
		metrics = timedMetrics(w, o, &t)
	}
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.fail("metric %s is not finite", n)
		}
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	return result{Correct: t.failed == 0 && metrics != nil, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// printResult prints every metric by name with its unit, then the result
// object as the last line.
func printResult(name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-14s %-34s %v %s\n", name, n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// environment is what two result sets must share to be comparable, plus
// what a reader needs to place the numbers.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	Kernel     string `json:"kernel_class"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
}

func currentEnvironment(seed uint64) environment {
	env := environment{
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOAMD64:    "unknown",
		Kernel:     tensor.ActiveKernel().String(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				env.GOAMD64 = s.Value
			case "vcs.revision":
				env.Commit = s.Value
			}
		}
	}
	return env
}

// resultSet is the file -workload all writes and -compare reads.
type resultSet struct {
	Env       environment       `json:"environment"`
	Trace     int               `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

// runAll re-executes this binary once per workload, so every workload's
// peak_rss_mb is its own process's, and gathers the result lines.
func runAll(o options, trace int, outFile string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("locating the running binary: %v", err)
	}
	set := resultSet{Env: currentEnvironment(o.seed), Trace: trace, Workloads: map[string]result{}}
	code := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace)}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", name, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s printed no result: %v\n", name, jerr)
			code = 1
			continue
		}
		set.Workloads[name] = res
	}
	if outFile != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			fatalf("encoding %s: %v", outFile, err)
		}
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	return code
}
