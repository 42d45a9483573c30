// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output it produced, and
// prints every metric by name with its unit; the last line of standard
// output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 instead
// runs the per-layer ladder, spans and counters (see traced.go). See
// README.md for the workloads and what each metric means.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload serve-tcp --seed 1 --seconds 10 --trace 0
//	perfbench compare old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"serve-tcp", "serve-udp", "serve-churn", "sim-regen"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	buildDir string
	out      string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produced.
type report struct {
	Host      hostStamp         `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds figures printed beside the metrics that are not part of
	// the result line (failure share, digests, sample counts, spreads).
	Info []string `json:"info"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the op streams are generated from it")
	flag.IntVar(&opt.seconds, "seconds", 10, "measured time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.buildDir, "build-dir", ".bench_build", "directory for scratch files (cold tier, spans, profiles)")
	flag.StringVar(&opt.out, "out", "", "also write the full report (host stamp, metrics, info) as JSON to this file")
	flag.Parse()
	opt.trace = trace != 0
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", opt.seconds)
	}
	if err := os.MkdirAll(opt.buildDir, 0o755); err != nil {
		return err
	}
	rep := &report{Host: stampHost(opt)}
	w := servingWorkloads()[opt.workload]
	var err error
	switch {
	case opt.workload == "sim-regen" && opt.trace:
		err = traceSimRegen(opt, rep)
	case opt.workload == "sim-regen":
		err = runSimRegen(opt, rep)
	case w != nil && opt.trace:
		err = traceServing(w, opt, rep)
	case w != nil:
		err = runServing(w, opt, rep)
	default:
		return fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return err
	}
	return emit(rep, opt)
}

// emit prints the host stamp, every metric by name with its unit, the
// info lines, and finally the result line.
func emit(rep *report, opt options) error {
	w := bufio.NewWriter(os.Stdout)
	stamp, _ := json.Marshal(rep.Host)
	fmt.Fprintf(w, "host %s\n", stamp)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, l := range rep.Info {
		fmt.Fprintf(w, "info %s\n", l)
	}
	for _, n := range names {
		if v := rep.Metrics[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	if opt.out != "" {
		full, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opt.out, append(full, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// hostStamp records what a result was measured on and with which inputs.
// Results are comparable only when the host shape (CPUs, GOMAXPROCS, CPU
// model) and the workload match.
type hostStamp struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	GitSHA       string `json:"git_sha"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	StreamDigest string `json:"stream_digest,omitempty"`
}

func stampHost(opt options) hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the commit the benchmark runs in, or "unknown" outside a git
// checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// comparable reports why two stamps' results may not be compared, or nil.
func comparable(a, b hostStamp) error {
	var diffs []string
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.CPUModel != b.CPUModel {
		diffs = append(diffs, fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.Workload != b.Workload {
		diffs = append(diffs, fmt.Sprintf("workload %s vs %s", a.Workload, b.Workload))
	}
	if a.Seconds != b.Seconds || a.Trace != b.Trace {
		diffs = append(diffs, "run length or trace mode differs")
	}
	if len(diffs) == 0 {
		return nil
	}
	return errors.New("results are not comparable: " + strings.Join(diffs, "; "))
}

// compareMain prints each metric of two --out reports side by side, and
// refuses reports taken on different host shapes or workloads.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var reps [2]report
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
	}
	if err := comparable(reps[0].Host, reps[1].Host); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare %s and %s: %v\n", args[0], args[1], err)
		return 1
	}
	names := make([]string, 0, len(reps[0].Metrics))
	for n := range reps[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := reps[0].Metrics[n], reps[1].Metrics[n]
		ratio := math.NaN()
		if a.Value != 0 {
			ratio = b.Value / a.Value
		}
		fmt.Printf("%-40s %14.6g %14.6g %8.3fx %s\n", n, a.Value, b.Value, ratio, a.Unit)
	}
	return 0
}

// scratchDir is a per-process directory under the build dir for cold-tier
// segments and other run files; the caller removes it.
func scratchDir(opt options) (string, error) {
	d := filepath.Join(opt.buildDir, fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	return d, os.MkdirAll(d, 0o755)
}

// cpuTicks reads the host's aggregate CPU counters: ticks the hypervisor
// gave to other guests (steal) and all ticks. Their deltas across a run
// tell whether a slow result came from the program or from the host.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		var v uint64
		fmt.Sscan(f[i], &v)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
