// Command perfbench is the repository benchmark. It runs one workload
// under one seed for a given number of seconds, checks every output, and
// prints each metric by name with its unit and sample count, ending with a
// one-line JSON result:
//
//	perfbench --workload serve-bulk --seed 1 --seconds 10 --trace 0
//
// The serve workloads host the placement service in this process the way
// cmd/placementd does (unix listener, service.NewServer over a
// service.Local fleet, Serve per connection) and drive it with
// synchronous service.Client connections; solve runs the paper's
// divide-and-conquer and APTAS solvers on seeded instances. --trace 1
// runs the same rounds with spans recorded at each layer boundary and
// prints the per-layer metrics instead. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// e2eNames are the end-to-end metrics of the JSON result line of an
// untraced run, in BENCHMARK.json order.
var e2eNames = []string{
	"setup_s", "tasks_per_s", "instances_per_s", "submit_p50_ms", "submit_p99_ms",
	"utilization", "mean_wait", "height_ratio", "live_heap_mb",
}

var workloads = []string{"serve-bulk", "serve-rpc", "ckpt-recover", "solve"}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outdir   string
	workdir  string // per-invocation scratch under outdir, removed at exit
}

// testHooks let tests shrink a workload and break its checks.
type testHooks struct {
	serve      *serveSpec
	solve      *solveSpec
	mutateRef  func(*reference)
	mutatePack func(i int, out *solveOut)
}

func newOutcome() *outcome {
	return &outcome{layer: layerSet{}, spans: spanLog{base: time.Now()}}
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	e2e       report
	layer     layerSet
	attempted int
	failed    int
	errs      []string // failed output checks
	notes     []string // reconciliation and context lines
	spans     spanLog
}

func (o *outcome) checkf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, testHooks{}))
}

func run(args []string, stdout, stderr io.Writer, h testHooks) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: serve-bulk, serve-rpc, ckpt-recover or solve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&secs, "seconds", 10, "measured time; rounds repeat until it has passed")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.outdir, "outdir", ".bench_build", "directory for scratch files and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, o.workload) || secs < 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 0 and --trace 0|1\n", workloads)
		return 2
	}
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	if err := execute(&o, stdout, h); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errChecks reports failed output checks after the result was printed.
var errChecks = errors.New("output checks failed")

func execute(o *options, stdout io.Writer, h testHooks) error {
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		return err
	}
	wd, err := os.MkdirTemp(o.outdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(wd)
	o.workdir = wd

	for _, l := range hostLines(wd) {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%v\n",
		o.workload, o.seed, o.seconds.Seconds(), o.trace)

	steal0, total0 := cpuStat()
	var out *outcome
	if o.workload == "solve" {
		spec := solveFull
		if h.solve != nil {
			spec = *h.solve
		}
		out, err = runSolve(spec, o, h)
	} else {
		spec := serveSpecs[o.workload]
		if h.serve != nil {
			spec = *h.serve
		}
		out, err = runServe(spec, o, h)
	}
	if err != nil {
		return err
	}

	steal1, total1 := cpuStat()
	if total1 > total0 {
		fmt.Fprintf(stdout, "host cpu_steal_share=%.4f over the run\n", float64(steal1-steal0)/float64(total1-total0))
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, e := range out.errs {
		fmt.Fprintln(stdout, "check FAILED:", e)
	}
	errRatio := 0.0
	if out.attempted > 0 {
		errRatio = float64(out.failed) / float64(out.attempted)
	}
	out.e2e.add("error_ratio", "ratio", errRatio, out.attempted)
	res := result{Correct: len(out.errs) == 0 && out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if o.trace {
		path := filepath.Join(o.outdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := out.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(out.spans.spans), path)
		out.e2e.printLines(stdout, "e2e")
		lr := out.layer.report()
		err = lr.print(stdout, "layer", nil, res)
	} else {
		keep := map[string]bool{}
		for _, n := range e2eNames {
			keep[n] = true
		}
		err = out.e2e.print(stdout, "e2e", keep, res)
	}
	if err != nil {
		return err
	}
	if !res.Correct {
		return errChecks
	}
	return nil
}
