package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit and the number of
// samples behind it (1 for a count or a ratio of totals).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report collects a run's metrics in print order.
type report struct{ ms []metric }

func (r *report) add(name, unit string, v float64, n int) {
	r.ms = append(r.ms, metric{name, unit, v, n})
}

// def names a metric and its unit.
type def struct{ name, unit string }

// layerDefs are the per-layer metrics of a traced run, in print order.
// A workload that does not exercise a layer reports it as 0 with n=0.
var layerDefs = []def{
	{"service.client.bytes_out_per_req", "B/req"},
	{"service.client.bytes_in_per_req", "B/req"},
	{"service.client.writes_per_req", "1/req"},
	{"service.client.reads_per_req", "1/req"},
	{"service.client.self_us_p50", "us"},
	{"service.server.busy_us_p50", "us"},
	{"service.server.busy_us_p99", "us"},
	{"service.server.self_us_p50", "us"},
	{"service.server.self_us_p99", "us"},
	{"fleet.submit_us_p50", "us"},
	{"fleet.submit_us_p99", "us"},
	{"fleet.submit_ns_per_task", "ns/task"},
	{"fleet.finish_ms", "ms"},
	{"fleet.placed_ratio", "ratio"},
	{"fleet.admitted_spread", "ratio"},
	{"fpga.compact_passes_per_ktask", "1/ktask"},
	{"fpga.tasks_moved_per_ktask", "1/ktask"},
	{"fpga.peak_backlog", "count"},
	{"fpga.shed_per_ktask", "1/ktask"},
	{"fpga.snapshot_bytes_per_task", "B/task"},
	{"service.checkpoint.count", "1/round"},
	{"service.checkpoint.capture_ms_p50", "ms"},
	{"service.checkpoint.write_ms_p50", "ms"},
	{"service.checkpoint.write_ms_max", "ms"},
	{"service.checkpoint.file_mb", "MB"},
	{"service.checkpoint.alloc_mb_per_ckpt", "MB"},
	{"service.recover_ms", "ms"},
	{"service.recover_alloc_mb", "MB"},
	{"precedence.dc_ms_p50", "ms"},
	{"precedence.dc_ms_p99", "ms"},
	{"precedence.lower_bound_ms_p50", "ms"},
	{"precedence.dc_calls_mean", "count"},
	{"precedence.dc_bands_mean", "count"},
	{"release.pack_ms_p50", "ms"},
	{"release.pack_ms_p99", "ms"},
	{"release.cg_solve_ms_p50", "ms"},
	{"release.cg_rounds_mean", "count"},
	{"release.cg_columns_mean", "count"},
	{"release.pool_hit_ratio", "ratio"},
	{"lp.pivots_per_solve", "count"},
	{"runtime.alloc_bytes_per_task", "B/task"},
	{"runtime.alloc_kb_per_instance", "KB/inst"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles", "1/round"},
	{"runtime.cpu_util", "cpus"},
	{"loadgen.gap_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// layerSet collects per-layer values by name; report orders them.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, n int) { l[name] = metric{Name: name, Value: v, N: n} }

func (l layerSet) report() report {
	var r report
	for _, d := range layerDefs {
		m := l[d.name]
		r.add(d.name, d.unit, m.Value, m.N)
	}
	return r
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printLines writes one line per metric: name, value, unit and the
// number of samples behind it.
func (r *report) printLines(w io.Writer, section string) {
	for _, m := range r.ms {
		fmt.Fprintf(w, "%s %-36s %14.6g %-8s n=%d\n", section, m.Name, m.Value, m.Unit, m.N)
	}
}

// print writes the metric lines, then the JSON result line holding the
// metrics whose names are in keep (all of them when keep is nil).
func (r *report) print(w io.Writer, section string, keep map[string]bool, res result) error {
	r.printLines(w, section)
	res.Metrics = map[string]jsonMetric{}
	for _, m := range r.ms {
		if keep == nil || keep[m.Name] {
			res.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// fasterHalf returns the faster half of rounds (rounding up) by the given
// rate, fastest first. On a shared host a round that met a burst of CPU
// steal or a busy neighbour is slow for reasons outside the program, while
// the program's own cost is in every round, so the end-to-end figures come
// from the rounds that ran undisturbed.
func fasterHalf[R any](rounds []R, rate func(R) float64) []R {
	rs := slices.Clone(rounds)
	slices.SortStableFunc(rs, func(a, b R) int { return cmp.Compare(rate(b), rate(a)) })
	return rs[:(len(rs)+1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a run cut short by a failed check).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// minP99Samples is the smallest sample count whose p99 has at least ten
// samples beyond it.
const minP99Samples = 1000

// procSample is a snapshot of process-wide counters: runtime/metrics for
// the Go runtime, getrusage for CPU time actually consumed.
type procSample struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	s := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// procDelta accumulates counter differences over measured phases.
type procDelta struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

func (d *procDelta) add(a, b procSample) {
	d.wall += b.wall.Sub(a.wall)
	d.cpu += b.cpu - a.cpu
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCycles += b.gcCycles - a.gcCycles
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
}

// set adds the process-level per-layer metrics over the accumulated
// phases: work tasks (serve) or instances (solve) in the given rounds.
func (d *procDelta) set(l layerSet, serve bool, work, rounds int) {
	if serve {
		l.set("runtime.alloc_bytes_per_task", float64(d.allocBytes)/float64(max(work, 1)), work)
	} else {
		l.set("runtime.alloc_kb_per_instance", float64(d.allocBytes)/1024/float64(max(work, 1)), work)
	}
	if d.totalCPU > 0 {
		l.set("runtime.gc_cpu_share", d.gcCPU/d.totalCPU, rounds)
	}
	l.set("runtime.gc_cycles", float64(d.gcCycles)/float64(max(rounds, 1)), rounds)
	if d.wall > 0 {
		l.set("runtime.cpu_util", d.cpu.Seconds()/d.wall.Seconds(), rounds)
	}
}

// liveHeap returns the live heap in bytes. The second collection empties
// the sync.Pool victim caches the first one leaves behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostLines describes the host and run conditions, so a recorded number
// can be tied to the machine that produced it.
func hostLines(workdir string) []string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return []string{
		fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
			cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit),
		fmt.Sprintf("host workdir_fs=%s", fsType(workdir)),
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

// cpuStat reads the host's cumulative CPU time split: steal (time a
// hypervisor ran something else on this machine's CPUs) and the total.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// fsType names the filesystem holding dir (checkpoint files live there).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
		0x65735546: "fuse", 0x2FC12FC1: "zfs", 0x01021997: "9p",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
