package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"strippack/internal/fleet"
)

// Tiny sizes of every workload: few shards and small requests, but still
// 1000 requests (or instances) in the faster half of the rounds, so the
// p99 has ten samples beyond it.
var tinyServe = map[string]serveSpec{
	"serve-bulk": {
		tenants: []tenantSpec{{"bulk", 4, fleet.RouteLeast}},
		cols:    16, load: 0.95, tasksPerReq: 16, reqs: 250, replays: 2, bestOf: true, minSets: 4,
	},
	"serve-rpc": {
		tenants: []tenantSpec{{"a", 2, fleet.RouteLeast}, {"b", 2, fleet.RouteLeast}},
		cols:    16, load: 0.5, tasksPerReq: 8, reqs: 167, replays: 2, minSets: 3,
	},
	"ckpt-recover": {
		tenants: []tenantSpec{{"a", 4, fleet.RouteLeast}, {"b", 4, fleet.RouteP2C}},
		cols:    16, load: 0.8, tasksPerReq: 16, reqs: 125, history: 20, ckptEvery: 50, replays: 2, minSets: 4,
	},
}

var tinySolve = solveSpec{
	dagN: 60, dagLayers: 4, dagP: 0.3, dags: 8,
	fpgaN: 12, ks: []int{4, 5, 6}, releases: 3, perK: 8,
	eps: 1, passes: 2, minRounds: 64,
}

func tinyHooks(workload string) testHooks {
	if workload == "solve" {
		s := tinySolve
		return testHooks{solve: &s}
	}
	s := tinyServe[workload]
	return testHooks{serve: &s}
}

// runBench runs one invocation and returns its exit code, stdout and the
// parsed JSON result line (nil when the last line is not one).
func runBench(t *testing.T, workload string, trace string, h testHooks) (int, string, *result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--outdir", t.TempDir()}
	code := run(args, &stdout, &stderr, h)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return code, stdout.String() + stderr.String(), nil
	}
	return code, stdout.String() + stderr.String(), &res
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	if !slices.Equal(e2e, e2eNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", e2e, e2eNames)
	}
	var defs []string
	for _, d := range layerDefs {
		defs = append(defs, d.name)
	}
	if !slices.Equal(layers, defs) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", layers, defs)
	}
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			code, out, res := runBench(t, w, "0", tinyHooks(w))
			if code != 0 || res == nil || !res.Correct || res.Failed != 0 || res.Attempted < minP99Samples {
				t.Fatalf("untraced run: exit %d, result %+v\n%s", code, res, out)
			}
			if len(res.Metrics) != len(e2eNames) {
				t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(e2eNames))
			}
			for _, n := range e2eNames {
				m, ok := res.Metrics[n]
				if !ok || m.Unit == "" || m.Value == 0 {
					t.Errorf("metric %s: %+v (present %v)", n, m, ok)
				}
				if !strings.Contains(out, "e2e "+n+" ") {
					t.Errorf("no %s line", n)
				}
			}

			code, out, res = runBench(t, w, "1", tinyHooks(w))
			if code != 0 || res == nil || !res.Correct {
				t.Fatalf("traced run: exit %d, result %+v\n%s", code, res, out)
			}
			for _, d := range layerDefs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s: %+v (present %v)", d.name, m, ok)
				}
			}
			if !strings.Contains(out, "spans ") {
				t.Errorf("traced run wrote no span file\n%s", out)
			}
			if w != "solve" && strings.Count(out, "reconcile ") != 2 {
				t.Errorf("serve run printed no reconciliation lines\n%s", out)
			}
		})
	}
}

func TestWrongReferenceHashFails(t *testing.T) {
	h := tinyHooks("serve-rpc")
	h.mutateRef = func(r *reference) { r.hashes[1][0] ^= 1 }
	code, out, res := runBench(t, "serve-rpc", "0", h)
	if code == 0 || res == nil || res.Correct || !strings.Contains(out, "tenant b snapshot sha256") {
		t.Fatalf("a wrong reference hash passed: exit %d, result %+v\n%s", code, res, out)
	}
}

func TestInvalidPackingFails(t *testing.T) {
	h := tinyHooks("solve")
	h.mutatePack = func(round int, o *solveOut) {
		if round == 1 {
			o.p.Pos[0].X = -1 // outside the strip
		}
	}
	code, out, res := runBench(t, "solve", "0", h)
	if code == 0 || res == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("an invalid packing passed: exit %d, result %+v\n%s", code, res, out)
	}
}

func TestUndersizedServeRunRefused(t *testing.T) {
	s := tinyServe["serve-bulk"]
	s.reqs = 249 // 4 input sets x 249 requests < 1000
	code, out, res := runBench(t, "serve-bulk", "0", testHooks{serve: &s})
	if code == 0 || res != nil || !strings.Contains(out, "needs at least 1000") {
		t.Fatalf("an undersized run was not refused: exit %d, result %+v\n%s", code, res, out)
	}
	if strings.Contains(out, "e2e submit_p99_ms") {
		t.Errorf("refused run printed a p99\n%s", out)
	}
}
